"""Per-shard durability: a JSONL command log.

A shard's mutable state — sessions, pseudonyms, trajectory columns — is
a pure function of the operations it applied, in order: the engine is
deterministic, construction is seeded, and every state mutation enters
through exactly two calls (``report_location`` / ``process``).  So the
write-ahead log records *commands*, not state: one JSON line per
state-mutating operation, appended **before** the operation executes.
Recovery rebuilds the warm engine from the workload config and replays
the log; because the op sequence is identical, the rebuilt sessions,
pseudonyms, and trajectory columns are byte-equivalent to the pre-crash
state (``ShardRuntime.fingerprint`` pins this in the tests).

Records are compact::

    {"s": <seq>, "k": "u"|"r", "u": <user_id>,
     "x": <x>, "y": <y>, "t": <t>[, "v": <service>]}

``seq`` is the router-assigned per-shard sequence number — strictly
monotonic, which recovery verifies; ``k`` discriminates location
updates from service requests.

The log is a :class:`repro.obs.sinks.JsonlSink` at ``wal.jsonl`` in the
shard directory, read back with
:func:`repro.obs.sinks.read_jsonl_rotated`: a crash-torn final record
is sealed aside into its own segment when the next incarnation opens
the log, so it stays segment-final, where the reader tolerates it.
Replay time is proportional to the ops logged (the honest cost of
command logging; records are ~90 bytes and replay runs at memory
speed).

``fsync`` policy trades durability for latency:

* ``"always"`` — fsync after every append; survives power loss.
* ``"batch"`` — flush to the OS per append, fsync on
  :meth:`ShardWal.sync` (drain); survives process crashes (SIGKILL),
  may lose the OS cache on power loss.  The default: the kill/restore
  acceptance bar is process death.
* ``"never"`` — stdio buffering only; fastest, bench-only.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

from repro.obs.sinks import JsonlSink, read_jsonl_rotated
from repro.serve.protocol import (
    Frame,
    LocationUpdate,
    ServiceRequest,
)

FSYNC_POLICIES = ("always", "batch", "never")

#: Log filename inside a shard directory.
WAL_NAME = "wal.jsonl"


def op_record(frame: Frame, seq: int) -> dict:
    """The WAL record of one state-mutating frame."""
    if isinstance(frame, ServiceRequest):
        return {
            "s": seq,
            "k": "r",
            "u": frame.user_id,
            "x": frame.x,
            "y": frame.y,
            "t": frame.t,
            "v": frame.service,
        }
    if isinstance(frame, LocationUpdate):
        return {
            "s": seq,
            "k": "u",
            "u": frame.user_id,
            "x": frame.x,
            "y": frame.y,
            "t": frame.t,
        }
    raise TypeError(
        f"frame {frame.op!r} is not a state-mutating operation"
    )


def frame_of_record(record: dict) -> "LocationUpdate | ServiceRequest":
    """Rebuild the replayable frame of one WAL record."""
    if record["k"] == "r":
        return ServiceRequest(
            id=0,
            user_id=record["u"],
            x=record["x"],
            y=record["y"],
            t=record["t"],
            service=record["v"],
            seq=record["s"],
        )
    return LocationUpdate(
        id=0,
        user_id=record["u"],
        x=record["x"],
        y=record["y"],
        t=record["t"],
        seq=record["s"],
    )


class WalCorruptionError(ValueError):
    """The log violates its own invariants (non-monotonic sequence)."""


class ShardWal:
    """The durable command log of one shard (see module doc)."""

    def __init__(
        self, directory: "str | Path", fsync: str = "batch"
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self._sink = JsonlSink(
            directory / WAL_NAME,
            flush_every=1 if fsync == "batch" else 0,
        )
        self._sync_each = fsync == "always"

    def append(self, record: dict) -> None:
        """Append one op record; durability per the fsync policy."""
        self._sink.emit(record)
        if self._sync_each:
            self._sink.sync()

    def sync(self) -> None:
        """Force everything appended so far onto the disk."""
        self._sink.sync()

    def close(self) -> None:
        self._sink.close()

    @staticmethod
    def recover(directory: "str | Path") -> Iterator[dict]:
        """Yield every logged op of a shard directory, in seq order.

        Each segment tolerates one torn final record.  Sequence
        numbers must be strictly increasing across the whole stream —
        anything else means file-level damage beyond a crashed writer
        and raises :class:`WalCorruptionError`.
        """
        path = Path(directory) / WAL_NAME
        last_seq = -1
        for record in read_jsonl_rotated(path):
            seq = record.get("s")
            if not isinstance(seq, int) or seq <= last_seq:
                raise WalCorruptionError(
                    f"{path}: op sequence went {last_seq} -> {seq!r}; "
                    "the log is damaged beyond a crashed writer"
                )
            last_seq = seq
            yield record
