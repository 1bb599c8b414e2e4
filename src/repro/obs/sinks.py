"""Pluggable destinations for telemetry events.

Every event is a plain JSON-serializable dict with a ``"type"`` key —
``"span"`` records from the tracer and ``"metrics_snapshot"`` dumps from
:meth:`Telemetry.flush`.  Sinks are deliberately dumb pipes: routing,
sampling, or aggregation belongs in whatever consumes them.

* :class:`RingBufferSink` — keeps the last N events in memory; the
  default sink for tests and examples.
* :class:`JsonlSink` — appends one JSON object per line to a file;
  :func:`read_jsonl` reads it back.
* :class:`ConsoleSink` — human-readable one-liners routed through
  ``logging.getLogger("repro.obs")`` at INFO, so library consumers
  control verbosity with standard logging configuration (the package
  installs a ``NullHandler`` — silence by default).
"""

from __future__ import annotations

import json
import logging
import os
from collections import deque
from pathlib import Path
from typing import IO, Iterator, Mapping

logger = logging.getLogger("repro.obs")


class TelemetrySink:
    """Interface: receive events, flush, close.  Base is a null sink."""

    def emit(self, event: Mapping[str, object]) -> None:
        """Receive one telemetry event."""

    def flush(self) -> None:
        """Force any buffered output out."""

    def close(self) -> None:
        """Release resources; the sink must not be emitted to after."""


class RingBufferSink(TelemetrySink):
    """Keep the most recent ``capacity`` events in memory."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.events: deque[dict] = deque(maxlen=capacity)

    def emit(self, event: Mapping[str, object]) -> None:
        self.events.append(dict(event))

    def spans(self) -> list[dict]:
        """The buffered span events, oldest first."""
        return [e for e in self.events if e.get("type") == "span"]

    def __len__(self) -> int:
        return len(self.events)


class JsonlSink(TelemetrySink):
    """Append one compact JSON object per event to ``path``.

    ``flush_every`` bounds the data a crash can lose: every N writes the
    sink flushes to the OS, so at most ``N - 1`` events (plus one
    possibly truncated line, which :func:`read_jsonl` tolerates) are at
    risk.  The default 0 flushes only on explicit :meth:`flush`/
    :meth:`sync`/:meth:`close` — fastest, but an abrupt exit loses
    whatever the stdio buffer held.

    Several processes may append to one path at once (a supervised
    fleet's shared trace file): the file is opened in append mode and
    every write the stdio buffer hands the OS ends on a line boundary,
    so records do not interleave mid-line.  A live file that a crash
    left without its final newline is sealed aside as ``<path>.<n>``
    on open (:meth:`_seal_torn_tail`); :func:`read_jsonl_rotated`
    chains those segments back in write order.  The WAL
    (:class:`repro.serve.wal.ShardWal`) is this sink.
    """

    def __init__(self, path: str | Path, flush_every: int = 0) -> None:
        if flush_every < 0:
            raise ValueError(
                f"flush_every must be non-negative, got {flush_every}"
            )
        self.path = Path(path)
        self.flush_every = flush_every
        self.written = 0
        self.rotations = 0
        self._seal_torn_tail()
        self._file: IO[str] | None = self.path.open("a", encoding="utf-8")

    def _seal_torn_tail(self) -> None:
        """Quarantine a crash-truncated live file before appending.

        A writer that died mid-:meth:`emit` leaves the live file without
        a final newline.  Appending to it would concatenate the next
        record onto the torn one, turning a tolerated segment-final
        truncation into an interior corrupt line that
        :func:`read_jsonl` correctly refuses.  Instead the damaged file
        is renamed to the next free ``<path>.<n>`` segment, so the torn
        record stays segment-final (where :func:`read_jsonl_rotated`
        tolerates it) and new writes start a clean live file.  A file
        that ends in a newline is appended to as is: no record can be
        joined, and a file other writers share is never renamed.
        """
        try:
            with self.path.open("rb") as handle:
                handle.seek(0, 2)
                if handle.tell() == 0:
                    return
                handle.seek(-1, 2)
                if handle.read(1) == b"\n":
                    return
        except FileNotFoundError:
            return
        suffix = 1 + max(
            (int(p.suffix[1:]) for p in _rotated_segments(self.path)),
            default=0,
        )
        self.path.rename(self.path.with_name(f"{self.path.name}.{suffix}"))
        self.rotations += 1

    def emit(self, event: Mapping[str, object]) -> None:
        if self._file is None:
            raise ValueError(f"JsonlSink({self.path}) is closed")
        self._file.write(json.dumps(event, separators=(",", ":")) + "\n")
        self.written += 1
        if self.flush_every and self.written % self.flush_every == 0:
            self._file.flush()

    def flush(self) -> None:
        if self._file is not None:
            self._file.flush()

    def sync(self) -> None:
        """Flush, then ``fsync``: everything emitted so far is on disk."""
        if self._file is not None:
            self._file.flush()
            os.fsync(self._file.fileno())

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


class JsonlReadStats:
    """Process-wide tally of corrupt lines :func:`read_jsonl` skipped."""

    __slots__ = ("skipped",)

    def __init__(self) -> None:
        self.skipped = 0


#: Incremented once per truncated/corrupt final line ``read_jsonl``
#: tolerated; tests and operators can watch it to spot crashy writers.
JSONL_READ_STATS = JsonlReadStats()


def read_jsonl(path: str | Path, strict: bool = False) -> Iterator[dict]:
    """Yield the events a :class:`JsonlSink` wrote, in order.

    A writer that died mid-:meth:`~JsonlSink.emit` leaves a truncated
    final line; by default that line is skipped with a logged warning
    (and :data:`JSONL_READ_STATS` incremented) instead of raising, so a
    crashed run's telemetry stays readable.  A corrupt line *before* the
    end is real data corruption and always raises.  ``strict=True``
    raises on any malformed line.
    """
    pending: tuple[int, str] | None = None
    with Path(path).open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                # Blank lines never resurrect a pending malformed
                # line: a torn tail followed only by whitespace is
                # still a tolerated tail.
                continue
            if pending is not None:
                # The malformed line was not the last record: real
                # corruption.
                raise ValueError(
                    f"{path}:{pending[0]}: corrupt JSONL line: "
                    f"{pending[1]!r:.80}"
                )
            try:
                yield json.loads(line)
            except ValueError:
                if strict:
                    raise
                pending = (lineno, line)
    if pending is not None:
        JSONL_READ_STATS.skipped += 1
        logger.warning(
            "%s:%d: skipping truncated final JSONL line (%d total "
            "skipped this process)",
            path, pending[0], JSONL_READ_STATS.skipped,
        )


def _rotated_segments(path: Path) -> list[Path]:
    """The rotated ``<path>.<n>`` segments, oldest (lowest n) first."""
    return sorted(
        (
            p
            for p in path.parent.glob(path.name + ".*")
            if p.suffix[1:].isdigit()
        ),
        key=lambda p: int(p.suffix[1:]),
    )


def rotated_paths(path: str | Path) -> list[Path]:
    """Every segment of a JSONL sink's log, write order.

    Sealed ``<path>.<n>`` segments first (``.1`` oldest), the live file
    last.  A log that never sealed a torn tail is one path.
    """
    base = Path(path)
    segments = _rotated_segments(base)
    if base.exists():
        segments.append(base)
    return segments


def read_jsonl_rotated(
    path: str | Path, strict: bool = False
) -> Iterator[dict]:
    """Yield a :class:`JsonlSink`'s events across all its segments.

    Chains :func:`read_jsonl` over :func:`rotated_paths`, so events
    come back in write order and *every* segment tolerates a truncated
    final record: a crashed writer's torn tail is sealed into its own
    segment on reopen (:meth:`JsonlSink._seal_torn_tail`), so
    truncation always lands segment-final.  A corrupt line in a
    segment's interior still raises.  WAL recovery
    (:meth:`repro.serve.wal.ShardWal.recover`) reads through this.
    """
    for segment in rotated_paths(path):
        yield from read_jsonl(segment, strict=strict)


class ConsoleSink(TelemetrySink):
    """One INFO log line per event via the ``repro.obs`` logger."""

    def __init__(self, log: logging.Logger | None = None) -> None:
        self.logger = log or logger

    def emit(self, event: Mapping[str, object]) -> None:
        kind = event.get("type", "event")
        if kind == "span":
            self.logger.info(
                "span %s depth=%s %.3fms %s",
                event.get("name"),
                event.get("depth"),
                event.get("duration_ms", 0.0),
                event.get("attributes") or "",
            )
        elif kind == "metrics_snapshot":
            counters = event.get("counters", [])
            histograms = event.get("histograms", [])
            self.logger.info(
                "metrics snapshot: %d counters, %d histograms",
                len(counters),
                len(histograms),
            )
        elif kind == "slo_alert":
            self.logger.warning(
                "SLO %s: %s (value=%s threshold=%s at t=%s)",
                event.get("state"),
                event.get("rule"),
                event.get("value"),
                event.get("threshold"),
                event.get("t"),
            )
        else:
            self.logger.info("telemetry %s: %s", kind, dict(event))
