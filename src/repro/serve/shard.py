"""Sharded serving: a user-id-hashing router over N shard sequencers.

This is the serving side of :class:`~repro.engine.session.
ShardedSessionStore`'s partitioning argument: users are assigned to
shards by ``user_id % n_shards``, every shard owns a **shared-nothing**
engine (its own :class:`~repro.engine.session.InMemorySessionStore`
with the ``p<i>.`` pseudonym prefix, its own
:class:`~repro.mod.store.TrajectoryStore`), and :class:`ShardRouter`
forwards each frame to the owning shard's sequencer.  The router *is*
the :class:`~repro.serve.server.TrustedServer` frontend — admission,
tracing, drain, and every op are shared — built from a workload
instead of one prebuilt engine, plus what only a sharded deployment
needs: per-shard write-ahead logs, crash/restore, and a worker's shard
subset.  One shard is the daemon's default shape.

**Decision equivalence.**  Every shard's trajectory store is warmed
with the *full* city history (:func:`repro.serve.loadgen.build_engine`
with the shard's id), while sessions and LBQID monitors exist only for
owned users.  Algorithm 1's anonymity-set selection reads the store
(identical everywhere) and the requester's own session (owned by
exactly one shard), so per-user decision streams are identical to the
single-engine offline replay — ``loadgen --verify`` passes against a
sharded frontend with zero changes, and the determinism tests pin it.

**Durability.**  The WAL records op *commands* in dispatch order;
recovery rebuilds the warm engine from the seeded workload config and
replays the log, reconstructing sessions, pseudonyms, and trajectory
columns byte-equivalently
(:meth:`~repro.serve.server.ShardRuntime.fingerprint`).  The router
stamps each forwarded op with a per-shard monotonic ``seq``; a worker
restored mid-stream answers already-applied seqs from its reply cache,
so a supervisor can re-send everything unacknowledged after a SIGKILL
without double-applying.

The supervisor→worker hop is an ordinary client connection (strict
codec both ways).  The fast frame codec
(:func:`~repro.serve.protocol.encode_frame_fast`) serves only the
in-process firehose below (:meth:`ShardRouter.serve_line`/
:meth:`ShardRouter.serve_lines`), which benchmark E18 drives.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

from repro.obs.config import Telemetry, TelemetryConfig, resolve_telemetry
from repro.obs.slo import SloRule
from repro.serve.loadgen import (
    ServingWorkload,
    WorkloadConfig,
    build_engine,
)
from repro.serve.protocol import (
    ErrorReply,
    Frame,
    ProtocolError,
    decode_request_fast,
    encode_frame_fast,
)
from repro.serve.server import (
    SERVABLE,
    ServeConfig,
    ShardJob,
    ShardRuntime,
    ShardSequencer,
    TrustedServer,
)
from repro.serve.wal import WalConfig


class ShardRouter(TrustedServer):
    """User-id-hashing frontend over N shard sequencers (module doc).

    ``shard_ids`` restricts this router to a subset of the global
    shard space (a *worker* in the multi-process deployment: ``M``
    shards spread over ``W`` workers, worker ``w`` serving the shards
    ``{i : i mod W == w}``).  Frames for unowned shards are answered
    with ``wrong_shard``.  Only a worker executes a frame's ``seq`` as
    sent (its supervisor stamps every op; see
    :attr:`~repro.serve.server.TrustedServer.trusts_seq`).
    ``slo_rules`` need ``n_shards == 1``.
    """

    def __init__(
        self,
        workload: ServingWorkload,
        workload_config: WorkloadConfig,
        n_shards: int = 4,
        config: ServeConfig | None = None,
        telemetry: "Telemetry | TelemetryConfig | None" = None,
        data_dir: "str | Path | None" = None,
        wal_config: WalConfig | None = None,
        shard_ids: "Sequence[int] | None" = None,
        slo_rules: "Iterable[SloRule | str] | None" = None,
        slo_window_s: float = 2 * 3600.0,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = n_shards
        self.telemetry = resolve_telemetry(telemetry)
        self.workload = workload
        self.workload_config = workload_config
        self.data_dir = Path(data_dir) if data_dir is not None else None
        self.wal_config = wal_config
        self.trusts_seq = shard_ids is not None
        #: ``next_seq`` of killed shards, carried over to their restore.
        self._killed_next_seq: dict[int, int] = {}
        self._open(
            config,
            [
                self._runtime(shard_id)
                for shard_id in (
                    shard_ids if shard_ids is not None else range(n_shards)
                )
            ],
            slo_rules,
            slo_window_s,
        )

    def _runtime(self, shard_id: int) -> ShardRuntime:
        """A fresh shard runtime, replaying its WAL if there is one."""
        return ShardRuntime(
            build_engine(
                self.workload,
                self.workload_config,
                self.telemetry,
                shard_id=shard_id,
                n_shards=self.n_shards,
            ),
            shard_id,
            self.n_shards,
            wal_dir=(
                self.data_dir / f"shard-{shard_id:03d}"
                if self.data_dir is not None
                else None
            ),
            wal_config=self.wal_config,
        )

    def applied_seqs(self) -> dict[int, int]:
        """Per-shard highest applied seq (supervisor handshake)."""
        return {
            shard_id: sequencer.runtime.applied_seq
            for shard_id, sequencer in self.sequencers.items()
        }

    # -- crash simulation / restore ------------------------------------

    def kill_shard(self, shard_id: int) -> "list[ShardJob]":
        """Abruptly drop one shard, as a SIGKILL would (tests).

        The runtime and its in-memory state are discarded without any
        flush beyond what the WAL's fsync policy already guaranteed;
        queued jobs are returned so :meth:`restore_shard` can re-send
        them the way the multi-process supervisor re-sends
        unacknowledged operations.
        """
        sequencer = self.sequencers.pop(shard_id)
        if sequencer._task is not None:
            sequencer._task.cancel()
        pending = list(sequencer.jobs)
        sequencer.jobs.clear()
        # Drop the file handle without syncing — exactly what the OS
        # does to a SIGKILLed process's open descriptors.
        runtime = sequencer.runtime
        if runtime.wal is not None:
            runtime.wal.close()
        self._killed_next_seq[shard_id] = sequencer.next_seq
        return pending

    def restore_shard(
        self, shard_id: int, pending: "Iterable[ShardJob]" = ()
    ) -> ShardSequencer:
        """Rebuild a killed shard from its WAL and re-send pending ops.

        Re-sent jobs keep their original seqs: ops the WAL caught
        before the kill are answered from the replayed reply cache,
        the rest execute for the first time — no decision is lost or
        double-applied.
        """
        sequencer = self._sequencer(self._runtime(shard_id))
        killed = self._killed_next_seq.pop(shard_id, None)
        if killed is not None:
            sequencer.next_seq = max(sequencer.next_seq, killed)
        self.sequencers[shard_id] = sequencer
        if self._started:
            sequencer.start()
        for job in sorted(pending, key=lambda job: job.seq):
            sequencer.push(job)
        return sequencer

    # -- firehose path -------------------------------------------------

    def serve_line(self, line: bytes) -> bytes:
        """Route one NDJSON op line synchronously; returns the reply line.

        The wire-inclusive fast path: decode with the fast codec
        (falling back to the strict one for proper error codes), route
        and execute via :meth:`serve_frame`, encode the reply.  The
        capacity benchmark's sharded arm drives this, so its per-op
        cost includes codec work at both boundaries — like the
        capacity arm's TCP clients.
        """
        try:
            frame = decode_request_fast(line, self.config.max_frame_bytes)
        except ProtocolError as exc:
            self.note_protocol_error()
            return encode_frame_fast(
                ErrorReply(id=None, code=exc.code, message=str(exc)),
                self.config.max_frame_bytes,
            )
        reply = self.serve_frame(frame)
        return encode_frame_fast(reply, self.config.max_frame_bytes)

    def serve_lines(self, lines: Iterable[bytes]) -> list[bytes]:
        """Route a batch of NDJSON op lines; one reply line per input.

        Per-element semantics are identical to :meth:`serve_line`; the
        batch form hoists the loop invariants (codec functions, frame
        limit, shard table) and inlines the telemetry-off
        :meth:`ShardSequencer.serve_direct` body, which the per-call
        form pays for on every op.  Anything off the hot path — strict
        decode errors, telemetry on, non-servable frames, unknown
        shards — falls back to the per-call methods so the error codes
        and instrumented series stay byte-identical.
        """
        decode = decode_request_fast
        encode = encode_frame_fast
        limit = self.config.max_frame_bytes
        sequencers = self.sequencers
        n_shards = self.n_shards
        servable = SERVABLE
        trusts_seq = self.trusts_seq
        instrumented = any(
            sequencer.telemetry.enabled
            for sequencer in sequencers.values()
        )
        replies: list[bytes] = []
        append = replies.append
        for line in lines:
            try:
                frame = decode(line, limit)
            except ProtocolError:
                append(self.serve_line(line))
                continue
            if instrumented or type(frame) not in servable:
                append(encode(self.serve_frame(frame), limit))
                continue
            sequencer = sequencers.get(frame.user_id % n_shards)
            if sequencer is None:
                append(encode(self.serve_frame(frame), limit))
                continue
            seq = frame.seq if trusts_seq else None
            if seq is None:
                seq = sequencer.next_seq
                sequencer.next_seq = seq + 1
            sequencer.accepted += 1
            try:
                reply = sequencer.runtime.execute(frame, seq)
            except Exception as exc:  # engine bug: answer, keep going
                append(
                    encode(
                        ErrorReply(
                            id=getattr(frame, "id", None),
                            code="internal",
                            message=f"{type(exc).__name__}: {exc}",
                        ),
                        limit,
                    )
                )
                continue
            sequencer.served += 1
            append(encode(reply, limit))
        return replies

    def serve_frame(self, frame: Frame) -> Frame:
        """Route and execute one state-mutating frame synchronously.

        The zero-queue fast path of the capacity benchmark and the
        WAL-replay driver: same routing, seq stamping, WAL append, and
        engine call as :meth:`submit`, without the event-loop future
        machinery (the caller *is* the sequencer).
        """
        if type(frame) not in SERVABLE:
            return ErrorReply(
                id=getattr(frame, "id", None),
                code="unknown_op",
                message=f"frame {frame.op!r} is not servable",
            )
        sequencer = self.sequencers.get(
            frame.user_id % self.n_shards
        )
        if sequencer is None:
            return ErrorReply(
                id=frame.id,
                code="wrong_shard",
                message=(
                    f"user {frame.user_id} does not hash to a shard "
                    "served by this worker"
                ),
            )
        seq = frame.seq if self.trusts_seq else None
        if seq is None:
            seq = sequencer.allocate_seq()
        return sequencer.serve_direct(frame, seq)
