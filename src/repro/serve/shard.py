"""Sharded serving: a user-id-hashing router over N shard sequencers.

The Section 6.1 strategy reads and writes only the requester's own
session, so user state partitions cleanly: users are assigned to
shards by ``user_id % n_shards``, every shard owns a **shared-nothing**
engine (its own :class:`~repro.engine.session.InMemorySessionStore`
with the ``p<i>.`` pseudonym prefix, its own
:class:`~repro.mod.store.TrajectoryStore`), and :class:`ShardRouter`
forwards each frame to the owning shard's sequencer.  The router *is*
the :class:`~repro.serve.server.TrustedServer` frontend — admission,
tracing, drain, and every op are shared — built from a workload
instead of one prebuilt engine, plus what only a sharded deployment
needs: per-shard write-ahead logs, crash/restore, and a worker's shard
subset.  One shard is the daemon's default shape; with ``--workers``
the frontend is a :class:`~repro.serve.supervisor.WorkerSupervisor`,
whose shards live in worker processes that each run a router.

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

Every frame enters a shard through
:meth:`~repro.serve.server.TrustedServer.admit` and the shard's
sequencer, from any transport; the supervisor→worker hop is an
ordinary client connection over the one wire codec, gated by the
supervisor's per-boot token.
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
from repro.serve.server import (
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
            runtime.shard_id: runtime.applied_seq
            for runtime in self._runtimes()
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
        assert isinstance(sequencer, ShardSequencer)
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
