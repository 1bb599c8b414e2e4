"""Multi-process serving: one frontend over shards in worker processes.

:class:`WorkerSupervisor` is a :class:`~repro.serve.server.TrustedServer`
whose shards are :class:`RemoteShard`\\ s: sessions, admission limits,
tracing, counters and drain are the one frontend's, exactly as over
in-process shards.  Each of ``--workers`` processes runs a
:class:`~repro.serve.shard.ShardRouter` over the shards ``{i : i mod W
== w}``, with WALs under ``data_dir/shard-<i>``.  The supervisor adds
only spawning and respawning workers, the announce handshake, and
seeding each shard's ``next_seq`` from what its WAL applied.

**The crash-safety contract** (the reason this module exists at all):

* the frontend stamps every state-mutating frame with its shard's next
  ``seq`` *before* forwarding; the :class:`RemoteShard` keeps the job
  pending until the worker's reply arrives;
* a worker WAL-appends each op before executing it, so a respawned
  worker replays its log into byte-equivalent state
  (:meth:`ShardRuntime.fingerprint`) and announces, one JSON line on
  stdout, the highest seq per shard it applied::

      {"repro_worker": <w>, "port": <p>, "applied": {"<shard>": <seq>}}

* the supervisor then re-sends everything still pending on that
  worker's shards, in seq order: the replayed reply cache answers what
  the WAL caught, the rest executes for the first time — each decision
  happens exactly once and per-user FIFO holds (``loadgen --verify``
  passes across a mid-pass kill).  ``applied + 1`` seeds the seq
  counters, so a supervisor restart resumes where the logs ended.

**The worker hop.**  A worker executes each frame's ``seq`` as sent
(``trusts_seq``), so only its supervisor may dial it: the supervisor
mints a per-boot :func:`secrets.token_urlsafe` token and writes it as
the first line of each worker's stdin (never argv, which every local
user can read); the worker serves behind a
:class:`~repro.serve.gate.ConnectionGate` admitting only that token.
Worker limits derive from the frontend's so a worker never refuses
what the frontend admitted: ``max_queue_depth`` as given,
``max_inflight`` = ``max_queue_depth`` × its shard count.

**One scrape for the fleet.**  A worker's registry sits behind the
token, so the supervisor answers ``metrics`` for all of them: it pulls
each connected worker's exposition over the hop and merges it with its
own registry (:mod:`repro.obs.aggregate`: counters and histogram
buckets summed, worker gauges labelled ``worker="<index>"``, the
frontend's own unlabelled).  The workers' sequencers count
``serve.served`` and time ``serve.request_ms``, so the frontend does
not, and the merged series mean what they mean in-process.
``traces`` and ``profile`` answer from the frontend alone.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import secrets
import sys
import time
from pathlib import Path
from typing import Any, Sequence

from repro.obs.aggregate import merge_exemplars, merge_samples
from repro.obs.config import Telemetry, TelemetryConfig, resolve_telemetry
from repro.obs.export import (
    Exemplars,
    Samples,
    parse_exposition,
    render_prometheus,
    render_samples,
)
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.protocol import (
    DrainReply,
    ErrorReply,
    Frame,
    MetricsRequest,
    clone_frame,
)
from repro.serve.server import (
    ClientSession,
    ServeConfig,
    ShardJob,
    TrustedServer,
    render_metrics_reply,
)

#: How long to wait for a worker's announcement line before giving up.
ANNOUNCE_TIMEOUT_S = 60.0


def worker_shards(worker: int, workers: int, shards: int) -> list[int]:
    """The shard subset one worker serves."""
    return [i for i in range(shards) if i % workers == worker]


def announce(worker: int, port: int, applied: dict[int, int]) -> str:
    """The one-line stdout handshake a worker prints when ready."""
    return json.dumps(
        {
            "repro_worker": worker,
            "port": port,
            "applied": {str(k): v for k, v in applied.items()},
        },
        separators=(",", ":"),
    )


class RemoteShard:
    """One shard run by a worker process: the frontend's peer of
    :class:`~repro.serve.server.ShardSequencer`.

    The worker owns the shard's queue and dispatcher, so this keeps
    no queue of its own: :meth:`push` forwards an admitted job at once
    and holds it in :attr:`pending` until the first reply for its seq.
    """

    def __init__(
        self, shard_id: int, worker: "_Worker", frontend: "WorkerSupervisor"
    ) -> None:
        self.shard_id = shard_id
        self.worker = worker
        #: The worker's service time is out of sight: hint the floor.
        self.retry_after_s = frontend.config.retry_after_floor_s
        #: Completed traced requests (the frontend's ``traces`` ring).
        self.recent_traces = frontend.recent_traces
        self.labels: dict[str, Any] = (
            {"shard": shard_id} if frontend.n_shards > 1 else {}
        )
        #: Next seq; never below what the worker announced it applied.
        self.next_seq = 0
        #: seq -> forwarded job whose reply has not arrived yet.
        self.pending: dict[int, ShardJob] = {}
        self.accepted = 0
        self.served = 0
        self.shed = 0
        self.rejected = 0

    def allocate_seq(self) -> int:
        seq = self.next_seq
        self.next_seq += 1
        return seq

    @property
    def queue_depth(self) -> int:
        return len(self.pending)

    def start(self) -> None:
        """Nothing to start: the worker runs the dispatcher."""

    async def stop(self) -> None:
        """Nothing to stop: the supervisor stops the worker."""

    async def drain(self) -> None:
        """Wait (up to 30 s) until every pending job has its reply."""
        deadline = time.monotonic() + 30.0
        while self.pending and time.monotonic() < deadline:
            await asyncio.sleep(0.01)

    def push(self, job: ShardJob) -> None:
        self.pending[job.seq] = job
        self.accepted += 1
        if self.worker.client is not None:
            self.forward(job)
        # else: the worker is mid-respawn; resend() picks the job up.

    def resend(self) -> None:
        """Re-forward every pending job, in seq order (per-user FIFO);
        the worker's reply cache answers what its WAL already holds."""
        for seq in sorted(self.pending):
            self.forward(self.pending[seq])

    def forward(self, job: ShardJob) -> None:
        client = self.worker.client
        assert client is not None
        # Client ids collide across sessions: the hop gets its own.
        frame = clone_frame(job.frame, id=client.next_id(), seq=job.seq)
        try:
            future = client.post(frame)
        except ServeClientError:
            return  # stays pending; the respawn resends it
        future.add_done_callback(lambda done: self._on_reply(job, done))

    def _on_reply(
        self, job: ShardJob, future: "asyncio.Future[Frame]"
    ) -> None:
        if future.cancelled() or future.exception() is not None:
            return  # the connection died; the job stays pending
        if self.pending.pop(job.seq, None) is None:
            return  # a resent duplicate: the client was answered
        job.session.inflight -= 1
        reply = future.result()
        frame = job.frame
        if not isinstance(reply, ErrorReply):
            # Counted here for stats and health; the worker's sequencer
            # counts ``serve.served`` and times ``serve.request_ms``.
            self.served += 1
        ctx = job.trace
        if ctx is None:
            job.respond(clone_frame(reply, id=frame.id))
            return
        # The worker's queue is out of sight from here: the frontend's
        # wait is the whole round trip.
        total_ms = (time.perf_counter() - job.enqueued_at) * 1000.0
        self.recent_traces.append(
            (
                ctx.trace_id,
                frame.op,
                getattr(reply, "decision", None),
                total_ms,
                total_ms,
                False,
            )
        )
        job.respond(clone_frame(reply, id=frame.id, trace=frame.trace))


class _Worker:
    """One worker slot: process handle, connection, and its shards."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.shards: list[RemoteShard] = []
        self.process: "asyncio.subprocess.Process | None" = None
        self.client: ServeClient | None = None
        self.port: int | None = None
        self.respawns = 0
        self.ready = asyncio.Event()


class WorkerSupervisor(TrustedServer):
    """The frontend over ``workers`` shard-worker processes (module doc)."""

    def __init__(
        self,
        workers: int,
        shards: int,
        data_dir: "str | Path",
        config: ServeConfig | None = None,
        telemetry: "Telemetry | TelemetryConfig | None" = None,
        worker_args: "Sequence[str]" = (),
        python: str | None = None,
        daemon_path: "str | Path | None" = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if shards < workers:
            raise ValueError(
                f"shards ({shards}) must be >= workers ({workers}); "
                "every worker needs at least one shard"
            )
        self.n_workers = workers
        self.n_shards = shards
        self.data_dir = Path(data_dir)
        self.telemetry = resolve_telemetry(telemetry)
        self.worker_args = list(worker_args)
        self.python = python or sys.executable
        self.daemon_path = Path(
            daemon_path
            if daemon_path is not None
            else Path(__file__).resolve().parents[3]
            / "tools"
            / "serve_daemon.py"
        )
        #: Per-boot credential of the worker hop (module doc).
        self._token = secrets.token_urlsafe(32)
        self._loops: "list[asyncio.Task[None]]" = []
        self.workers = [_Worker(w) for w in range(workers)]
        # No runtime in this process: every shard is a RemoteShard.
        self._open(config, [], slo_rules=None, slo_window_s=0.0)
        for shard in range(shards):
            worker = self.workers[shard % workers]  # worker_shards
            remote = RemoteShard(shard, worker, self)
            worker.shards.append(remote)
            self.sequencers[shard] = remote

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> "WorkerSupervisor":
        """Spawn the workers and wait until each has announced."""
        await super().start()
        if not self._loops:
            self._loops = [
                asyncio.create_task(
                    self._worker_loop(worker),
                    name=f"repro-worker-{worker.index}",
                )
                for worker in self.workers
            ]
            await asyncio.gather(
                *(worker.ready.wait() for worker in self.workers)
            )
        return self

    async def drain(self) -> DrainReply:
        """Wait out every shard's pending window, then drain each worker
        (each emits its own ``serve.drained`` decision tallies)."""
        reply = await super().drain()
        for worker in self.workers:
            if worker.client is not None:
                # A dead worker (ServeClientError is an OSError).
                with contextlib.suppress(OSError):
                    await worker.client.drain()
        return reply

    async def close(self) -> None:
        """Drain, then stop every worker process.  Idempotent."""
        if self._closed:
            return
        await super().close()
        for task in self._loops:
            task.cancel()
        await asyncio.gather(*self._loops, return_exceptions=True)
        for worker in self.workers:
            if worker.client is not None:
                await worker.client.close()
            process = worker.process
            if process is None:
                continue
            if process.returncode is None:
                process.terminate()
            try:
                await asyncio.wait_for(process.wait(), 10.0)
            except asyncio.TimeoutError:
                process.kill()
                await process.wait()

    # -- the fleet's metrics -------------------------------------------

    async def _control(self, session: ClientSession, frame: Frame) -> Frame:
        """Answer ``metrics`` for the whole fleet; every other control
        op (``traces`` and ``profile`` included) as the frontend."""
        if isinstance(frame, MetricsRequest) and self.telemetry.enabled:
            return render_metrics_reply(
                self.telemetry,
                self.config.max_frame_bytes,
                frame,
                body=await self._fleet_exposition(),
            )
        return await super()._control(session, frame)

    async def _fleet_exposition(self) -> str:
        """The frontend's registry merged with every connected worker's.

        Each worker's ``metrics`` body comes over its authenticated
        connection; a worker that is mid-respawn (no connection) or
        whose connection fails is left out of this scrape.  The
        frontend's own samples merge unlabelled, each worker's gauges
        under ``worker="<index>"``.
        """
        scrapes: "dict[str, tuple[Samples, Exemplars]]" = {
            "": parse_exposition(render_prometheus(self.telemetry.metrics))
        }
        for worker in self.workers:
            client = worker.client
            if client is None:
                continue
            try:
                reply = await client.metrics()
            except OSError:  # ServeClientError included
                continue
            scrapes[str(worker.index)] = parse_exposition(reply.body)
        return render_samples(
            merge_samples(
                {name: samples for name, (samples, _) in scrapes.items()}
            ),
            merge_exemplars(
                {name: marks for name, (_, marks) in scrapes.items()}
            ),
        )

    # -- worker process management -------------------------------------

    def _spawn_command(self, worker: _Worker) -> "list[str]":
        limits = self.config
        return [
            self.python,
            str(self.daemon_path),
            "--worker-index",
            str(worker.index),
            "--workers",
            str(self.n_workers),
            "--shards",
            str(self.n_shards),
            "--data-dir",
            str(self.data_dir),
            "--port",
            "0",
            *self.worker_args,
            # Last, so they win: derived from the frontend's limits.
            "--max-queue-depth",
            str(limits.max_queue_depth),
            "--max-inflight",
            str(limits.max_queue_depth * len(worker.shards)),
        ]

    async def _worker_loop(self, worker: _Worker) -> None:
        """Spawn, connect, resend, babysit; respawn on death, forever."""
        while not self._closed:
            process = await asyncio.create_subprocess_exec(
                *self._spawn_command(worker),
                stdin=asyncio.subprocess.PIPE,
                stdout=asyncio.subprocess.PIPE,
                stderr=None,
            )
            worker.process = process
            try:
                assert process.stdin is not None
                assert process.stdout is not None
                process.stdin.write(f"{self._token}\n".encode())
                process.stdin.close()
                line = await asyncio.wait_for(
                    process.stdout.readline(), ANNOUNCE_TIMEOUT_S
                )
                info = json.loads(line)
                worker.port = int(info["port"])
                applied = {
                    int(shard): int(seq)
                    for shard, seq in info.get("applied", {}).items()
                }
                worker.client = await ServeClient.connect(
                    "127.0.0.1",
                    worker.port,
                    client=f"supervisor-w{worker.index}",
                    max_frame_bytes=self.config.max_frame_bytes,
                    token=self._token,
                )
            except (asyncio.TimeoutError, ValueError, KeyError, OSError):
                if process.returncode is None:
                    process.kill()
                await process.wait()
                if self._closed:
                    return
                worker.respawns += 1
                await asyncio.sleep(0.2)
                continue
            for remote in worker.shards:
                # Never reuse a seq any incarnation already applied.
                remote.next_seq = max(
                    remote.next_seq, applied.get(remote.shard_id, -1) + 1
                )
                remote.resend()
            worker.ready.set()
            await process.wait()
            worker.ready.clear()
            if worker.client is not None:
                await worker.client.close()
                worker.client = None
            if self._closed:
                return
            worker.respawns += 1
            self.telemetry.count(
                "serve.worker_respawns", worker=worker.index
            )
            print(
                f"repro-ts worker {worker.index} died "
                f"(respawn #{worker.respawns})",
                file=sys.stderr,
                flush=True,
            )
