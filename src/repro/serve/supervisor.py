"""Multi-process serving: a parent router over N worker daemons.

One worker process per ``--workers`` slot, each running a
:class:`~repro.serve.shard.ShardRouter` restricted to the shard subset
``{i : i mod W == w}`` with per-shard WALs under
``data_dir/shard-<i>``.  The parent :class:`WorkerSupervisor`
duck-types the transport surface of
:class:`~repro.serve.server.TrustedServer`, so clients connect to one
address and never see the fleet behind it.

**The crash-safety contract** (the reason this module exists at all):

* the parent stamps every state-mutating frame with the owning shard's
  next ``seq`` *before* forwarding, and keeps the frame in a per-shard
  pending map until the worker's reply arrives;
* a worker WAL-appends the op before executing it, so after a SIGKILL
  the respawned worker replays its log and rebuilds byte-equivalent
  state (:meth:`ShardRuntime.fingerprint`), announcing the highest seq
  it applied;
* on respawn the parent re-sends everything still pending for that
  worker's shards, in seq order.  Ops the WAL caught before the kill
  are answered from the worker's replayed reply cache; the rest
  execute for the first time.  Either way each decision happens
  exactly once and per-user FIFO order holds — ``loadgen --verify``
  passes across a mid-pass worker kill.

Worker processes announce themselves with one JSON line on stdout::

    {"repro_worker": <w>, "port": <p>, "applied": {"<shard>": <seq>}}

``applied`` seeds the parent's seq counters at ``applied + 1``, which
also makes *parent* restarts safe: the counters resume exactly where
the fleet's logs ended.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from pathlib import Path
from typing import Sequence

from repro.obs.config import Telemetry, TelemetryConfig, resolve_telemetry
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    DrainReply,
    DrainRequest,
    ErrorReply,
    Frame,
    HealthReply,
    HealthRequest,
    Hello,
    LocationUpdate,
    MetricsRequest,
    ProfileRequest,
    ServiceRequest,
    StatsReply,
    StatsRequest,
    TracesReply,
    TracesRequest,
    Welcome,
    clone_frame,
)
from repro.serve.server import (
    ClientSession,
    Respond,
    ServeConfig,
    await_admitted,
    shard_of,
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


class _Pending:
    """One stamped, forwarded, not-yet-acknowledged operation."""

    __slots__ = ("frame", "respond", "client_id")

    def __init__(
        self,
        frame: Frame,
        respond: Respond,
        client_id: int,
    ) -> None:
        #: The forwarded frame — seq stamped, id remapped to a
        #: supervisor-unique value (client ids collide across sessions).
        self.frame = frame
        #: The client's reply callback, called once with the reply.
        self.respond = respond
        #: The id the client sent, restored onto the reply.
        self.client_id = client_id


class _Worker:
    """One worker slot: process handle, connection, and its shards."""

    def __init__(self, index: int, shards: "list[int]") -> None:
        self.index = index
        self.shards = shards
        self.process: "asyncio.subprocess.Process | None" = None
        self.client: ServeClient | None = None
        self.port: int | None = None
        self.respawns = 0
        self.ready = asyncio.Event()


class WorkerSupervisor:
    """Parent frontend over ``workers`` shard-worker processes.

    Duck-types the transport server surface (``config``, ``telemetry``,
    ``open_session``, ``admit``, ``submit`` …), so
    :class:`~repro.serve.transports.TcpTransport`, the HTTP binding and
    ``run_loadgen(server=...)`` drive it unchanged.
    """

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
        self.config = config or ServeConfig()
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
        self.workers = [
            _Worker(w, worker_shards(w, workers, shards))
            for w in range(workers)
        ]
        self._owner = {
            shard: worker
            for worker in self.workers
            for shard in worker.shards
        }
        self.next_seq: dict[int, int] = {
            shard: 0 for shard in range(shards)
        }
        self.pending: "dict[int, dict[int, _Pending]]" = {
            shard: {} for shard in range(shards)
        }
        self._loops: "list[asyncio.Task[None]]" = []
        self._sessions: dict[str, ClientSession] = {}
        self._session_seq = 0
        self._next_out_id = 0
        self._draining = False
        self._closed = False
        self.protocol_errors = 0
        self.started_at = time.monotonic()

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> "WorkerSupervisor":
        if self._closed:
            raise RuntimeError("supervisor is closed")
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

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for task in self._loops:
            task.cancel()
        for task in self._loops:
            try:
                await task
            except asyncio.CancelledError:
                pass
        for worker in self.workers:
            if worker.client is not None:
                try:
                    await worker.client.drain()
                except (ServeClientError, ConnectionError, OSError):
                    pass
                await worker.client.close()
            if worker.process is not None:
                if worker.process.returncode is None:
                    worker.process.terminate()
                try:
                    await asyncio.wait_for(worker.process.wait(), 10.0)
                except asyncio.TimeoutError:
                    worker.process.kill()
                    await worker.process.wait()

    # -- worker process management -------------------------------------

    def _spawn_command(self, worker: _Worker) -> "list[str]":
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
        ]

    async def _worker_loop(self, worker: _Worker) -> None:
        """Spawn, connect, resend, babysit; respawn on death, forever."""
        while not self._closed:
            process = await asyncio.create_subprocess_exec(
                *self._spawn_command(worker),
                stdout=asyncio.subprocess.PIPE,
                stderr=None,
            )
            worker.process = process
            try:
                assert process.stdout is not None
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
                )
            except (
                asyncio.TimeoutError,
                ValueError,
                KeyError,
                OSError,
                ServeClientError,
            ):
                if process.returncode is None:
                    process.kill()
                await process.wait()
                if self._closed:
                    return
                worker.respawns += 1
                await asyncio.sleep(0.2)
                continue
            # The worker's WAL knows what survived; our counters must
            # never go backwards past what any incarnation applied.
            for shard, seq in applied.items():
                if shard in self.next_seq:
                    self.next_seq[shard] = max(
                        self.next_seq[shard], seq + 1
                    )
            self._resend_pending(worker)
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

    def _resend_pending(self, worker: _Worker) -> None:
        """Re-forward every unacknowledged op of this worker's shards.

        Seq order per shard preserves per-user FIFO (the router
        admitted them in order); the worker's reply cache answers the
        prefix its WAL already holds.
        """
        assert worker.client is not None
        for shard in worker.shards:
            for seq in sorted(self.pending[shard]):
                self._forward(worker, shard, self.pending[shard][seq])

    def _forward(
        self, worker: _Worker, shard: int, entry: _Pending
    ) -> None:
        assert worker.client is not None
        try:
            future = worker.client.post(entry.frame)
        except ServeClientError:
            return  # stays pending; the respawn loop will resend
        seq = entry.frame.seq  # type: ignore[attr-defined]
        future.add_done_callback(
            lambda fut, shard=shard, seq=seq, entry=entry: (
                self._on_reply(shard, seq, entry, fut)
            )
        )

    def _on_reply(
        self,
        shard: int,
        seq: int,
        entry: _Pending,
        future: "asyncio.Future[Frame]",
    ) -> None:
        if future.cancelled() or future.exception() is not None:
            return  # connection died; the op stays pending for resend
        if self.pending[shard].pop(seq, None) is None:
            return  # a resent duplicate: the client was answered
        entry.respond(clone_frame(future.result(), id=entry.client_id))

    # -- session surface -----------------------------------------------

    def open_session(self, client: str = "client") -> ClientSession:
        self._session_seq += 1
        session = ClientSession(f"s{self._session_seq}", client)
        self._sessions[session.session_id] = session
        self.telemetry.gauge("serve.connections", len(self._sessions))
        return session

    def close_session(self, session: ClientSession) -> None:
        self._sessions.pop(session.session_id, None)
        self.telemetry.gauge("serve.connections", len(self._sessions))

    def welcome(self, session: ClientSession, hello: Hello) -> Frame:
        if hello.version != PROTOCOL_VERSION:
            return ErrorReply(
                id=None,
                code="bad_version",
                message=(
                    f"protocol version {hello.version} not supported; "
                    f"server speaks {PROTOCOL_VERSION}"
                ),
            )
        session.client = hello.client
        return Welcome(
            version=PROTOCOL_VERSION,
            server=f"{self.config.server_name}-supervisor",
            session=session.session_id,
            max_inflight=self.config.max_inflight,
            max_queue_depth=self.config.max_queue_depth,
            trace=False,
        )

    def note_protocol_error(self) -> None:
        self.protocol_errors += 1
        self.telemetry.count("serve.protocol_errors")

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def queue_depth(self) -> int:
        return sum(len(entries) for entries in self.pending.values())

    # -- op surface ----------------------------------------------------

    async def submit(self, session: ClientSession, frame: Frame) -> Frame:
        """Serve one frame of any op (see :meth:`TrustedServer.submit`)."""
        if isinstance(frame, (LocationUpdate, ServiceRequest)):
            return await await_admitted(self.admit, session, frame)
        if isinstance(frame, Hello):
            return self.welcome(session, frame)
        if isinstance(frame, StatsRequest):
            return await self._stats(frame)
        if isinstance(frame, HealthRequest):
            return await self._health(frame)
        if isinstance(frame, DrainRequest):
            return await self._drain(frame)
        if isinstance(frame, (MetricsRequest, ProfileRequest)):
            # Per-worker observability lives on the workers' own ports
            # (the fleet scraper hits them directly); the supervisor
            # proxies to its first worker as a convenience.
            worker = self.workers[0]
            if worker.client is None:
                return ErrorReply(
                    id=frame.id,
                    code="unavailable",
                    message="no worker connected",
                )
            out_id = self._allocate_out_id()
            reply = await worker.client.post(
                clone_frame(frame, id=out_id)
            )
            return clone_frame(reply, id=frame.id)
        if isinstance(frame, TracesRequest):
            return TracesReply(id=frame.id, body="[]")
        self.note_protocol_error()
        return ErrorReply(
            id=getattr(frame, "id", None),
            code="unknown_op",
            message=f"frame {frame.op!r} is not servable",
        )

    def admit(
        self,
        session: ClientSession,
        frame: "LocationUpdate | ServiceRequest",
        respond: Respond,
    ) -> None:
        """Stamp and forward one servable frame without awaiting.

        The contract of :meth:`TrustedServer.admit`: ``respond`` gets a
        refusal at once, or the reply when the owning worker answers —
        after a worker crash, when its respawn answers the resend.
        """
        if self._draining or self._closed:
            respond(
                ErrorReply(
                    id=frame.id,
                    code="draining",
                    message="server is draining; no new work admitted",
                )
            )
            return
        shard = shard_of(frame.user_id, self.n_shards)
        worker = self._owner[shard]
        if self.queue_depth >= self.config.max_queue_depth:
            self.telemetry.count(
                "serve.shed", reason="queue", shard=shard
            )
            respond(
                ErrorReply(
                    id=frame.id,
                    code="overloaded",
                    message="supervisor pending window is full",
                    retry_after=self.config.retry_after_floor_s,
                )
            )
            return
        seq = self.next_seq[shard]
        self.next_seq[shard] = seq + 1
        out_id = self._allocate_out_id()
        stamped = clone_frame(frame, id=out_id, seq=seq)
        entry = _Pending(stamped, respond, frame.id)
        self.pending[shard][seq] = entry
        if worker.client is not None:
            self._forward(worker, shard, entry)
        # else: the worker is mid-respawn; _resend_pending picks it up.

    def _allocate_out_id(self) -> int:
        self._next_out_id += 1
        return self._next_out_id

    async def _stats(self, frame: StatsRequest) -> Frame:
        totals = dict.fromkeys(
            ("accepted", "served", "shed", "rejected",
             "protocol_errors", "queue_depth"), 0,
        )
        for worker in self.workers:
            if worker.client is None:
                continue
            try:
                stats = await worker.client.stats()
            except (ServeClientError, ConnectionError, OSError):
                continue
            for key in totals:
                totals[key] += getattr(stats, key)
        return StatsReply(
            id=frame.id,
            accepted=totals["accepted"],
            served=totals["served"],
            shed=totals["shed"],
            rejected=totals["rejected"],
            protocol_errors=totals["protocol_errors"]
            + self.protocol_errors,
            queue_depth=totals["queue_depth"] + self.queue_depth,
            sessions=len(self._sessions),
        )

    async def _health(self, frame: HealthRequest) -> Frame:
        served = shed = 0
        degraded = False
        for worker in self.workers:
            if worker.client is None:
                degraded = True
                continue
            try:
                health = await worker.client.health()
            except (ServeClientError, ConnectionError, OSError):
                degraded = True
                continue
            served += health.served
            shed += health.shed
            degraded = degraded or health.status == "degraded"
        status = (
            "draining"
            if self._draining or self._closed
            else ("degraded" if degraded else "ok")
        )
        return HealthReply(
            id=frame.id,
            status=status,
            uptime_s=time.monotonic() - self.started_at,
            queue_depth=self.queue_depth,
            sessions=len(self._sessions),
            served=served,
            shed=shed,
            slo_ok=not degraded,
            breaches=0,
        )

    async def _drain(self, frame: DrainRequest) -> Frame:
        self._draining = True
        # Wait for our own pending window first: a worker drain while
        # forwarded ops are still in flight would count them rejected.
        deadline = time.monotonic() + 30.0
        while self.queue_depth and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        served = shed = rejected = pending = 0
        for worker in self.workers:
            if worker.client is None:
                continue
            try:
                drained = await worker.client.drain()
            except (ServeClientError, ConnectionError, OSError):
                continue
            served += drained.served
            shed += drained.shed
            rejected += drained.rejected
            pending += drained.pending
        return DrainReply(
            id=frame.id,
            served=served,
            shed=shed,
            rejected=rejected,
            pending=pending + self.queue_depth,
        )
