"""The online Trusted Server: one sequencer per shard, one frontend.

:class:`TrustedServer` turns the staged
:class:`~repro.engine.pipeline.Engine` into a long-running concurrent
service.  Users are partitioned over shards by ``user_id % n_shards``
(:func:`shard_of`); each shard is a :class:`ShardRuntime` (its engine
plus durability) drained by one :class:`ShardSequencer` — a bounded
FIFO and a single dispatcher task — so an engine, which is
deliberately synchronous and per-user-ordered, never sees concurrent
mutation, and the served decision stream stays equivalent to an
offline :meth:`~repro.engine.pipeline.Engine.process_batch` replay of
the same per-user-ordered workload (``tests/serve/test_determinism.py``).
``TrustedServer(engine)`` serves one prebuilt engine as the only
shard; :class:`~repro.serve.shard.ShardRouter` builds N shard engines
from a workload.  Both share every line of admission, dispatch,
tracing, and drain below.

Admission (:meth:`TrustedServer.admit`) is synchronous: a servable op
is either refused on the spot or queued on its shard together with a
reply callback, which the shard's dispatcher calls the moment that op
executes — so in a burst, each reply leaves as soon as its own op is
done rather than after the whole burst.  The TCP and HTTP transports
call ``admit`` directly and spend no task or future per op;
:meth:`TrustedServer.submit` wraps it in a future for callers that
await one reply (loopback, control ops, ``run_loadgen(server=...)``).

Admission control happens *before* a shard's queue:

* a session with ``max_inflight`` operations outstanding is shed
  (``overloaded`` / reason ``inflight``) — one client cannot occupy the
  whole queue;
* a full queue sheds with reason ``queue`` and a ``retry_after`` hint
  derived from the queue depth times an EMA of recent service time —
  overload degrades into explicit backpressure, never into unbounded
  memory or timeouts;
* a draining server rejects new work with ``draining`` (not a shed:
  the client should reconnect elsewhere, not retry here).

Graceful drain (:meth:`TrustedServer.drain`): stop admitting, let every
dispatcher flush its queue, then emit the final ``serve.drained`` audit
event carrying the serving totals and the engines' decision tallies.

Observability rides the engine's own telemetry pipeline: queue-depth /
connection gauges, ``serve.request_ms`` / ``serve.queue_wait_ms``
histograms, ``serve.shed`` counters (labelled by ``shard`` when there
is more than one), and — for sessions that negotiated tracing —
``serve.admission`` / ``serve.queue_wait`` / ``serve.dispatch`` spans
plus the ``traces`` op's ring of recent requests.  Every decision
still flows through the ``ts.decision`` event channel, so a
:class:`~repro.obs.slo.PrivacyMonitor` attached via ``slo_rules`` (one
shard only: it audits one store) watches the online server exactly as
it watches offline replays.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Protocol

from repro.engine.pipeline import Engine
from repro.geometry.point import STPoint
from repro.obs.config import Telemetry
from repro.obs.export import render_prometheus
from repro.obs.slo import PrivacyMonitor, SloRule
from repro.obs.tracing import TraceContext
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    DecisionReply,
    DrainReply,
    DrainRequest,
    ErrorReply,
    Frame,
    HealthReply,
    HealthRequest,
    Hello,
    LocationUpdate,
    MetricsReply,
    MetricsRequest,
    ProfileReply,
    ProfileRequest,
    ServiceRequest,
    StatsReply,
    StatsRequest,
    TracesReply,
    TracesRequest,
    UpdateAck,
    Welcome,
    clip_echo,
    clone_frame,
)
from repro.serve.wal import (
    ShardWal,
    WalConfig,
    frame_of_record,
    op_record,
)

#: The state-mutating frame types the data plane serves.
_SERVABLE = (LocationUpdate, ServiceRequest)


@dataclass(frozen=True)
class ServeConfig:
    """Admission-control and framing limits of one server."""

    #: Bound of each shard's dispatch queue; beyond it requests are shed.
    max_queue_depth: int = 1024
    #: Per-session cap on queued-but-unanswered operations.
    max_inflight: int = 64
    #: Per-frame wire size limit (bytes, including the newline).
    max_frame_bytes: int = MAX_FRAME_BYTES
    #: Lower bound of the ``retry_after`` backoff hint (seconds).
    retry_after_floor_s: float = 0.01
    #: Advertised in the Welcome frame.
    server_name: str = "repro-ts"

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )


def render_metrics_reply(
    telemetry: Telemetry, max_frame_bytes: int, frame: MetricsRequest
) -> Frame:
    """The ``metrics`` op: the registry as Prometheus text."""
    if frame.format != "prometheus":
        return ErrorReply(
            id=frame.id,
            code="bad_field",
            message=(
                f"unknown metrics format {clip_echo(frame.format)!r}; "
                "this server speaks 'prometheus'"
            ),
        )
    if not telemetry.enabled:
        return ErrorReply(
            id=frame.id,
            code="no_telemetry",
            message="telemetry is disabled on this server",
        )
    body = render_prometheus(telemetry.metrics)
    # The exposition must fit one frame; refuse rather than hand
    # the transport an encode-time frame_too_large surprise.
    if len(body.encode("utf-8")) > max_frame_bytes - 256:
        return ErrorReply(
            id=frame.id,
            code="frame_too_large",
            message=(
                "metrics exposition exceeds the frame size limit; "
                "raise max_frame_bytes"
            ),
        )
    return MetricsReply(id=frame.id, format="prometheus", body=body)


def _fit_body(lines: "list[str]", max_frame_bytes: int) -> str:
    """Join lines into one reply body that fits the frame budget.

    Collapsed stacks come hottest-first, so halving the line list
    until the body fits keeps the most significant stacks.
    """
    budget = max(0, max_frame_bytes - 512)
    body = "\n".join(lines)
    while lines and len(body.encode("utf-8")) > budget:
        lines = lines[: len(lines) // 2]
        body = "\n".join(lines)
    return body


def render_profile_reply(
    telemetry: Telemetry, max_frame_bytes: int, frame: ProfileRequest
) -> Frame:
    """The ``profile`` op: drive or read the sampling profiler."""
    if not telemetry.enabled:
        return ErrorReply(
            id=frame.id,
            code="no_telemetry",
            message="telemetry is disabled on this server",
        )
    profiler = telemetry.profiler
    if frame.action == "start":
        if frame.interval_ms <= 0:
            return ErrorReply(
                id=frame.id,
                code="bad_field",
                message=(
                    "interval_ms must be positive, got "
                    f"{frame.interval_ms}"
                ),
            )
        try:
            telemetry.start_profiler(
                interval_s=frame.interval_ms / 1000.0
            )
        except RuntimeError as exc:
            return ErrorReply(
                id=frame.id,
                code="profiler_state",
                message=str(exc),
            )
        return ProfileReply(
            id=frame.id, state="running", samples=0, duration_s=0.0
        )
    if frame.action == "stop":
        if profiler is None or not profiler.running:
            return ErrorReply(
                id=frame.id,
                code="profiler_state",
                message="no profiler is running",
            )
        report = telemetry.stop_profiler()
        assert report is not None
        return ProfileReply(
            id=frame.id,
            state="stopped",
            samples=report.samples,
            duration_s=report.duration_s,
        )
    if frame.action == "status":
        if profiler is None:
            state, samples, duration_s = "idle", 0, 0.0
        else:
            state = "running" if profiler.running else "stopped"
            samples, duration_s = (
                profiler.sample_count, profiler.duration_s
            )
        return ProfileReply(
            id=frame.id,
            state=state,
            samples=samples,
            duration_s=duration_s,
        )
    if frame.action in ("collapsed", "stages"):
        if profiler is None:
            return ErrorReply(
                id=frame.id,
                code="profiler_state",
                message="no capture exists; start the profiler first",
            )
        report = profiler.report()
        state = "running" if profiler.running else "stopped"
        if frame.action == "collapsed":
            body = _fit_body(
                report.collapsed_lines(limit=max(0, frame.limit)),
                max_frame_bytes,
            )
        else:
            payload = report.to_dict()
            # The stages body carries the table, not the stacks —
            # fetch those via the ``collapsed`` action.
            del payload["stacks"]
            payload["traces"] = payload["traces"][
                : max(0, frame.limit)
            ]
            body = json.dumps(payload, separators=(",", ":"))
            if len(body.encode("utf-8")) > max_frame_bytes - 512:
                payload["traces"] = []
                body = json.dumps(payload, separators=(",", ":"))
        return ProfileReply(
            id=frame.id,
            state=state,
            samples=report.samples,
            duration_s=report.duration_s,
            body=body,
        )
    return ErrorReply(
        id=frame.id,
        code="bad_field",
        message=(
            f"unknown profile action {clip_echo(frame.action)!r}; expected "
            "start|stop|status|collapsed|stages"
        ),
    )


class ClientSession:
    """Per-connection serving state (the pseudonymous client identity).

    The wire never authenticates users — like the paper's TS, the
    frontend is inside the trust boundary — but each connection gets an
    opaque ``session_id`` used in telemetry and limits, never the
    client-supplied name.
    """

    __slots__ = (
        "session_id", "client", "inflight", "accepted", "shed", "trace",
    )

    def __init__(self, session_id: str, client: str) -> None:
        self.session_id = session_id
        self.client = client
        #: Operations admitted but not yet answered.
        self.inflight = 0
        self.accepted = 0
        self.shed = 0
        #: Whether trace propagation was negotiated in hello/welcome.
        self.trace = False


def shard_of(user_id: int, n_shards: int) -> int:
    """The shard owning a user: ``user_id % n_shards``."""
    return user_id % n_shards


class ShardRuntime:
    """One shard's engine, durability, and replay logic.

    With ``wal_dir`` set, owns a :class:`~repro.serve.wal.ShardWal`
    command log, written *before* each op executes, plus an LRU reply
    cache keyed by the router-assigned ``seq``, so re-sent operations
    after a crash are answered without re-executing.  Without a WAL a
    restart loses all state anyway, so nothing is cached.  ``engine``
    comes from :func:`repro.serve.loadgen.build_engine`; with
    ``wal_dir`` set, the log found there is replayed into it before
    the writer opens.
    """

    def __init__(
        self,
        engine: Engine,
        shard_id: int = 0,
        n_shards: int = 1,
        wal_dir: "str | Path | None" = None,
        wal_config: WalConfig | None = None,
        reply_cache_size: int = 1024,
    ) -> None:
        if not 0 <= shard_id < n_shards:
            raise ValueError(
                f"shard_id {shard_id} out of range for "
                f"{n_shards} shards"
            )
        self.engine = engine
        self.shard_id = shard_id
        self.n_shards = n_shards
        self.owned_users = [
            user_id
            for user_id in sorted(engine.store.user_ids())
            if shard_of(user_id, n_shards) == shard_id
        ]
        #: Highest seq applied to the engine; -1 before any op.
        self.applied_seq = -1
        #: LRU of ``seq -> reply`` for crash-resend deduplication.
        self.replies: "OrderedDict[int, Frame]" = OrderedDict()
        self.reply_cache_size = reply_cache_size
        self.replayed = 0
        self.wal: ShardWal | None = None
        if wal_dir is not None:
            wal_dir = Path(wal_dir)
            # Replay precedes the writer: ShardWal seals the previous
            # incarnation's live segment on open, and recovery must
            # read that data as it was left.
            for record in ShardWal.recover(wal_dir):
                self._replay(record)
            self.wal = ShardWal(wal_dir, wal_config)

    # -- op execution --------------------------------------------------

    def execute(self, frame: Frame, seq: int | None = None) -> Frame:
        """Apply one state-mutating frame, WAL-first, seq-deduplicated.

        ``seq`` (or ``frame.seq``) must be the router-assigned shard
        sequence number; a frame without one gets the next local seq
        (direct single-process use).  Re-sent seqs at or below
        ``applied_seq`` answer from the reply cache — the
        crash-recovery idempotence contract (without a WAL there is no
        cache, and a re-sent request answers ``stale_seq``).  Passing
        ``seq`` explicitly spares the serving paths a frame clone per
        op (:func:`~repro.serve.wal.op_record` stamps the WAL record
        from the argument, never from the frame).
        """
        if seq is None:
            seq = frame.seq
        if seq is None:
            seq = self.applied_seq + 1
        elif seq <= self.applied_seq:
            # An update's reply carries no state (it is always
            # ``UpdateAck(id)``), so duplicates are re-acked without a
            # cache lookup — the cache holds only decision replies.
            if type(frame) is LocationUpdate:
                return UpdateAck(id=frame.id)
            cached = self.replies.get(seq)
            if cached is not None:
                return clone_frame(cached, id=frame.id)
            return ErrorReply(
                id=frame.id,
                code="stale_seq",
                message=(
                    f"seq {seq} was applied but its reply has aged "
                    "out of the cache"
                ),
            )
        if self.wal is not None:
            self.wal.append(op_record(frame, seq))
        reply = execute_op(self.engine, frame)
        self.applied_seq = seq
        if self.wal is not None:
            self._cache_reply(seq, reply)
        return reply

    def _replay(self, record: dict) -> None:
        """Re-apply one recovered WAL record (no logging, no router)."""
        frame = frame_of_record(record)
        reply = execute_op(self.engine, frame)
        self.applied_seq = record["s"]
        self._cache_reply(record["s"], reply)
        self.replayed += 1

    def _cache_reply(self, seq: int, reply: Frame) -> None:
        if type(reply) is UpdateAck:  # re-synthesized on duplicates
            return
        self.replies[seq] = reply
        if len(self.replies) > self.reply_cache_size:
            self.replies.popitem(last=False)

    def sync(self) -> None:
        """Force the WAL to disk (drain/shutdown path)."""
        if self.wal is not None:
            self.wal.sync()

    def close(self) -> None:
        if self.wal is not None:
            self.wal.close()

    # -- byte-equivalence ----------------------------------------------

    def fingerprint(self) -> str:
        """Deterministic digest of all mutable shard state.

        Covers sessions (quiet deadlines, per-LBQID monitor partials /
        observations / anonymity-set caches / step counts), the full
        pseudonym issue history, every trajectory column, and
        ``applied_seq``.  Two runtimes that applied the same op
        sequence — live, or via WAL replay — hash identically; that is
        the "reconstructs state byte-equivalently" acceptance bar.
        """
        digest = hashlib.sha256()

        def feed(obj: object) -> None:
            digest.update(
                json.dumps(
                    obj, separators=(",", ":"), default=repr
                ).encode("utf-8")
            )

        feed(["applied_seq", self.applied_seq])
        sessions = self.engine.sessions
        for user_id in self.owned_users:
            session = sessions.get(user_id)
            if session is None:
                continue
            feed([user_id, session.quiet_until])
            for state in session.lbqids:
                monitor = state.monitor
                feed(
                    [
                        state.steps,
                        state.anonymity_ids,
                        monitor.matched,
                        monitor.observations,
                        [
                            [
                                p.next_index,
                                p.timestamps,
                                p.granule,
                                p.dead,
                                sorted(p.payload.items()),
                            ]
                            for p in monitor.partials
                        ],
                    ]
                )
            feed(sessions.pseudonyms_of(user_id))
        for user_id in sorted(self.engine.store.user_ids()):
            feed(
                [
                    user_id,
                    [
                        (p.x, p.y, p.t)
                        for p in self.engine.store.history(user_id)
                    ],
                ]
            )
        return digest.hexdigest()


#: Where a reply goes: called once, on the event loop, with the reply.
Respond = Callable[[Frame], None]


class ShardJob:
    """One admitted operation queued for a shard sequencer."""

    __slots__ = (
        "session", "frame", "seq", "respond", "enqueued_at", "trace",
    )

    def __init__(
        self,
        session: ClientSession,
        frame: Frame,
        seq: int,
        respond: Respond,
        trace: TraceContext | None = None,
    ) -> None:
        self.session = session
        self.frame = frame
        #: The shard sequence number the op executes (and logs) under.
        self.seq = seq
        #: Called with the reply right after the op executes.
        self.respond = respond
        self.enqueued_at = time.perf_counter()
        #: Wire trace context of a traced request (else None); the
        #: dispatcher emits the queue-wait span from ``enqueued_at``.
        self.trace = trace


class Shard(Protocol):
    """What the frontend drives of one shard: a :class:`ShardSequencer`
    here, or a :class:`~repro.serve.supervisor.RemoteShard` forwarding
    to the worker process that runs it."""

    labels: "dict[str, Any]"
    accepted: int
    served: int
    shed: int
    rejected: int

    @property
    def queue_depth(self) -> int: ...
    @property
    def retry_after_s(self) -> float: ...
    def allocate_seq(self) -> int: ...
    def push(self, job: ShardJob) -> None: ...
    def start(self) -> None: ...
    async def stop(self) -> None: ...
    async def drain(self) -> None: ...


class ShardSequencer:
    """Bounded queue + dispatcher of one shard (one per shard)."""

    #: Jobs executed per dispatcher wakeup before yielding the loop —
    #: batch draining amortizes task wakeups across queued ops.
    BATCH = 64

    def __init__(
        self,
        runtime: ShardRuntime,
        config: ServeConfig,
        telemetry: Telemetry,
        recent_traces: "deque[dict]",
    ) -> None:
        self.runtime = runtime
        self.shard_id = runtime.shard_id
        self.config = config
        self.telemetry = telemetry
        #: Metric labels; a one-shard server has no shard dimension.
        self.labels: dict[str, Any] = (
            {"shard": runtime.shard_id} if runtime.n_shards > 1 else {}
        )
        #: Completed traced requests (the frontend's ``traces`` ring).
        self.recent_traces = recent_traces
        self.jobs: "deque[ShardJob]" = deque()
        self._wake = asyncio.Event()
        self._task: "asyncio.Task[None] | None" = None
        #: Next router-assigned sequence number for this shard.
        self.next_seq = runtime.applied_seq + 1
        #: EMA of recent service time, seeding the retry_after hint.
        self._ema_service_s = 0.001
        self.accepted = 0
        self.served = 0
        self.shed = 0
        self.rejected = 0

    # -- seq allocation ------------------------------------------------

    def allocate_seq(self) -> int:
        seq = self.next_seq
        self.next_seq += 1
        return seq

    @property
    def queue_depth(self) -> int:
        return len(self.jobs)

    @property
    def retry_after_s(self) -> float:
        return max(
            self.config.retry_after_floor_s,
            len(self.jobs) * self._ema_service_s,
        )

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.create_task(
                self._dispatch_loop(),
                name=f"repro-shard-{self.shard_id}",
            )

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    async def drain(self) -> None:
        """Wait until every queued job has been executed."""
        while self.jobs:
            self._wake.set()
            await asyncio.sleep(0)
        self.runtime.sync()

    # -- dispatch ------------------------------------------------------

    def push(self, job: ShardJob) -> None:
        self.jobs.append(job)
        self.accepted += 1
        self._wake.set()

    async def _dispatch_loop(self) -> None:
        jobs = self.jobs
        while True:
            await self._wake.wait()
            self._wake.clear()
            while jobs:
                for _ in range(min(self.BATCH, len(jobs))):
                    job = jobs.popleft()
                    reply = self._execute_job(job)
                    job.session.inflight -= 1
                    # Each reply leaves before the next op executes,
                    # not after the whole batch.
                    job.respond(reply)
                self.telemetry.gauge(
                    "serve.queue_depth", len(jobs), **self.labels
                )
                if jobs:
                    # One batch per loop-slice: other shards'
                    # dispatchers and the transports get the loop
                    # between batches (an empty queue yields in wait).
                    await asyncio.sleep(0)

    def _execute_job(self, job: ShardJob) -> Frame:
        start = time.perf_counter()
        frame = job.frame
        ctx = job.trace
        try:
            if ctx is None:
                reply = self.runtime.execute(frame, job.seq)
            else:
                reply = self._execute_traced(job, start)
        except Exception as exc:  # engine bug: answer, keep serving
            return ErrorReply(
                id=getattr(frame, "id", None),
                code="internal",
                message=f"{type(exc).__name__}: {exc}",
            )
        self.served += 1
        done = time.perf_counter()
        service_s = done - start
        self._ema_service_s += 0.05 * (service_s - self._ema_service_s)
        wait_ms = (start - job.enqueued_at) * 1000.0
        total_ms = (done - job.enqueued_at) * 1000.0
        trace_id = ctx.trace_id if ctx is not None else None
        telemetry = self.telemetry
        if telemetry.enabled:
            kind = "request" if type(frame) is ServiceRequest else "update"
            telemetry.count("serve.served", kind=kind, **self.labels)
            telemetry.observe(
                "serve.queue_wait_ms", wait_ms, trace_id, **self.labels
            )
            telemetry.observe(
                "serve.request_ms", total_ms, trace_id, **self.labels
            )
        if ctx is None:
            return reply
        self.recent_traces.append(
            {
                "trace_id": trace_id,
                "op": frame.op,
                "decision": getattr(reply, "decision", None),
                "queue_ms": wait_ms,
                "total_ms": total_ms,
                "shed": False,
            }
        )
        return clone_frame(reply, trace=ctx.to_wire())

    def _execute_traced(self, job: ShardJob, start: float) -> Frame:
        """Run a traced job under its wire context (see module doc)."""
        telemetry = self.telemetry
        ctx = job.trace
        assert ctx is not None
        frame = job.frame
        if not telemetry.tracer.sinks:
            # No sink: span records are undeliverable — activate the
            # identity only, so exemplars, ts.decision events, and the
            # introspection ring still see the trace.
            token = telemetry.tracer.activate(ctx)
            try:
                return self.runtime.execute(frame, job.seq)
            finally:
                telemetry.tracer.deactivate(token)
        telemetry.emit_span(
            "serve.queue_wait",
            job.enqueued_at,
            start,
            ctx,
            op=frame.op,
            wait_ms=(start - job.enqueued_at) * 1000.0,
        )
        # Activated (not detached) so the engine's ts.request / stage
        # spans parent under it via the contextvar chain.
        with telemetry.span(
            "serve.dispatch", parent=ctx, op=frame.op
        ) as dispatch:
            reply = self.runtime.execute(frame, job.seq)
            decision = getattr(reply, "decision", None)
            if decision is not None:
                dispatch.annotate(decision=decision)
        return reply


class TrustedServer:
    """The serving frontend over one or more shard sequencers.

    ``TrustedServer(engine)`` serves one prebuilt engine as the only
    shard; :class:`~repro.serve.shard.ShardRouter` builds its shards
    from a workload.  Every transport (TCP, HTTP, loopback) drives
    either through one :class:`~repro.serve.transports.FrameConnection`
    per connection, which calls
    ``open_session``/``welcome``/``admit``/``submit``/``close_session``.
    """

    #: Whether a frame's own ``seq`` is executed as sent.  Only a
    #: worker behind a supervisor, which stamps every forwarded op,
    #: trusts it; a public frontend allocates every seq itself, so a
    #: client cannot replay another user's cached reply or push a
    #: shard's ``applied_seq`` past its allocator.
    trusts_seq = False

    def __init__(
        self,
        engine: Engine,
        config: ServeConfig | None = None,
        slo_rules: "Iterable[SloRule | str] | None" = None,
        slo_window_s: float = 2 * 3600.0,
    ) -> None:
        self.engine = engine
        self.telemetry = engine.telemetry
        self.n_shards = 1
        self._open(config, [ShardRuntime(engine)], slo_rules, slo_window_s)

    def _open(
        self,
        config: ServeConfig | None,
        runtimes: "list[ShardRuntime]",
        slo_rules: "Iterable[SloRule | str] | None",
        slo_window_s: float,
    ) -> None:
        """Shared construction (``telemetry``/``n_shards`` already set)."""
        self.config = config or ServeConfig()
        #: Ring of recently completed traced requests (``traces`` op).
        self.recent_traces: deque[dict] = deque(maxlen=64)
        self.sequencers: dict[int, Shard] = {
            runtime.shard_id: self._sequencer(runtime)
            for runtime in runtimes
        }
        self._sessions: dict[str, ClientSession] = {}
        self._session_seq = 0
        self._draining = False
        self._closed = False
        self._started = False
        self.protocol_errors = 0
        #: Monotonic start time, for the ``health`` op's uptime.
        self.started_at = time.monotonic()
        self.privacy_monitor: PrivacyMonitor | None = None
        if slo_rules is not None:
            if self.n_shards != 1:
                raise ValueError(
                    "slo_rules need a one-shard server: the privacy "
                    "monitor audits a single trajectory store"
                )
            if not self.telemetry.enabled:
                raise ValueError(
                    "slo_rules require enabled telemetry; build the "
                    "engine with telemetry=TelemetryConfig(enabled=True)"
                )
            self.privacy_monitor = PrivacyMonitor(
                store=runtimes[0].engine.store,
                rules=slo_rules,
                window_s=slo_window_s,
            ).attach(self.telemetry)

    def _sequencer(self, runtime: ShardRuntime) -> ShardSequencer:
        return ShardSequencer(
            runtime, self.config, self.telemetry, self.recent_traces
        )

    def _runtimes(self) -> "list[ShardRuntime]":
        """The shard runtimes in this process (a supervisor has none)."""
        return [
            sequencer.runtime
            for sequencer in self.sequencers.values()
            if isinstance(sequencer, ShardSequencer)
        ]

    # -- aggregate counters --------------------------------------------

    @property
    def accepted(self) -> int:
        return sum(s.accepted for s in self.sequencers.values())

    @property
    def served(self) -> int:
        return sum(s.served for s in self.sequencers.values())

    @property
    def shed_total(self) -> int:
        return sum(s.shed for s in self.sequencers.values())

    @property
    def rejected(self) -> int:
        return sum(s.rejected for s in self.sequencers.values())

    @property
    def queue_depth(self) -> int:
        return sum(s.queue_depth for s in self.sequencers.values())

    @property
    def draining(self) -> bool:
        return self._draining

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> "TrustedServer":
        """Spawn the dispatchers; idempotent."""
        if self._closed:
            raise RuntimeError("server is closed")
        for sequencer in self.sequencers.values():
            sequencer.start()
        self._started = True
        return self

    async def drain(self) -> DrainReply:
        """Stop admitting, flush every queue, emit the final audit."""
        first = not self._draining
        self._draining = True
        for sequencer in self.sequencers.values():
            await sequencer.drain()
        reply = DrainReply(
            id=0,
            served=self.served,
            shed=self.shed_total,
            rejected=self.rejected,
            pending=self.queue_depth,
        )
        if first:
            if self.privacy_monitor is not None:
                self.privacy_monitor.evaluate()
            if self.telemetry.enabled:
                # Remote shards' tallies ride their workers' own
                # ``serve.drained`` events.
                decisions: dict[str, int] = {}
                for runtime in self._runtimes():
                    counts = runtime.engine.decision_counts()
                    for decision, count in counts.items():
                        if count:
                            decisions[decision.value] = (
                                decisions.get(decision.value, 0) + count
                            )
                self.telemetry.event(
                    "serve.drained",
                    served=self.served,
                    shed=self.shed_total,
                    rejected=self.rejected,
                    protocol_errors=self.protocol_errors,
                    decisions=decisions,
                    shards={
                        str(shard_id): sequencer.served
                        for shard_id, sequencer in self.sequencers.items()
                    },
                )
        return reply

    async def close(self) -> None:
        """Drain, then stop the dispatchers.  Idempotent."""
        if self._closed:
            return
        await self.drain()
        self._closed = True
        for sequencer in self.sequencers.values():
            await sequencer.stop()
        for runtime in self._runtimes():
            runtime.close()

    # -- sessions ------------------------------------------------------

    def open_session(self, client: str = "client") -> ClientSession:
        """Register one connection; returns its pseudonymous session."""
        self._session_seq += 1
        session = ClientSession(f"s{self._session_seq}", client)
        self._sessions[session.session_id] = session
        self.telemetry.gauge("serve.connections", len(self._sessions))
        return session

    def close_session(self, session: ClientSession) -> None:
        self._sessions.pop(session.session_id, None)
        self.telemetry.gauge("serve.connections", len(self._sessions))

    def welcome(self, session: ClientSession, hello: Hello) -> Frame:
        """Answer a Hello: version check, then the negotiated limits."""
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
        # Trace propagation is on only when both peers want it: the
        # client asked and this server's telemetry can record spans.
        session.trace = bool(hello.trace and self.telemetry.enabled)
        return Welcome(
            version=PROTOCOL_VERSION,
            server=self.config.server_name,
            session=session.session_id,
            max_inflight=self.config.max_inflight,
            max_queue_depth=self.config.max_queue_depth,
            trace=session.trace,
        )

    def note_protocol_error(self) -> None:
        """Transports report undecodable frames here."""
        self.protocol_errors += 1
        self.telemetry.count("serve.protocol_errors")

    # -- admission and dispatch ----------------------------------------

    async def submit(self, session: ClientSession, frame: Frame) -> Frame:
        """Serve one decoded frame of any op; resolves to its reply.

        Control ops are answered here; a servable op goes through
        :meth:`admit` with a future as its reply callback.  Every
        transport runs its connections' control ops through here;
        servable ops reach :meth:`admit` directly.
        """
        if not isinstance(frame, _SERVABLE):
            return await self._control(session, frame)
        future: "asyncio.Future[Frame]" = (
            asyncio.get_running_loop().create_future()
        )

        def respond(reply: Frame) -> None:
            # A future whose awaiting task was cancelled is left alone.
            if not future.done():
                future.set_result(reply)

        self.admit(session, frame, respond)
        return await future

    def admit(
        self,
        session: ClientSession,
        frame: "LocationUpdate | ServiceRequest",
        respond: Respond,
    ) -> None:
        """Admit one servable frame without awaiting anything.

        Either ``respond`` is called at once with a refusal
        (``wrong_shard``, a bad trace context, ``draining`` or
        ``overloaded``), or the op is queued on its shard and its
        sequencer calls ``respond`` with the reply the moment the op
        executes.  The TCP and HTTP transports call this directly, so
        a servable op costs them no task and no future.
        """
        sequencer = self.sequencers.get(
            shard_of(frame.user_id, self.n_shards)
        )
        if sequencer is None:
            respond(
                ErrorReply(
                    id=frame.id,
                    code="wrong_shard",
                    message=(
                        f"user {frame.user_id} does not hash to a shard "
                        "served by this worker"
                    ),
                )
            )
            return
        ctx: TraceContext | None = None
        if session.trace and frame.trace is not None:
            try:
                ctx = TraceContext.from_wire(frame.trace)
            except ValueError as exc:
                self.note_protocol_error()
                respond(
                    ErrorReply(
                        id=frame.id,
                        code="bad_field",
                        message=clip_echo(str(exc)),
                    )
                )
                return
        # Admission spans only exist when a sink can receive them; the
        # trace identity itself (exemplars, introspection, the reply
        # echo) costs nothing extra here.
        record = ctx is not None and self.telemetry.tracer.sinks
        if record:
            admit_start = time.perf_counter()
        refusal = self._refusal(session, sequencer, frame)
        if refusal is None:
            seq = frame.seq if self.trusts_seq else None
            if seq is None:
                seq = sequencer.allocate_seq()
            session.inflight += 1
            session.accepted += 1
            sequencer.push(ShardJob(session, frame, seq, respond, ctx))
        if record:
            assert ctx is not None
            self.telemetry.emit_span(
                "serve.admission",
                admit_start,
                time.perf_counter(),
                ctx,
                op=frame.op,
                outcome="admitted" if refusal is None else refusal.code,
                queue_depth=sequencer.queue_depth,
            )
        if refusal is None:
            return
        if ctx is None:
            respond(refusal)
            return
        self.recent_traces.append(
            {
                "trace_id": ctx.trace_id,
                "op": frame.op,
                "decision": None,
                "queue_ms": 0.0,
                "total_ms": 0.0,
                "shed": refusal.is_shed,
            }
        )
        respond(clone_frame(refusal, trace=ctx.to_wire()))

    def _refusal(
        self,
        session: ClientSession,
        sequencer: Shard,
        frame: "LocationUpdate | ServiceRequest",
    ) -> ErrorReply | None:
        """Why ``frame`` cannot be queued now; None admits it."""
        if self._draining or self._closed:
            sequencer.rejected += 1
            self.telemetry.count(
                "serve.rejected", reason="draining", **sequencer.labels
            )
            return ErrorReply(
                id=frame.id,
                code="draining",
                message="server is draining; no new work admitted",
            )
        if session.inflight >= self.config.max_inflight:
            reason = "inflight"
        elif sequencer.queue_depth >= self.config.max_queue_depth:
            reason = "queue"
        else:
            return None
        # Load shedding: explicit backpressure, not failure.
        session.shed += 1
        sequencer.shed += 1
        self.telemetry.count("serve.shed", reason=reason, **sequencer.labels)
        retry_after = sequencer.retry_after_s
        return ErrorReply(
            id=frame.id,
            code="overloaded",
            message=f"shed ({reason}); retry after {retry_after:.3f}s",
            retry_after=retry_after,
        )

    # -- control and introspection ops ---------------------------------

    async def _control(self, session: ClientSession, frame: Frame) -> Frame:
        """Every op that is not a state-mutating update or request."""
        if isinstance(frame, Hello):
            return self.welcome(session, frame)
        if isinstance(frame, StatsRequest):
            return StatsReply(
                id=frame.id,
                accepted=self.accepted,
                served=self.served,
                shed=self.shed_total,
                rejected=self.rejected,
                protocol_errors=self.protocol_errors,
                queue_depth=self.queue_depth,
                sessions=len(self._sessions),
            )
        if isinstance(frame, MetricsRequest):
            return render_metrics_reply(
                self.telemetry, self.config.max_frame_bytes, frame
            )
        if isinstance(frame, HealthRequest):
            return self._health_reply(frame)
        if isinstance(frame, TracesRequest):
            limit = max(0, min(frame.limit, len(self.recent_traces)))
            entries = list(self.recent_traces)[-limit:][::-1] if limit else []
            return TracesReply(
                id=frame.id,
                body=json.dumps(entries, separators=(",", ":")),
            )
        if isinstance(frame, ProfileRequest):
            # The profiler targets this event-loop thread — the one the
            # dispatchers (and therefore every engine call) run on.
            return render_profile_reply(
                self.telemetry, self.config.max_frame_bytes, frame
            )
        if isinstance(frame, DrainRequest):
            reply = await self.drain()
            return clone_frame(reply, id=frame.id)
        self.note_protocol_error()
        return ErrorReply(
            id=getattr(frame, "id", None),
            code="unknown_op",
            message=f"frame {frame.op!r} is not servable",
        )

    def _health_reply(self, frame: HealthRequest) -> HealthReply:
        """One-frame liveness/readiness snapshot (``health`` op)."""
        slo_ok = True
        breaches = 0
        if self.privacy_monitor is not None:
            slo_ok = all(
                status.ok
                for status in self.privacy_monitor.status.values()
            )
            breaches = sum(
                1
                for alert in self.privacy_monitor.alerts
                if alert.state == "breach"
            )
        if self._draining or self._closed:
            status_text = "draining"
        elif not slo_ok:
            status_text = "degraded"
        else:
            status_text = "ok"
        return HealthReply(
            id=frame.id,
            status=status_text,
            uptime_s=time.monotonic() - self.started_at,
            queue_depth=self.queue_depth,
            sessions=len(self._sessions),
            served=self.served,
            shed=self.shed_total,
            slo_ok=slo_ok,
            breaches=breaches,
        )


def execute_op(engine: Engine, frame: Frame) -> Frame:
    """Run one state-mutating frame through an engine; build its reply.

    The single reply-construction path shared by live serving and WAL
    replay, so a decision crosses the wire identically either way.
    """
    # Replies are built by installing a complete ``__dict__`` on a bare
    # instance — the frames are frozen dataclasses without slots or
    # ``__post_init__``, so this is field-for-field identical to the
    # generated ``__init__`` minus its per-field frozen-``__setattr__``
    # round trips (measurable on the serving hot path).
    if isinstance(frame, ServiceRequest):
        event = engine.process(
            frame.user_id,
            STPoint(frame.x, frame.y, frame.t),
            frame.service,
        )
        request = event.request
        context = request.context
        rect = context.rect
        interval = context.interval
        reply = object.__new__(DecisionReply)
        object.__setattr__(
            reply,
            "__dict__",
            {
                "id": frame.id,
                "msgid": request.msgid,
                "pseudonym": request.pseudonym,
                "decision": event.decision.value,
                "forwarded": event.forwarded,
                "context": (
                    rect.x_min,
                    rect.y_min,
                    rect.x_max,
                    rect.y_max,
                    interval.start,
                    interval.end,
                ),
                "lbqid": event.lbqid_name,
                "step": event.step,
                "required_k": event.required_k,
                "rotated": event.pseudonym_rotated,
                "trace": None,
            },
        )
        return reply
    assert isinstance(frame, LocationUpdate)
    engine.report_location(
        frame.user_id, STPoint(frame.x, frame.y, frame.t)
    )
    ack = object.__new__(UpdateAck)
    object.__setattr__(ack, "__dict__", {"id": frame.id, "trace": None})
    return ack
