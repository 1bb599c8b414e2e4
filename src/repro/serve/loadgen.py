"""Load generation and serving-equivalence verification.

The harness has three layers, shared by ``tools/loadgen.py``, benchmark
E17, perfbench and the serving tests:

* **workload** — the serving half lives in :mod:`repro.serve.city`
  (re-exported here): :class:`~repro.serve.city.WorkloadConfig`, the
  city a daemon serves and :func:`~repro.serve.city.build_engine`, the
  engine that serves it from a warm store.  A daemon loads only that
  module.  :func:`build_workload` is the same city plus what only
  clients read: a per-user-ordered timeline of
  :class:`~repro.engine.pipeline.BatchItem` entries (every
  ``request_stride``-th sample becomes a service request);
* **open-loop driver** — :func:`run_loadgen` partitions users across N
  concurrent client connections and fires each item at its scheduled
  arrival time (global index / rate) *without waiting for replies* —
  an open-loop arrival process, so overload manifests as shed replies
  rather than a self-throttling client;
* **verification** — :func:`offline_replay` replays the identical
  workload through ``Engine.process_batch`` and
  :func:`decision_key` projects both streams onto the comparable
  decision fields (everything except the TS-internal ``msgid`` and the
  pseudonym *strings*, whose global issue order legitimately depends on
  interleaving; rotation events themselves are compared).
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Sequence

from repro.engine.context import AnonymizerEvent
from repro.engine.pipeline import BatchItem
from repro.mobility.population import SyntheticCity
from repro.obs.config import Telemetry, TelemetryConfig
from repro.serve.city import (
    SERVICE,
    ServingCity,
    WorkloadConfig,
    build_city,
    build_engine,
)
from repro.serve.client import FrameClient, backoff_s
from repro.serve.gate import ConnectionGate, GateConfig
from repro.serve.http import HttpTransport, dial
from repro.serve.protocol import (
    DecisionReply,
    DrainRequest,
    ErrorReply,
    Frame,
    LocationUpdate,
    ProfileReply,
    ProfileRequest,
    ServiceRequest,
    StatsRequest,
)
from repro.serve.server import ServeConfig, TrustedServer
from repro.serve.transports import (
    LoopbackTransport,
    TcpTransport,
    client_ssl_context,
    server_ssl_context,
)

# ---------------------------------------------------------------------
# workload
# ---------------------------------------------------------------------


class ServingWorkload(ServingCity):
    """A served city plus the load generator's timeline of it.

    Its engines serve only the users the (possibly truncated) timeline
    reaches.
    """

    def __init__(
        self,
        city: SyntheticCity,
        timeline: list[BatchItem],
        per_user: dict[int, list[BatchItem]],
    ) -> None:
        super().__init__(city, per_user)
        #: Global timeline in timestamp order (the offline replay order).
        self.timeline = timeline
        #: Each user's items, in that user's time order.
        self.per_user = per_user

    @property
    def n_requests(self) -> int:
        return sum(1 for item in self.timeline if item.is_request)


def build_workload(
    config: WorkloadConfig,
    max_requests: int | None = None,
) -> ServingWorkload:
    """The served city plus its timeline (truncated after
    ``max_requests``): every ``request_stride``-th sample of a user is
    a service request."""
    city = build_city(config).city
    samples = [
        (user_id, sample)
        for user_id in city.store.user_ids()
        for sample in city.store.history(user_id)
    ]
    samples.sort(key=lambda pair: pair[1].t)
    timeline: list[BatchItem] = []
    requests = 0
    counts: dict[int, int] = {}
    for user_id, sample in samples:
        seen = counts.get(user_id, 0)
        counts[user_id] = seen + 1
        is_request = seen % config.request_stride == (
            config.request_stride - 1
        )
        timeline.append(
            BatchItem(
                user_id=user_id,
                location=sample,
                service=SERVICE if is_request else None,
            )
        )
        if is_request:
            requests += 1
            if max_requests is not None and requests >= max_requests:
                break
    per_user: dict[int, list[BatchItem]] = {}
    for item in timeline:
        per_user.setdefault(item.user_id, []).append(item)
    return ServingWorkload(city, timeline, per_user)


def offline_replay(
    workload: ServingWorkload, config: WorkloadConfig
) -> list[AnonymizerEvent]:
    """The ground-truth batch replay of the same workload."""
    engine = build_engine(workload, config)
    return engine.process_batch(workload.timeline)


def decision_key(reply: "DecisionReply | AnonymizerEvent") -> tuple:
    """Project one decision onto its interleaving-invariant fields."""
    if isinstance(reply, DecisionReply):
        return (
            reply.decision,
            reply.forwarded,
            reply.context,
            reply.lbqid,
            reply.step,
            reply.required_k,
            reply.rotated,
        )
    context = reply.request.context
    return (
        reply.decision.value,
        reply.forwarded,
        (
            context.rect.x_min,
            context.rect.y_min,
            context.rect.x_max,
            context.rect.y_max,
            context.interval.start,
            context.interval.end,
        ),
        reply.lbqid_name,
        reply.step,
        reply.required_k,
        reply.pseudonym_rotated,
    )


# ---------------------------------------------------------------------
# open-loop driver
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class LoadgenConfig:
    """One load-generation run."""

    workload: WorkloadConfig = WorkloadConfig()
    serve: ServeConfig = ServeConfig()
    #: Service requests to issue (the timeline is truncated after them).
    requests: int = 200
    clients: int = 4
    #: Total offered arrival rate over all clients (operations/s).
    rate: float = 2000.0
    #: "tcp" (plaintext NDJSON), "tls" (same over TLS), "http"
    #: (NDJSON bodies over HTTP/1.1, HTTPS when certs are given), or
    #: in-process "loopback".
    transport: str = "tcp"
    #: Connect to an external daemon instead of self-hosting.
    host: str | None = None
    port: int | None = None
    #: Bearer token sent in the hello (gated deployments).
    token: str | None = None
    #: Server cert/key for self-hosted TLS arms.
    tls_cert: str | None = None
    tls_key: str | None = None
    #: Client trust anchor; defaults to ``tls_cert`` (self-signed pin).
    tls_ca: str | None = None
    #: Install a ConnectionGate on self-hosted runs.
    gate: "GateConfig | None" = None
    #: Re-dial budget on dropped sockets (TCP/TLS transports).
    reconnect: int = 0
    #: Send the non-request location updates too.
    include_updates: bool = True
    #: Compare the served decision stream against the offline replay.
    verify: bool = False
    telemetry_enabled: bool = True
    #: Resubmit shed operations up to this many times (bounded
    #: exponential backoff honoring the server's ``retry_after`` hint).
    retries: int = 0
    #: Negotiate distributed tracing and attach contexts to every
    #: frame (requires ``telemetry_enabled`` on a self-hosted run).
    trace: bool = False
    #: Run the server's sampling profiler across the pass (driven over
    #: the wire via the ``profile`` op, so it works against external
    #: daemons too); the stage self-time table lands on the report.
    profile: bool = False
    profile_interval_ms: float = 5.0

    def __post_init__(self) -> None:
        if self.transport not in ("tcp", "tls", "http", "loopback"):
            raise ValueError(
                "transport must be 'tcp', 'tls', 'http', or "
                f"'loopback', got {self.transport!r}"
            )
        if self.transport == "tls" and self.host is None and (
            self.tls_cert is None or self.tls_key is None
        ):
            raise ValueError(
                "self-hosted tls transport needs tls_cert and tls_key"
            )
        if self.reconnect and self.transport not in ("tcp", "tls"):
            raise ValueError("reconnect re-dials tcp and tls sockets only")
        if self.clients < 1:
            raise ValueError(f"clients must be >= 1, got {self.clients}")
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")


@dataclass
class LoadReport:
    """Everything one load-generation run measured."""

    requests_sent: int = 0
    updates_sent: int = 0
    decisions: int = 0
    acks: int = 0
    shed: int = 0
    rejected: int = 0
    protocol_errors: int = 0
    internal_errors: int = 0
    #: Shed operations that were resubmitted (``retries > 0``).
    retried: int = 0
    #: Retried operations that ultimately got a non-shed reply.
    recovered: int = 0
    elapsed_s: float = 0.0
    throughput_rps: float = 0.0
    latency_ms: dict[str, float] = field(default_factory=dict)
    decision_counts: dict[str, int] = field(default_factory=dict)
    clean_shutdown: bool = False
    #: ``None`` when verification was not requested.
    verified: bool | None = None
    mismatches: int = 0
    #: Server-side telemetry snapshot holder (self-hosted runs only).
    telemetry: Telemetry | None = None
    #: The self-hosted run's gate (its counters back the E19/CI
    #: never-touched-a-sequencer assertions); None when ungated.
    gate: "ConnectionGate | None" = None
    #: The profiler's stage report (``profile`` op ``stages`` body),
    #: None unless the run profiled.
    profile: dict | None = None
    profile_samples: int = 0

    @property
    def shed_rate(self) -> float:
        total = self.requests_sent + self.updates_sent
        return self.shed / total if total else 0.0

    def to_dict(self) -> dict:
        return {
            "requests_sent": self.requests_sent,
            "updates_sent": self.updates_sent,
            "decisions": self.decisions,
            "acks": self.acks,
            "shed": self.shed,
            "shed_rate": self.shed_rate,
            "rejected": self.rejected,
            "protocol_errors": self.protocol_errors,
            "internal_errors": self.internal_errors,
            "retried": self.retried,
            "recovered": self.recovered,
            "elapsed_s": self.elapsed_s,
            "throughput_rps": self.throughput_rps,
            "latency_ms": dict(self.latency_ms),
            "decision_counts": dict(self.decision_counts),
            "clean_shutdown": self.clean_shutdown,
            "verified": self.verified,
            "mismatches": self.mismatches,
            "profile": self.profile,
            "profile_samples": self.profile_samples,
        }

    def summary_lines(self) -> list[str]:
        lines = [
            "== loadgen ==",
            (
                f"sent: {self.requests_sent} requests + "
                f"{self.updates_sent} updates in {self.elapsed_s:.2f}s "
                f"({self.throughput_rps:,.0f} req/s completed)"
            ),
            (
                f"decisions: {self.decisions}  acks: {self.acks}  "
                f"shed: {self.shed} ({self.shed_rate:.1%})  "
                f"rejected: {self.rejected}  "
                f"protocol_errors: {self.protocol_errors}  "
                f"internal_errors: {self.internal_errors}"
            ),
        ]
        if self.retried:
            lines.append(
                f"retried: {self.retried}  recovered: {self.recovered}"
            )
        if self.latency_ms:
            lines.append(
                "latency ms: "
                + "  ".join(
                    f"{name}={value:.2f}"
                    for name, value in self.latency_ms.items()
                )
            )
        if self.decision_counts:
            lines.append(
                "decisions: "
                + "  ".join(
                    f"{name}={count}"
                    for name, count in sorted(self.decision_counts.items())
                )
            )
        if self.profile is not None:
            shares = "  ".join(
                f"{row['stage']}={row['share_pct']:.1f}%"
                for row in self.profile.get("rows", [])
                if row.get("share_pct") is not None
            )
            lines.append(
                f"profile: {self.profile_samples} samples"
                + (f"  {shares}" if shares else "")
            )
        lines.append(
            f"clean_shutdown: {self.clean_shutdown}"
            + (
                f"  verified: {self.verified} "
                f"(mismatches={self.mismatches})"
                if self.verified is not None
                else ""
            )
        )
        return lines

    @property
    def ok(self) -> bool:
        """The loadgen acceptance bar: no protocol damage, clean exit."""
        return (
            self.protocol_errors == 0
            and self.internal_errors == 0
            and self.clean_shutdown
            and (self.verified is not False)
        )


def _percentiles(samples: "list[float]") -> dict[str, float]:
    if not samples:
        return {}
    ordered = sorted(samples)
    last = len(ordered) - 1

    def at(q: float) -> float:
        return ordered[min(last, int(round(q * last)))]

    return {
        "p50": at(0.50),
        "p95": at(0.95),
        "p99": at(0.99),
        "p99_9": at(0.999),
        "max": ordered[last],
    }


def _frame_for(item: BatchItem, conn: FrameClient) -> Frame:
    """Build the wire frame of one timeline item (fresh id per send)."""
    if item.is_request:
        return ServiceRequest(
            id=conn.next_id(),
            user_id=item.user_id,
            x=item.location.x,
            y=item.location.y,
            t=item.location.t,
            service=item.service or SERVICE,
        )
    return LocationUpdate(
        id=conn.next_id(),
        user_id=item.user_id,
        x=item.location.x,
        y=item.location.y,
        t=item.location.t,
    )


async def _client_run(
    conn: FrameClient,
    items: "Sequence[tuple[int, BatchItem]]",
    t0: float,
    rate: float,
    latencies: "list[float]",
) -> "list[tuple[BatchItem, asyncio.Future[Frame]]]":
    """Fire this client's slice of the timeline, open-loop."""
    loop = asyncio.get_running_loop()
    sent: "list[tuple[BatchItem, asyncio.Future[Frame]]]" = []
    for global_index, item in items:
        due = t0 + global_index / rate
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        frame = _frame_for(item, conn)
        sent_at = loop.time()
        future = conn.post(frame)
        if item.is_request:
            future.add_done_callback(
                lambda fut, start=sent_at: (
                    latencies.append((loop.time() - start) * 1000.0)
                    if not fut.cancelled() and fut.exception() is None
                    else None
                )
            )
        sent.append((item, future))
    return sent


async def _retry_shed(
    flat: "list[tuple[BatchItem, FrameClient]]",
    replies: "list[object]",
    retries: int,
    report: LoadReport,
    backoff_base_s: float = 0.05,
    backoff_cap_s: float = 5.0,
) -> None:
    """Resubmit shed operations with bounded exponential backoff.

    Waits the larger of the server's ``retry_after`` hint (the worst
    over this round's sheds) and ``backoff_base_s · 2^attempt``, capped
    at ``backoff_cap_s``; updates ``replies`` in place so the caller's
    tallying sees post-retry outcomes.
    """
    for attempt in range(retries):
        shed_idx = [
            index
            for index, reply in enumerate(replies)
            if isinstance(reply, ErrorReply) and reply.is_shed
        ]
        if not shed_idx:
            return
        hint = max(
            getattr(replies[index], "retry_after", None) or 0.0
            for index in shed_idx
        )
        await asyncio.sleep(
            backoff_s(attempt, backoff_base_s, backoff_cap_s, hint=hint)
        )
        futures = []
        for index in shed_idx:
            item, conn = flat[index]
            futures.append(conn.post(_frame_for(item, conn)))
        report.retried += len(shed_idx)
        fresh = await asyncio.gather(*futures, return_exceptions=True)
        for index, reply in zip(shed_idx, fresh):
            if isinstance(reply, BaseException):
                continue
            replies[index] = reply
            if not (isinstance(reply, ErrorReply) and reply.is_shed):
                report.recovered += 1


async def run_loadgen(
    config: LoadgenConfig, server: "TrustedServer | None" = None
) -> LoadReport:
    """Run one open-loop load-generation pass; see module doc.

    Pass ``server`` to drive an existing (started) server over its
    loopback; otherwise a self-hosted server is built from the workload
    and torn down at the end.  ``config.host`` targets an external TCP
    daemon instead — the workload must match what that daemon serves.
    """
    report = LoadReport()
    workload = build_workload(
        config.workload, max_requests=config.requests
    )
    if not config.include_updates:
        timeline = [item for item in workload.timeline if item.is_request]
        per_user: dict[int, list[BatchItem]] = {}
        for item in timeline:
            per_user.setdefault(item.user_id, []).append(item)
        # Served users are those the timeline reaches: rebuild, so the
        # engines are seeded with exactly these.
        workload = ServingWorkload(workload.city, timeline, per_user)

    transport: "TcpTransport | HttpTransport | None" = None
    own_server = server is None and config.host is None
    if own_server:
        telemetry = (
            TelemetryConfig(enabled=True).build()
            if config.telemetry_enabled
            else None
        )
        engine = build_engine(workload, config.workload, telemetry)
        server = TrustedServer(engine, config.serve)
        await server.start()
        report.telemetry = engine.telemetry
    gate: "ConnectionGate | None" = None
    if config.gate is not None and config.host is None:
        assert server is not None
        gate = ConnectionGate(
            config.gate, telemetry=server.telemetry
        )
        report.gate = gate
    server_ctx = None
    if config.host is None and config.tls_cert is not None:
        assert config.tls_key is not None
        server_ctx = server_ssl_context(
            config.tls_cert, config.tls_key
        )
    client_ca = config.tls_ca or config.tls_cert
    client_ctx = None
    if config.transport == "tls" or (
        config.transport == "http" and client_ca is not None
    ):
        assert client_ca is not None
        client_ctx = client_ssl_context(client_ca)
    host, port = config.host, config.port
    if config.transport != "loopback" and config.host is None:
        assert server is not None
        if config.transport == "http":
            transport = HttpTransport(
                server, ssl_context=server_ctx, gate=gate
            )
        else:
            transport = TcpTransport(
                server, ssl_context=server_ctx, gate=gate
            )
        host, port = await transport.start()

    connections: "list[FrameClient]" = []
    try:
        client_telemetry: "Telemetry | None" = None
        if config.trace:
            # Self-hosted runs share the engine's telemetry, so client
            # and server spans land in one sink set (single-file trace
            # reconstruction); external daemons get a local recorder.
            client_telemetry = report.telemetry or (
                TelemetryConfig(enabled=True).build()
            )
        for index in range(config.clients):
            name = f"loadgen-{index}"
            if config.transport == "loopback":
                assert server is not None
                connections.append(
                    LoopbackTransport(server, gate=gate).connect(
                        name, trace=config.trace, token=config.token
                    )
                )
                continue
            assert host is not None and port is not None
            redial = (
                {"reconnect": config.reconnect} if config.reconnect else {}
            )
            connections.append(
                await dial(
                    host,
                    port,
                    transport=config.transport,
                    client=name,
                    telemetry=client_telemetry,
                    trace=config.trace,
                    ssl=client_ctx,
                    token=config.token,
                    **redial,
                )
            )

        if config.profile:
            # Driven over the wire so the op is exercised end-to-end
            # and external daemons can be profiled the same way.
            profile_conn = connections[0]
            started_reply = await profile_conn.send(
                ProfileRequest(
                    id=profile_conn.next_id(),
                    action="start",
                    interval_ms=config.profile_interval_ms,
                )
            )
            if isinstance(started_reply, ErrorReply):
                raise ValueError(
                    "profiler start failed: "
                    f"{started_reply.code}: {started_reply.message}"
                )

        # Round-robin user partition: every user's items stay on one
        # connection, preserving per-user submission order.
        owner = {
            user_id: connections[rank % len(connections)]
            for rank, user_id in enumerate(workload.user_ids)
        }
        slices: "dict[FrameClient, list[tuple[int, BatchItem]]]" = {
            conn: [] for conn in connections
        }
        for global_index, item in enumerate(workload.timeline):
            slices[owner[item.user_id]].append((global_index, item))

        latencies: "list[float]" = []
        loop = asyncio.get_running_loop()
        t0 = loop.time() + 0.02
        started = loop.time()
        results = await asyncio.gather(
            *(
                _client_run(
                    conn,
                    slices[conn],
                    t0,
                    config.rate,
                    latencies,
                )
                for conn in connections
            )
        )
        flat: "list[tuple[BatchItem, asyncio.Future[Frame]]]" = []
        flat_conn: "list[FrameClient]" = []
        for conn, batch in zip(connections, results):
            for item, future in batch:
                flat.append((item, future))
                flat_conn.append(conn)
        replies = list(
            await asyncio.gather(
                *(future for _item, future in flat),
                return_exceptions=True,
            )
        )
        report.elapsed_s = loop.time() - started

        if config.retries > 0:
            await _retry_shed(
                [
                    (item, conn)
                    for (item, _future), conn in zip(flat, flat_conn)
                ],
                replies,
                config.retries,
                report,
            )

        per_user_replies: "dict[int, list[Frame]]" = {}
        for (item, _future), reply in zip(flat, replies):
            if isinstance(reply, BaseException):
                report.internal_errors += 1
                continue
            if item.is_request:
                report.requests_sent += 1
            else:
                report.updates_sent += 1
            if isinstance(reply, DecisionReply):
                report.decisions += 1
                report.decision_counts[reply.decision] = (
                    report.decision_counts.get(reply.decision, 0) + 1
                )
            elif isinstance(reply, ErrorReply):
                if reply.is_shed:
                    report.shed += 1
                elif reply.code == "draining":
                    report.rejected += 1
                elif reply.code == "internal":
                    report.internal_errors += 1
                else:
                    report.protocol_errors += 1
            else:
                report.acks += 1
            if item.is_request:
                per_user_replies.setdefault(item.user_id, []).append(
                    reply
                )

        if report.elapsed_s > 0:
            report.throughput_rps = (
                report.decisions / report.elapsed_s
            )
        report.latency_ms = _percentiles(latencies)

        if config.profile:
            profile_conn = connections[0]
            await profile_conn.send(
                ProfileRequest(
                    id=profile_conn.next_id(), action="stop"
                )
            )
            stages = await profile_conn.send(
                ProfileRequest(
                    id=profile_conn.next_id(), action="stages"
                )
            )
            if isinstance(stages, ProfileReply) and stages.body:
                report.profile = json.loads(stages.body)
                report.profile_samples = stages.samples

        stats_conn = connections[0]
        stats = await stats_conn.send(
            StatsRequest(id=stats_conn.next_id())
        )
        drained = await stats_conn.send(
            DrainRequest(id=stats_conn.next_id())
        )
        report.clean_shutdown = (
            getattr(drained, "pending", None) == 0
            and getattr(stats, "op", "") == "stats_reply"
        )

        if config.verify:
            report.verified = _verify(
                workload, config.workload, per_user_replies, report
            )
    finally:
        for conn in connections:
            await conn.close()
        if transport is not None:
            await transport.stop()
        if own_server and server is not None:
            await server.close()
    return report


def _verify(
    workload: ServingWorkload,
    config: WorkloadConfig,
    per_user_replies: "dict[int, list[Frame]]",
    report: LoadReport,
) -> bool:
    """Served decision streams vs the offline batch replay, per user."""
    offline: "dict[int, list[AnonymizerEvent]]" = {}
    for event in offline_replay(workload, config):
        offline.setdefault(event.request.user_id, []).append(event)
    mismatches = 0
    for user_id, events in offline.items():
        served = per_user_replies.get(user_id, [])
        if len(served) != len(events):
            mismatches += abs(len(served) - len(events))
            continue
        for got, want in zip(served, events):
            if not isinstance(got, DecisionReply) or (
                decision_key(got) != decision_key(want)
            ):
                mismatches += 1
    for user_id in per_user_replies:
        if user_id not in offline:
            mismatches += len(per_user_replies[user_id])
    report.mismatches = mismatches
    return mismatches == 0
