"""The staged request engine and its pipeline builder.

:class:`Engine` is the Trusted Server's machine room: it owns the
collaborators (trajectory store, generalizer, unlinker, session store,
audit trail, telemetry) and drives each request through an ordered
sequence of :class:`~repro.engine.stages.Stage` objects.  The default
pipeline reproduces the Section 6.1 strategy exactly; experiments swap
stages through :class:`PipelineBuilder` instead of subclass surgery::

    engine = Engine(
        store,
        policy=policy,
        pipeline=(
            PipelineBuilder.default()
            .remove("unlink")                  # ablate Section 6.3
            .replace("generalize", MyStage())  # alternative Algorithm 1
        ),
    )

Batch ingestion (:meth:`Engine.process_batch`) accepts a timeline of
:class:`BatchItem` location updates and requests: runs of consecutive
location updates are grouped per user and ingested through
:meth:`~repro.mod.store.TrajectoryStore.add_points`, bumping the store
``version`` once per run instead of once per point — bulk replay then
stops thrashing version-keyed caches (e.g. the SLO monitor's incremental
candidate sets) while every request still observes exactly the store
state it would have seen under one-at-a-time processing.

Per-stage telemetry lands for free: ``engine.stage_ms{stage=...}``
latency histograms and ``engine.stage_decisions{stage=...,decision=...}``
counters, recorded only when telemetry is enabled (the disabled path
walks the stages with zero instrumentation overhead).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.core.generalization import (
    SpatioTemporalGeneralizer,
    ToleranceConstraint,
)
from repro.core.lbqid import LBQID
from repro.core.matching import LBQIDMonitor
from repro.core.policy import PolicyTable
from repro.core.randomization import BoxRandomizer
from repro.core.requests import Request, SPRequest
from repro.core.unlinking import NeverUnlink, UnlinkingProvider
from repro.engine.audit import AuditTrail
from repro.engine.context import (
    AnonymitySetScope,
    AnonymizerEvent,
    RequestContext,
)
from repro.engine.session import (
    InMemorySessionStore,
    LBQIDState,
    UserSession,
)
from repro.engine.stages import (
    Audit,
    Generalize,
    MonitorMatch,
    QuietGate,
    RiskPolicy,
    Stage,
    Unlink,
)
from repro.geometry.point import STPoint
from repro.mod.store import TrajectoryStore
from repro.obs.config import Telemetry, TelemetryConfig, resolve_telemetry


class PipelineBuilder:
    """Assembles the ordered stage list of an :class:`Engine`.

    Stages are addressed by their ``name`` attribute; all mutators
    return ``self`` for chaining.  A builder holds stage *instances*, so
    build each engine from its own builder (binding a stage to two
    engines is rejected at build time).
    """

    def __init__(self, stages: Iterable[Stage] = ()) -> None:
        self._stages: list[Stage] = list(stages)

    @classmethod
    def default(cls) -> "PipelineBuilder":
        """The paper's Section 6.1 pipeline, in order."""
        return cls(
            [
                QuietGate(),
                MonitorMatch(),
                Generalize(),
                Unlink(),
                RiskPolicy(),
                Audit(),
            ]
        )

    @property
    def stage_names(self) -> list[str]:
        return [stage.name for stage in self._stages]

    def _index_of(self, name: str) -> int:
        for index, stage in enumerate(self._stages):
            if stage.name == name:
                return index
        raise KeyError(
            f"no stage named {name!r}; pipeline has {self.stage_names}"
        )

    def add(self, stage: Stage) -> "PipelineBuilder":
        """Append a stage at the end of the pipeline."""
        self._stages.append(stage)
        return self

    def insert_before(self, name: str, stage: Stage) -> "PipelineBuilder":
        """Insert ``stage`` immediately before the stage named ``name``."""
        self._stages.insert(self._index_of(name), stage)
        return self

    def insert_after(self, name: str, stage: Stage) -> "PipelineBuilder":
        """Insert ``stage`` immediately after the stage named ``name``."""
        self._stages.insert(self._index_of(name) + 1, stage)
        return self

    def replace(self, name: str, stage: Stage) -> "PipelineBuilder":
        """Swap the stage named ``name`` for ``stage``."""
        self._stages[self._index_of(name)] = stage
        return self

    def remove(self, name: str) -> "PipelineBuilder":
        """Drop the stage named ``name`` from the pipeline."""
        del self._stages[self._index_of(name)]
        return self

    def build(self, engine: "Engine") -> tuple[Stage, ...]:
        """Bind every stage to ``engine``; return the immutable order."""
        if not self._stages:
            raise ValueError("cannot build an empty pipeline")
        for stage in self._stages:
            if stage.engine is not None and stage.engine is not engine:
                raise ValueError(
                    f"stage {stage.name!r} is already bound to another "
                    "engine; build each engine from its own "
                    "PipelineBuilder"
                )
            stage.bind(engine)
        return tuple(self._stages)


@dataclass(frozen=True)
class BatchItem:
    """One timeline entry for :meth:`Engine.process_batch`.

    ``service=None`` marks a plain location update ("a location update
    may be received by the TS even if the user did not make a request");
    any string makes the item a service request for that service.
    """

    user_id: int
    location: STPoint
    service: str | None = None
    data: Mapping[str, object] | None = None

    @property
    def is_request(self) -> bool:
        return self.service is not None


class Engine:
    """The Trusted Server rebuilt as an explicit staged pipeline.

    Owns all shared collaborators and the per-user session state (via
    ``sessions``); processes one request with :meth:`process` and a
    mixed update/request timeline with :meth:`process_batch`.  Every
    caller — the offline simulation, the serving shards, the examples
    — constructs one of these directly::

        engine = Engine(store, policy, unlinker=AlwaysUnlink())
        engine.register_lbqid(user_id, commute_lbqid(home, office))
        engine.report_location(user_id, point)         # location update
        event = engine.process(user_id, point, "poi")  # service request

    Ground-truth audit events accumulate in :attr:`events` (unless
    ``audit="counts"`` bounds retention); the SP-visible stream is
    :meth:`sp_log`.
    """

    def __init__(
        self,
        store: TrajectoryStore,
        policy: PolicyTable | None = None,
        unlinker: UnlinkingProvider | None = None,
        scope: AnonymitySetScope = AnonymitySetScope.PER_LBQID,
        default_cloak: ToleranceConstraint | None = None,
        randomizer: BoxRandomizer | None = None,
        quiet_period: float = 0.0,
        telemetry: "Telemetry | TelemetryConfig | None" = None,
        sessions: InMemorySessionStore | None = None,
        audit: str = "full",
        pipeline: "PipelineBuilder | Sequence[Stage] | None" = None,
    ) -> None:
        if quiet_period < 0:
            raise ValueError(
                f"quiet_period must be non-negative, got {quiet_period}"
            )
        self.store = store
        self.policy = policy or PolicyTable()
        self.unlinker = unlinker or NeverUnlink()
        self.scope = scope
        self.default_cloak = default_cloak
        #: Optional Section 7 randomization: certified contexts are
        #: re-placed at random within the tolerance budget before
        #: forwarding, defeating center-bias inference (bench E13).
        self.randomizer = randomizer
        #: Seconds of service silence after a pseudonym rotation — the
        #: mix-zone "no service inside the zone" mechanic (bench E16).
        self.quiet_period = quiet_period
        self.telemetry = resolve_telemetry(telemetry)
        self.generalizer = SpatioTemporalGeneralizer(store)
        #: All per-user mutable state (monitors, anonymity-set caches,
        #: quiet deadlines, pseudonyms).
        self.sessions: InMemorySessionStore = (
            sessions if sessions is not None else InMemorySessionStore()
        )
        #: Decision tallies, SP log, and (mode permitting) full events.
        self.audit = AuditTrail(mode=audit)
        if pipeline is None:
            pipeline = PipelineBuilder.default()
        if isinstance(pipeline, PipelineBuilder):
            self.stages = pipeline.build(self)
        else:
            self.stages = PipelineBuilder(pipeline).build(self)
        # Span names are per-request hot-path strings; build them once.
        self._stage_spans = tuple(
            (stage, f"engine.{stage.name}") for stage in self.stages
        )
        self._msgid = 0

    # ------------------------------------------------------------------
    # registration and location updates
    # ------------------------------------------------------------------

    def register_lbqid(self, user_id: int, lbqid: LBQID) -> None:
        """Attach an LBQID specification for a user (Section 6.1 step 1)."""
        self.sessions.session(user_id).lbqids.append(
            LBQIDState(
                monitor=LBQIDMonitor(lbqid, telemetry=self.telemetry)
            )
        )

    def register_lbqids(
        self, user_id: int, lbqids: Iterable[LBQID]
    ) -> None:
        """Attach several LBQIDs for a user."""
        for lbqid in lbqids:
            self.register_lbqid(user_id, lbqid)

    def report_location(self, user_id: int, location: STPoint) -> None:
        """Ingest a location update that is not a service request.

        "A location update may be received by the TS even if the user did
        not make a request when being at that location" — these updates
        populate the PHLs that define everyone's anonymity sets.
        """
        self.store.add_point(user_id, location)
        self.telemetry.count("ts.location_updates")

    # ------------------------------------------------------------------
    # request processing
    # ------------------------------------------------------------------

    def process(
        self,
        user_id: int,
        location: STPoint,
        service: str = "default",
        data: Mapping[str, object] | None = None,
    ) -> AnonymizerEvent:
        """Run one service request through the pipeline, end to end.

        Returns the audit event; the outgoing SP request (if forwarded)
        lands on the trail returned by :meth:`sp_log`.
        """
        telemetry = self.telemetry
        if not telemetry.enabled:
            return self._process(user_id, location, service, data)
        if not telemetry.profiling:
            return self._process_traced(
                user_id, location, service, data, telemetry
            )
        # Publish the request bracket for the sampling profiler: the
        # sampler thread reads this slot at every tick, so samples
        # between stages land in the "(other)" bucket of request time
        # rather than leaking into idle.
        slot = telemetry.activity
        slot.trace_id = telemetry.active_trace_id()
        slot.in_request = True
        try:
            return self._process_traced(
                user_id, location, service, data, telemetry
            )
        finally:
            slot.in_request = False
            slot.stage = None
            slot.trace_id = None

    def _process_traced(
        self,
        user_id: int,
        location: STPoint,
        service: str,
        data: Mapping[str, object] | None,
        telemetry: Telemetry,
    ) -> AnonymizerEvent:
        """The instrumented body of :meth:`process`."""
        with telemetry.span(
            "ts.request", user_id=user_id, service=service
        ) as span:
            with telemetry.timer("ts.request_latency_ms"):
                event = self._process(user_id, location, service, data)
            span.annotate(decision=event.decision.value)
        self._record(event, telemetry)
        return event

    def process_batch(
        self, items: Iterable[BatchItem]
    ) -> list[AnonymizerEvent]:
        """Replay a timeline of updates and requests through the engine.

        Items must arrive in timestamp order (per user at minimum, as
        everywhere else in the TS).  Consecutive location updates are
        buffered and ingested per user via
        :meth:`TrajectoryStore.add_points` right before the next request
        runs — each request therefore sees exactly the PHL state it
        would have seen online, while pure-replay stretches pay one
        store-version bump per run of updates instead of one per point.
        Returns the audit events of the *requests*, in order.
        """
        events: list[AnonymizerEvent] = []
        pending: dict[int, list[STPoint]] = {}
        pending_points = 0
        telemetry = self.telemetry

        def flush() -> None:
            nonlocal pending_points
            if not pending:
                return
            for update_user, points in pending.items():
                self.store.add_points(update_user, points)
            if telemetry.enabled:
                telemetry.count("ts.location_updates", pending_points)
                telemetry.count("engine.batch_flushes")
            pending.clear()
            pending_points = 0

        for item in items:
            if item.is_request:
                flush()
                assert item.service is not None
                events.append(
                    self.process(
                        item.user_id,
                        item.location,
                        item.service,
                        item.data,
                    )
                )
            else:
                pending.setdefault(item.user_id, []).append(
                    item.location
                )
                pending_points += 1
        flush()
        return events

    def _process(
        self,
        user_id: int,
        location: STPoint,
        service: str,
        data: Mapping[str, object] | None,
    ) -> AnonymizerEvent:
        """Seed the request context and walk the stages."""
        # Every request is also a location update: "for each request r_i
        # there must be an element in the PHL of User(r_i)".
        self.store.add_point(user_id, location)
        telemetry = self.telemetry
        telemetry.count("ts.location_updates")
        self._msgid += 1
        request = Request.issue(
            msgid=self._msgid,
            user_id=user_id,
            pseudonym=self.sessions.pseudonym(user_id),
            location=location,
            service=service,
            data=data,
        )
        ctx = RequestContext(
            user_id=user_id,
            location=location,
            service=service,
            request=request,
            profile=self.policy.profile_for(user_id, service),
            tolerance=self.policy.tolerance_for(service),
            session=self.sessions.session(user_id),
            data=data,
        )
        if telemetry.enabled:
            self._run_instrumented(ctx, telemetry)
        else:
            self._run(ctx)
        event = ctx.event
        assert event is not None, (
            "pipeline finished without an audit event; custom pipelines "
            "must end with an Audit stage (or set ctx.event themselves)"
        )
        return event

    def _run(self, ctx: RequestContext) -> None:
        """The uninstrumented stage walk (telemetry disabled)."""
        for stage in self.stages:
            if ctx.decision is not None and not stage.terminal:
                continue
            decision = stage.handle(ctx)
            if decision is not None and ctx.decision is None:
                ctx.decision = decision

    def _run_instrumented(
        self, ctx: RequestContext, telemetry: Telemetry
    ) -> None:
        """The same walk, timing every stage that actually ran.

        When the request arrived with a distributed trace (the serve
        dispatcher activated a remote span around :meth:`process`), each
        stage additionally gets its own ``engine.<stage>`` span in that
        tree and the ``engine.stage_ms`` observation carries the
        trace_id as a bucket exemplar.  Local (non-wire) runs keep the
        exact pre-trace span volume.
        """
        trace_id = telemetry.active_trace_id()
        # The enclosing ts.request span — stage spans are leaves under
        # it, emitted via the cheap path (no Span object per stage).
        # Without a sink no record could be delivered, so the walk
        # stays on the span-free branch (exemplars still carry
        # ``trace_id``).
        parent = (
            telemetry.tracer.current()
            if trace_id is not None and telemetry.tracer.sinks
            else None
        )
        # Stage attribution for the sampling profiler: the engine
        # publishes the stage currently in handle() through the shared
        # activity slot (the stage spans above are emitted *after* the
        # fact, so the sampler cannot learn the stage any other way).
        slot = telemetry.activity if telemetry.profiling else None
        for stage, span_name in self._stage_spans:
            if ctx.decision is not None and not stage.terminal:
                continue
            if slot is not None:
                slot.stage = stage.name
            start = time.perf_counter()
            if parent is None:
                decision = stage.handle(ctx)
                end = time.perf_counter()
            else:
                try:
                    decision = stage.handle(ctx)
                except BaseException:
                    telemetry.emit_span(
                        span_name, start, time.perf_counter(), parent
                    )
                    raise
                end = time.perf_counter()
                if decision is not None:
                    telemetry.emit_span(
                        span_name, start, end, parent,
                        decision=decision.value,
                    )
                else:
                    telemetry.emit_span(span_name, start, end, parent)
            if slot is not None:
                slot.stage = None
            elapsed_ms = (end - start) * 1000.0
            telemetry.observe(
                "engine.stage_ms",
                elapsed_ms,
                trace_id=trace_id,
                stage=stage.name,
            )
            if decision is not None and ctx.decision is None:
                ctx.decision = decision
                telemetry.count(
                    "engine.stage_decisions",
                    stage=stage.name,
                    decision=decision.value,
                )

    def _record(
        self, event: AnonymizerEvent, telemetry: Telemetry
    ) -> None:
        """Per-request metrics and the streaming decision event.

        The ``ts.decision`` event mirrors the audit record for online
        consumers (:class:`~repro.obs.slo.PrivacyMonitor`, JSONL
        exports).  It carries the TS-side ground-truth ``user_id``
        alongside the pseudonym — telemetry stays inside the trust
        boundary, so exported JSONL files must be treated as
        TS-confidential.
        """
        telemetry.count("ts.requests")
        telemetry.count("ts.decisions", decision=event.decision.value)
        if event.pseudonym_rotated:
            telemetry.count("ts.pseudonym_rotations")
        result = event.generalization
        if result is not None:
            telemetry.observe(
                "ts.anonymity_set_size", len(result.anonymity_ids)
            )
            telemetry.observe("ts.box_area_m2", result.box.rect.area)
            telemetry.observe(
                "ts.box_duration_s", result.box.interval.duration
            )
        context = event.request.context
        fields: dict[str, object] = dict(
            t=event.request.t,
            user_id=event.request.user_id,
            pseudonym=event.request.pseudonym,
            service=event.request.service,
            decision=event.decision.value,
            forwarded=event.forwarded,
            lbqid=event.lbqid_name,
            hk=event.hk_anonymity,
            step=event.step,
            required_k=event.required_k,
            rotated=event.pseudonym_rotated,
            context=(
                context.rect.x_min,
                context.rect.y_min,
                context.rect.x_max,
                context.rect.y_max,
                context.interval.start,
                context.interval.end,
            ),
        )
        # Only traced (wire-propagated) requests grow the event schema —
        # offline replays keep producing byte-identical decision events.
        trace_id = telemetry.active_trace_id()
        if trace_id is not None:
            fields["trace_id"] = trace_id
        telemetry.event("ts.decision", **fields)

    # ------------------------------------------------------------------
    # evaluation helpers
    # ------------------------------------------------------------------

    @property
    def events(self) -> list[AnonymizerEvent]:
        """Retained audit events (empty under ``audit="counts"``)."""
        return self.audit.events

    def session(self, user_id: int) -> UserSession:
        """The user's session state (created on first access)."""
        return self.sessions.session(user_id)

    def sp_log(self, service: str | None = None) -> list[SPRequest]:
        """The requests a service provider actually received."""
        return self.audit.sp_log(service)

    def forwarded_requests(self) -> list[Request]:
        """TS-side records of all forwarded requests (evaluation only)."""
        return self.audit.forwarded_requests()

    def decision_counts(self) -> dict:
        """Histogram of decisions over all processed requests."""
        return self.audit.decision_counts()
