"""End-to-end simulation of the Figure 1 service model.

Replays a :class:`~repro.mobility.population.SyntheticCity` through a
*fresh* Trusted Server in strict timestamp order — the online regime: the
TS sees location updates and requests as they happen and Algorithm 1 can
only use PHL points already ingested.  A configurable fraction of samples
become service requests; commuter samples matching the user's own LBQID
elements request with a higher probability (navigation queries at the
commute anchors), which is what exercises the monitoring/generalization
path.

The resulting :class:`SimulationReport` carries the TS audit trail, the
per-provider logs (the attacker's view), and the populated store (the
ground truth for Definition 8 verification).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.core.anonymizer import (
    AnonymitySetScope,
    AnonymizerEvent,
    Decision,
    TrustedAnonymizer,
)
from repro.core.generalization import ToleranceConstraint
from repro.core.policy import PolicyTable
from repro.core.randomization import BoxRandomizer
from repro.core.unlinking import UnlinkingProvider
from repro.engine.pipeline import BatchItem, Engine
from repro.engine.session import SessionStore
from repro.geometry.point import STPoint
from repro.mobility.population import SyntheticCity
from repro.mod.store import TrajectoryStore
from repro.obs.config import Telemetry, TelemetryConfig, resolve_telemetry
from repro.obs.metrics import MetricsSnapshot
from repro.obs.render import render_summary
from repro.obs.slo import PrivacyMonitor, SloRule
from repro.ts.providers import ServiceProvider


@dataclass(frozen=True)
class RequestProfile:
    """How often users turn location samples into service requests.

    ``anchor_request_probability`` applies to commuter samples matching
    an element of the commuter's own LBQID; ``background_probability``
    to every other sample.
    """

    background_probability: float = 0.02
    anchor_request_probability: float = 0.9
    service: str = "poi"

    def __post_init__(self) -> None:
        for value, label in (
            (self.background_probability, "background_probability"),
            (self.anchor_request_probability, "anchor_request_probability"),
        ):
            if not 0 <= value <= 1:
                raise ValueError(f"{label} must be in [0, 1], got {value}")


@dataclass
class SimulationReport:
    """Everything the experiments need from one simulation run."""

    anonymizer: TrustedAnonymizer
    providers: dict[str, ServiceProvider]
    requests_issued: int = 0
    location_updates: int = 0
    events: list[AnonymizerEvent] = field(default_factory=list)
    #: The telemetry pipeline the run recorded into (the disabled
    #: singleton when the simulation ran without telemetry).
    telemetry: Telemetry | None = None
    #: The streaming SLO auditor, when the simulation was configured
    #: with ``slo_rules`` (requires enabled telemetry).
    privacy_monitor: PrivacyMonitor | None = None

    @property
    def store(self) -> TrajectoryStore:
        """The TS store populated during the run (ground truth)."""
        return self.anonymizer.store

    def decision_counts(self) -> dict[Decision, int]:
        return self.anonymizer.decision_counts()

    def generalized_events(self) -> list[AnonymizerEvent]:
        """Events where Algorithm 1 ran (an LBQID element matched)."""
        return [e for e in self.events if e.lbqid_name is not None]

    def metrics_snapshot(self) -> MetricsSnapshot | None:
        """Frozen metrics of the run; ``None`` without telemetry."""
        if self.telemetry is None or not self.telemetry.enabled:
            return None
        return self.telemetry.snapshot()

    def summary(self) -> str:
        """Decision tallies, SLO status (when monitored), telemetry."""
        counts = self.decision_counts()
        lines = ["== simulation =="]
        lines.append(
            f"requests={self.requests_issued}  "
            f"location_updates={self.location_updates}"
        )
        for decision in Decision:
            if counts[decision]:
                lines.append(
                    f"  {decision.value:18s} {counts[decision]}"
                )
        if self.privacy_monitor is not None:
            lines.append("")
            lines.extend(self.privacy_monitor.summary_lines())
        snapshot = self.metrics_snapshot()
        if snapshot is not None:
            lines.append("")
            lines.append(render_summary(snapshot))
        return "\n".join(lines)


class LBSSimulation:
    """Drives a city's samples through the anonymizing Trusted Server."""

    def __init__(
        self,
        city: SyntheticCity,
        policy: PolicyTable | None = None,
        unlinker: UnlinkingProvider | None = None,
        scope: AnonymitySetScope = AnonymitySetScope.PER_LBQID,
        request_profile: RequestProfile | None = None,
        default_cloak: ToleranceConstraint | None = None,
        register_lbqids: bool = True,
        register_home_lbqids: bool = False,
        randomizer: "BoxRandomizer | None" = None,
        quiet_period: float = 0.0,
        telemetry: "Telemetry | TelemetryConfig | None" = None,
        slo_rules: "Iterable[SloRule | str] | None" = None,
        slo_window_s: float = 2 * 3600.0,
        session_store: "SessionStore | None" = None,
        audit: str = "full",
        seed: int = 97,
    ) -> None:
        self.city = city
        self.request_profile = request_profile or RequestProfile()
        self._rng = np.random.default_rng(seed)
        #: One telemetry pipeline shared by the store, the anonymizer,
        #: and every LBQID monitor.
        self.telemetry = resolve_telemetry(telemetry)
        #: ``session_store`` picks the engine's per-user state backend
        #: (e.g. ``ShardedSessionStore(n_shards=4)``); ``audit`` bounds
        #: the audit trail (``"counts"`` drops per-request event
        #: retention for long / million-user runs).
        self.anonymizer = TrustedAnonymizer(
            store=TrajectoryStore(telemetry=self.telemetry),
            policy=policy,
            unlinker=unlinker,
            scope=scope,
            default_cloak=default_cloak,
            randomizer=randomizer,
            quiet_period=quiet_period,
            telemetry=self.telemetry,
            sessions=session_store,
            audit=audit,
        )
        #: The staged engine the replay actually drives (the anonymizer
        #: is its byte-compatible facade).
        self.engine: Engine = self.anonymizer.engine
        #: Online privacy auditing: subscribe a PrivacyMonitor to the
        #: shared pipeline.  Rules require telemetry — the monitor
        #: consumes the anonymizer's streamed decision events.
        self.privacy_monitor: PrivacyMonitor | None = None
        if slo_rules is not None:
            if not self.telemetry.enabled:
                raise ValueError(
                    "slo_rules require enabled telemetry; pass "
                    "telemetry=TelemetryConfig(enabled=True)"
                )
            self.privacy_monitor = PrivacyMonitor(
                store=self.anonymizer.store,
                rules=slo_rules,
                window_s=slo_window_s,
                homes=(
                    city.home_locations()
                    if hasattr(city, "home_locations")
                    else None
                ),
            ).attach(self.telemetry)
        self._own_lbqids = {}
        if register_lbqids:
            for commuter in city.commuters:
                lbqid = commuter.lbqid()
                self.anonymizer.register_lbqid(commuter.user_id, lbqid)
                self._own_lbqids[commuter.user_id] = lbqid
        if register_home_lbqids:
            # Declare the dwelling itself a quasi-identifier: every
            # request issued from home is then generalized (see
            # Commuter.home_lbqid and benchmark E6).
            for commuter in city.commuters:
                self.anonymizer.register_lbqid(
                    commuter.user_id, commuter.home_lbqid()
                )

    def run(self) -> SimulationReport:
        """Replay every sample in timestamp order; return the report."""
        profile = self.request_profile
        provider = ServiceProvider(profile.service)
        report = SimulationReport(
            anonymizer=self.anonymizer,
            providers={profile.service: provider},
            telemetry=self.telemetry,
            privacy_monitor=self.privacy_monitor,
        )
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.gauge(
                "sim.users", len(list(self.city.store.user_ids()))
            )
        with telemetry.span("sim.run", service=profile.service):
            # The timeline becomes one engine batch: requests drain the
            # buffered location updates before running, so every request
            # sees exactly the store state of one-at-a-time replay while
            # update runs pay a single store-version bump each.
            items = [
                BatchItem(
                    user_id=user_id,
                    location=sample,
                    service=(
                        profile.service
                        if self._is_request(user_id, sample)
                        else None
                    ),
                )
                for user_id, sample in self._timeline()
            ]
            report.location_updates = sum(
                1 for item in items if not item.is_request
            )
            for event in self.engine.process_batch(items):
                report.requests_issued += 1
                if event.forwarded:
                    provider.receive(event.request.sp_view())
        report.events = list(self.anonymizer.events)
        telemetry.gauge("sim.requests_issued", report.requests_issued)
        if self.privacy_monitor is not None:
            # Final roll-over so the last partial window is audited and
            # the slo.* gauges reflect end-of-run state.
            self.privacy_monitor.evaluate()
        telemetry.flush()
        return report

    def _timeline(self) -> list[tuple[int, STPoint]]:
        """All (user, sample) pairs of the city, sorted by time."""
        events = [
            (user_id, sample)
            for user_id in self.city.store.user_ids()
            for sample in self.city.store.history(user_id)
        ]
        events.sort(key=lambda item: item[1].t)
        return events

    def _is_request(self, user_id: int, sample: STPoint) -> bool:
        profile = self.request_profile
        lbqid = self._own_lbqids.get(user_id)
        if lbqid is not None and lbqid.element_matching(sample) is not None:
            return self._rng.random() < profile.anchor_request_probability
        return self._rng.random() < profile.background_probability
