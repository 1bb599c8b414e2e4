"""The instrumented pipeline: metrics must mirror the audit trail."""

import pytest

from repro.core.generalization import ToleranceConstraint
from repro.core.lbqid import commute_lbqid
from repro.core.policy import PolicyTable, PrivacyProfile, RiskAction
from repro.core.unlinking import NeverUnlink
from repro.engine.context import Decision
from repro.engine.pipeline import Engine
from repro.geometry.point import STPoint
from repro.geometry.region import Rect
from repro.granularity.timeline import time_at
from repro.mod.store import TrajectoryStore
from repro.obs import NULL_TELEMETRY, TelemetryConfig

HOME = Rect(0, 0, 100, 100)
OFFICE = Rect(900, 900, 1000, 1000)
USER = 1
NEIGHBOURS = (2, 3, 4, 5, 6)

LOOSE = ToleranceConstraint.square(5_000.0, 7_200.0)
TIGHT = ToleranceConstraint.square(10.0, 10.0)


def run_scenario(telemetry=None, tolerance=LOOSE):
    """Two weeks of commute traffic through an instrumented TS.

    The tight-tolerance variant also exercises the failure branches
    (suppression under ``NeverUnlink``).
    """
    policy = PolicyTable(
        default_profile=PrivacyProfile(k=3, on_risk=RiskAction.SUPPRESS),
        default_tolerance=tolerance,
    )
    engine = Engine(
        TrajectoryStore(telemetry=telemetry),
        policy=policy,
        unlinker=NeverUnlink(),
        telemetry=telemetry,
    )
    engine.register_lbqid(USER, commute_lbqid(HOME, OFFICE, name="commute"))
    for week in range(2):
        for day in range(3):
            for offset, neighbour in enumerate(NEIGHBOURS):
                jitter = 2.0 * offset
                for hour, (x, y) in (
                    (7.4, (40, 40)),
                    (8.4, (950, 950)),
                    (17.1, (950, 950)),
                    (18.1, (40, 40)),
                ):
                    engine.report_location(
                        neighbour,
                        STPoint(
                            x + jitter, y,
                            time_at(week=week, day=day, hour=hour),
                        ),
                    )
            for hour, (x, y) in (
                (7.5, (50, 50)),
                (8.5, (950, 950)),
                (17.2, (950, 950)),
                (18.2, (50, 50)),
            ):
                engine.process(
                    USER,
                    STPoint(x, y, time_at(week=week, day=day, hour=hour)),
                    service="poi",
                )
            # An off-pattern request that is plainly forwarded.
            engine.process(
                USER,
                STPoint(500, 200, time_at(week=week, day=day, hour=12.0)),
            )
    return engine


class TestDecisionCountersMatchAuditTrail:
    @pytest.mark.parametrize("tolerance", [LOOSE, TIGHT])
    def test_counters_equal_audit_tallies(self, tolerance):
        telemetry = TelemetryConfig(enabled=True).build()
        engine = run_scenario(telemetry=telemetry, tolerance=tolerance)
        snapshot = telemetry.snapshot()
        audit = engine.decision_counts()
        for decision in Decision:
            assert snapshot.counter_value(
                "ts.decisions", decision=decision.value
            ) == audit[decision], decision
        assert snapshot.counter_value("ts.requests") == len(engine.events)

    def test_failure_branches_reached(self):
        """The tight scenario actually exercises suppression."""
        engine = run_scenario(
            telemetry=TelemetryConfig(enabled=True).build(),
            tolerance=TIGHT,
        )
        assert engine.decision_counts()[Decision.SUPPRESSED] > 0


class TestPipelineMetrics:
    @pytest.fixture(scope="class")
    def run(self):
        telemetry = TelemetryConfig(enabled=True, ring_buffer=4096).build()
        engine = run_scenario(telemetry=telemetry)
        return engine, telemetry.snapshot(), telemetry

    def test_generalization_histograms_cover_every_algorithm1_run(
        self, run
    ):
        engine, snapshot, _telemetry = run
        generalizations = sum(
            1 for e in engine.events if e.generalization is not None
        )
        for name in (
            "ts.anonymity_set_size",
            "ts.box_area_m2",
            "ts.box_duration_s",
        ):
            assert snapshot.histogram_summary(name).count == generalizations

    def test_latency_histogram_counts_every_request(self, run):
        engine, snapshot, _telemetry = run
        summary = snapshot.histogram_summary("ts.request_latency_ms")
        assert summary.count == len(engine.events)
        assert summary.minimum >= 0

    def test_monitor_counters(self, run):
        engine, snapshot, _telemetry = run
        matched = sum(1 for e in engine.events if e.lbqid_name is not None)
        assert snapshot.counter_value("monitor.match_events") == matched
        assert snapshot.counter_value("monitor.lbqids_matched") >= 1

    def test_store_queries_recorded(self, run):
        _ts, snapshot, _telemetry = run
        # Every store.queries sample carries a ``method`` label:
        # ``numpy`` for the columnar view, ``brute`` for PHL scans.
        assert (
            snapshot.counter_value(
                "store.queries", query="nearest_users", method="numpy"
            )
            > 0
        )
        assert (
            snapshot.counter_value(
                "store.queries", query="closest_point", method="brute"
            )
            > 0
        )

    def test_request_spans_in_ring_buffer(self, run):
        engine, _snapshot, telemetry = run
        spans = telemetry.ring().spans()
        request_spans = [s for s in spans if s["name"] == "ts.request"]
        assert len(request_spans) == len(engine.events)
        decisions = {s["attributes"]["decision"] for s in request_spans}
        assert "generalized" in decisions


class TestDisabledFastPath:
    def test_disabled_records_nothing_and_behaves_identically(self):
        enabled = TelemetryConfig(enabled=True).build()
        ts_on = run_scenario(telemetry=enabled)
        ts_off = run_scenario(telemetry=None)
        assert ts_on.decision_counts() == ts_off.decision_counts()
        assert [e.decision for e in ts_on.events] == [
            e.decision for e in ts_off.events
        ]

    def test_default_is_the_shared_null_singleton(self):
        engine = Engine(TrajectoryStore())
        assert engine.telemetry is NULL_TELEMETRY
        assert not engine.telemetry.enabled
        snapshot = NULL_TELEMETRY.snapshot()
        assert not snapshot.counters
        assert not snapshot.histograms

    def test_disabled_config_builds_null(self):
        assert TelemetryConfig().build() is NULL_TELEMETRY
        assert TelemetryConfig(enabled=False, console=True).build() is (
            NULL_TELEMETRY
        )
