"""Integration-grade unit tests for the LBS simulation."""

import pytest

from repro.core.unlinking import AlwaysUnlink
from repro.engine.context import Decision
from repro.experiments.workloads import (
    DEFAULT_TOLERANCE,
    make_policy,
    small_city,
)
from repro.obs import TelemetryConfig
from repro.ts.simulation import LBSSimulation, RequestProfile


@pytest.fixture(scope="module")
def report(city):
    simulation = LBSSimulation(
        city,
        policy=make_policy(k=3),
        unlinker=AlwaysUnlink(),
        seed=5,
    )
    return simulation.run()


# Reuse the session city fixture under a module-scoped name.
@pytest.fixture(scope="module")
def city():
    return small_city(seed=11)


class TestRun:
    def test_every_sample_processed(self, city, report):
        total = report.requests_issued + report.location_updates
        assert total == city.store.total_points

    def test_store_mirrors_city(self, city, report):
        assert report.store.total_points == city.store.total_points

    def test_events_match_requests(self, report):
        assert len(report.events) == report.requests_issued

    def test_provider_got_only_forwarded(self, report):
        provider = report.providers["poi"]
        forwarded = sum(1 for e in report.events if e.forwarded)
        assert provider.request_count == forwarded

    def test_some_generalization_happened(self, report):
        counts = report.decision_counts()
        assert counts[Decision.GENERALIZED] > 0

    def test_generalized_events_have_lbqid(self, report):
        for event in report.generalized_events():
            assert event.lbqid_name is not None


class TestEngine:
    def test_store_starts_cold_and_the_report_carries_the_engine(
        self, city
    ):
        """The offline TS learns only from the replayed traffic."""
        simulation = LBSSimulation(
            city,
            register_lbqids=False,
            request_profile=RequestProfile(
                background_probability=0.0,
                anchor_request_probability=0.0,
            ),
        )
        assert simulation.engine.store.total_points == 0
        report = simulation.run()
        assert report.engine is simulation.engine
        assert report.store is simulation.engine.store
        assert report.store.total_points == city.store.total_points


class TestRequestProfile:
    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            RequestProfile(background_probability=2.0)

    def test_zero_probability_produces_no_requests(self, city):
        simulation = LBSSimulation(
            city,
            register_lbqids=False,
            request_profile=RequestProfile(
                background_probability=0.0,
                anchor_request_probability=0.0,
            ),
        )
        report = simulation.run()
        assert report.requests_issued == 0

    def test_without_lbqids_no_generalization(self, city):
        simulation = LBSSimulation(
            city,
            register_lbqids=False,
            request_profile=RequestProfile(background_probability=0.05),
            seed=3,
        )
        report = simulation.run()
        assert report.requests_issued > 0
        assert not report.generalized_events()


@pytest.fixture(scope="module")
def telemetry_report(city):
    simulation = LBSSimulation(
        city,
        policy=make_policy(k=3),
        unlinker=AlwaysUnlink(),
        telemetry=TelemetryConfig(enabled=True),
        seed=5,
    )
    return simulation.run()


class TestTelemetry:
    def test_decision_counters_match_audit_trail(self, telemetry_report):
        snapshot = telemetry_report.metrics_snapshot()
        audit = telemetry_report.decision_counts()
        for decision in Decision:
            assert snapshot.counter_value(
                "ts.decisions", decision=decision.value
            ) == audit[decision], decision

    def test_request_and_update_counters(self, telemetry_report):
        snapshot = telemetry_report.metrics_snapshot()
        assert (
            snapshot.counter_value("ts.requests")
            == telemetry_report.requests_issued
        )
        # Every request doubles as a location update, so the PHL-ingest
        # counter covers both streams.
        assert snapshot.counter_value("ts.location_updates") == (
            telemetry_report.requests_issued
            + telemetry_report.location_updates
        )

    def test_summary_renders(self, telemetry_report):
        text = telemetry_report.summary()
        assert "== simulation ==" in text
        assert "== telemetry ==" in text
        assert "ts.decisions" in text

    def test_disabled_by_default(self, city):
        report = LBSSimulation(
            city,
            policy=make_policy(k=3),
            unlinker=AlwaysUnlink(),
            seed=5,
        ).run()
        assert report.metrics_snapshot() is None
        assert "== telemetry ==" not in report.summary()


class TestStageTelemetryInSummary:
    def test_stage_ms_histograms_reach_the_report_summary(
        self, telemetry_report
    ):
        summary = telemetry_report.summary()
        assert "engine.stage_ms" in summary
        snapshot = telemetry_report.metrics_snapshot()
        for stage in (
            "quiet_gate",
            "monitor_match",
            "generalize",
            "audit",
        ):
            histogram = snapshot.histogram_summary(
                "engine.stage_ms", stage=stage
            )
            assert histogram is not None, stage
            assert histogram.count > 0


class TestDeterminism:
    def test_same_seed_same_outcome(self, city):
        def run():
            return LBSSimulation(
                city,
                policy=make_policy(k=3, tolerance=DEFAULT_TOLERANCE),
                unlinker=AlwaysUnlink(),
                seed=17,
            ).run()

        a, b = run(), run()
        assert a.requests_issued == b.requests_issued
        assert a.decision_counts() == b.decision_counts()
