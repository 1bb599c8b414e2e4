"""End-to-end: the streaming PrivacyMonitor agrees with post-hoc audits.

The monitor sees only the engine's ``ts.decision`` event stream; the
post-hoc metrics in :mod:`repro.metrics` read the full audit trail and
the TS store.  Run both over one simulation and they must tell the same
story — with the audit window opened wider than the simulated fortnight
so the "window" estimates cover the entire run.
"""

import pytest

from repro.core.unlinking import AlwaysUnlink
from repro.engine.context import Decision
from repro.experiments.workloads import make_policy, small_city
from repro.metrics.anonymity import anonymity_summary, historical_k_per_user
from repro.metrics.qos import qos_summary
from repro.obs.config import TelemetryConfig
from repro.ts.simulation import LBSSimulation

K = 4
#: Wider than the simulated period, so windowed estimates span the run.
FULL_RUN = 1e9


@pytest.fixture(scope="module")
def city():
    return small_city(seed=11)


@pytest.fixture(scope="module")
def report(city):
    simulation = LBSSimulation(
        city,
        policy=make_policy(k=K),
        unlinker=AlwaysUnlink(),
        telemetry=TelemetryConfig(enabled=True, ring_buffer=256),
        slo_rules=[
            "k_attainment >= 0.95 over 2h",
            "unlink_rate <= 0.5/min over 1h",
        ],
        slo_window_s=FULL_RUN,
        seed=23,
    )
    return simulation.run()


@pytest.fixture(scope="module")
def monitor(report):
    assert report.privacy_monitor is not None
    return report.privacy_monitor


class TestMonitorMatchesPostHocAudit:
    def test_historical_k_identical_to_post_hoc(self, report, monitor):
        """The headline property: the online candidate-filtering
        estimate equals Definition 8 evaluated on the full store."""
        post_hoc = historical_k_per_user(
            report.events, report.store.histories
        )
        assert post_hoc
        assert monitor.historical_k_per_user() == post_hoc

    def test_k_attainment_consistent_with_post_hoc_minimum(
        self, report, monitor
    ):
        post_hoc = historical_k_per_user(
            report.events, report.store.histories
        )
        if min(post_hoc.values()) >= K:
            assert monitor.k_attainment() == 1.0
        else:
            assert monitor.k_attainment() < 1.0

    def test_decision_tallies_match_audit_trail(self, report, monitor):
        counts = report.decision_counts()
        for decision in Decision:
            assert (
                monitor.decision_totals[decision.value]
                == counts[decision]
            )
        assert monitor.events_seen == len(report.events)
        assert monitor.unlink_total == sum(
            1 for e in report.events if e.pseudonym_rotated
        )

    def test_qos_means_match_qos_summary(self, report, monitor):
        qos = qos_summary(report.events)
        assert monitor.mean_area_m2() == pytest.approx(
            qos.mean_area_m2, rel=1e-9
        )
        assert monitor.mean_duration_s() == pytest.approx(
            qos.mean_duration_s, rel=1e-9
        )

    def test_decision_rates_match_qos_summary(self, report, monitor):
        qos = qos_summary(report.events)
        assert monitor.suppression_rate() == pytest.approx(
            qos.suppression_rate, rel=1e-9
        )
        assert monitor.at_risk_rate() == pytest.approx(
            qos.at_risk_rate, rel=1e-9
        )

    def test_monitor_saw_every_generalized_request(self, report, monitor):
        summary = anonymity_summary(
            report.events, report.store.histories, k=K
        )
        # Groups tracked online cover exactly the population the
        # post-hoc anonymity audit reads from the trail.
        assert summary.requests == sum(
            len(g.contexts) for g in monitor._groups.values()
        )


class TestSloSurfacing:
    def test_report_summary_includes_slo_block(self, report):
        text = report.summary()
        assert "privacy SLOs" in text
        assert "k_attainment" in text

    def test_final_gauges_reflect_end_of_run_state(self, report, monitor):
        snapshot = report.metrics_snapshot()
        assert snapshot.gauge_value(
            "slo.k_attainment"
        ) == pytest.approx(monitor.k_attainment())
        assert snapshot.gauge_value(
            "slo.unlink_rate"
        ) == pytest.approx(monitor.unlink_rate())

    def test_statuses_cover_every_rule(self, monitor):
        statuses = monitor.evaluate()
        by_rule = {s.rule.metric for s in monitor.status.values()}
        assert by_rule == {"k_attainment", "unlink_rate"}
        assert statuses == []  # no state changes on a repeat evaluate


class TestTelemetryGating:
    def test_slo_rules_require_enabled_telemetry(self, city):
        with pytest.raises(ValueError, match="telemetry"):
            LBSSimulation(
                city,
                policy=make_policy(k=K),
                slo_rules=["k_attainment >= 0.95"],
            )

    def test_disabled_telemetry_runs_without_monitor(self, city):
        report = LBSSimulation(
            city,
            policy=make_policy(k=K),
            unlinker=AlwaysUnlink(),
            seed=23,
        ).run()
        assert report.privacy_monitor is None
        assert "privacy SLOs" not in report.summary()
