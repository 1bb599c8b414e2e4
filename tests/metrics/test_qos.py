"""Unit tests for QoS metrics."""

import pytest

from repro.core.requests import Request
from repro.engine.context import AnonymizerEvent, Decision
from repro.geometry.point import STPoint
from repro.geometry.region import Interval, Rect, STBox
from repro.metrics.qos import qos_summary


def event(decision, width=100.0, duration=60.0, lbqid="q", forwarded=True):
    context = STBox(
        Rect(0, 0, width, width), Interval(0.0, duration)
    )
    location = STPoint(
        context.rect.center.x, context.rect.center.y,
        context.interval.center,
    )
    request = Request.issue(1, 1, "p", location).with_context(context)
    return AnonymizerEvent(
        request=request,
        decision=decision,
        forwarded=forwarded,
        lbqid_name=lbqid,
    )


class TestQoSSummary:
    def test_empty(self):
        summary = qos_summary([])
        assert summary.requests == 0
        assert summary.mean_area_m2 == 0.0

    def test_mean_sizes(self):
        events = [
            event(Decision.GENERALIZED, width=100.0, duration=60.0),
            event(Decision.GENERALIZED, width=300.0, duration=120.0),
        ]
        summary = qos_summary(events)
        assert summary.mean_width_m == pytest.approx(200.0)
        assert summary.mean_duration_s == pytest.approx(90.0)
        assert summary.mean_area_m2 == pytest.approx(
            (100.0**2 + 300.0**2) / 2
        )

    def test_rates(self):
        events = [
            event(Decision.GENERALIZED),
            event(Decision.UNLINKED),
            event(Decision.SUPPRESSED, forwarded=False),
            event(Decision.AT_RISK_FORWARDED),
        ]
        summary = qos_summary(events)
        assert summary.suppression_rate == pytest.approx(0.25)
        assert summary.unlink_rate == pytest.approx(0.25)
        assert summary.at_risk_rate == pytest.approx(0.5)

    def test_generalized_only_excludes_plain_forwards(self):
        events = [
            event(Decision.GENERALIZED, width=100.0),
            event(Decision.FORWARDED, width=0.0, lbqid=None),
        ]
        summary = qos_summary(events, generalized_only=True)
        assert summary.mean_width_m == pytest.approx(100.0)
        both = qos_summary(events, generalized_only=False)
        assert both.mean_width_m == pytest.approx(50.0)

    def test_suppressed_contexts_not_sized(self):
        events = [
            event(Decision.GENERALIZED, width=100.0),
            event(Decision.SUPPRESSED, width=900.0, forwarded=False),
        ]
        summary = qos_summary(events)
        assert summary.mean_width_m == pytest.approx(100.0)

    def test_p95(self):
        events = [
            event(Decision.GENERALIZED, width=float(w))
            for w in range(1, 101)
        ]
        summary = qos_summary(events)
        assert summary.p95_width_m == pytest.approx(95.0)

    def test_row_matches_fields(self):
        summary = qos_summary([event(Decision.GENERALIZED)])
        assert len(summary.row()) == 8
