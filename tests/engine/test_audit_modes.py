"""Bounded audit-trail retention (``audit="full" | "counts"``).

``"counts"`` mode is the ROADMAP's memory valve for million-user runs:
per-request ground-truth events are dropped while the O(decisions)
tally and the SP-visible log — all that the attacker-side evaluation
sees — stay exact.
"""

import pytest

from repro.core.generalization import ToleranceConstraint
from repro.core.policy import PolicyTable, PrivacyProfile
from repro.core.requests import Request
from repro.core.unlinking import AlwaysUnlink
from repro.engine.audit import AUDIT_MODES, AuditTrail
from repro.engine.context import (
    AnonymitySetScope,
    AnonymizerEvent,
    Decision,
)
from repro.engine.pipeline import Engine
from repro.geometry.point import STPoint
from repro.granularity.timeline import time_at
from tests.engine.test_pipeline import USER, home_lbqid, seeded_store
from tests.engine.workload import build_city, build_simulation


def make_engine(audit="full"):
    engine = Engine(
        seeded_store(),
        policy=PolicyTable(
            default_profile=PrivacyProfile(k=3),
            default_tolerance=ToleranceConstraint.square(5_000.0, 7_200.0),
        ),
        unlinker=AlwaysUnlink(),
        audit=audit,
    )
    engine.register_lbqid(USER, home_lbqid())
    return engine


def drive(engine):
    """One generalized and one plainly forwarded request."""
    first = engine.process(USER, STPoint(50, 50, time_at(hour=7.5)))
    second = engine.process(9, STPoint(2_000, 2_000, time_at(hour=9.0)))
    return first, second


def stub_event(forwarded=True, decision=Decision.FORWARDED):
    request = Request.issue(
        msgid=1,
        user_id=USER,
        pseudonym="p1",
        location=STPoint(50, 50, 100.0),
        service="poi",
    )
    return AnonymizerEvent(
        request=request, decision=decision, forwarded=forwarded
    )


class TestAuditTrail:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="counts"):
            AuditTrail(mode="verbose")
        assert AUDIT_MODES == ("full", "counts")

    def test_full_mode_retains_everything(self):
        trail = AuditTrail()
        assert trail.retains_events
        event = stub_event()
        trail.record(event)
        assert trail.events == [event]
        assert trail.decision_counts()[Decision.FORWARDED] == 1
        assert len(trail.sp_log()) == 1
        assert trail.forwarded_requests() == [event.request]

    def test_counts_mode_drops_events_keeps_tallies(self):
        trail = AuditTrail(mode="counts")
        assert not trail.retains_events
        trail.record(stub_event())
        trail.record(
            stub_event(forwarded=False, decision=Decision.SUPPRESSED)
        )
        assert trail.events == []
        counts = trail.decision_counts()
        assert counts[Decision.FORWARDED] == 1
        assert counts[Decision.SUPPRESSED] == 1
        # The SP-visible log still accumulates forwarded traffic only.
        sp_log = trail.sp_log()
        assert [sp.msgid for sp in sp_log] == [1]

    def test_counts_mode_refuses_ts_side_ground_truth(self):
        trail = AuditTrail(mode="counts")
        trail.record(stub_event())
        with pytest.raises(RuntimeError, match="sp_log"):
            trail.forwarded_requests()

    def test_sp_log_filters_by_service(self):
        trail = AuditTrail()
        trail.record(stub_event())
        assert trail.sp_log("poi")
        assert trail.sp_log("weather") == []


class TestAnonymizerAuditModes:
    def test_default_is_full_retention(self):
        engine = make_engine()
        first, second = drive(engine)
        assert engine.events == [first, second]
        assert len(engine.forwarded_requests()) == 2

    def test_counts_mode_end_to_end(self):
        full = make_engine()
        bounded = make_engine(audit="counts")
        drive(full)
        bounded_first, bounded_second = drive(bounded)
        # Decisions are unaffected by the retention policy...
        assert bounded_first.decision is Decision.GENERALIZED
        assert bounded_second.decision is Decision.FORWARDED
        assert bounded.decision_counts() == full.decision_counts()
        # ...the caller still gets each event, but nothing is retained.
        assert bounded.events == []
        sp = bounded.sp_log()
        assert [r.msgid for r in sp] == [r.msgid for r in full.sp_log()]
        with pytest.raises(RuntimeError):
            bounded.forwarded_requests()

    def test_invalid_mode_rejected_at_construction(self):
        with pytest.raises(ValueError):
            make_engine(audit="everything")


class TestSimulationAuditModes:
    def test_counts_mode_simulation_still_reports(self):
        simulation = build_simulation(
            build_city(), AnonymitySetScope.PER_LBQID, audit="counts"
        )
        report = simulation.run()
        assert report.events == []
        assert report.requests_issued > 0
        counts = report.decision_counts()
        assert sum(counts.values()) == report.requests_issued
        provider = report.providers["poi"]
        assert len(provider.log) == len(report.engine.sp_log())
