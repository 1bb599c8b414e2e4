"""Unit tests for the post-unlinking quiet period (Section 6.3)."""

import pytest

from repro.core.generalization import ToleranceConstraint
from repro.core.lbqid import commute_lbqid
from repro.core.policy import PolicyTable, PrivacyProfile
from repro.core.unlinking import AlwaysUnlink
from repro.engine.context import Decision
from repro.engine.pipeline import Engine
from repro.geometry.point import STPoint
from repro.geometry.region import Rect
from repro.granularity.timeline import time_at
from repro.mod.store import TrajectoryStore

HOME = Rect(0, 0, 100, 100)
OFFICE = Rect(900, 900, 1000, 1000)
USER = 1
TIGHT = ToleranceConstraint.square(1.0, 1.0)


def make_engine(quiet_period):
    engine = Engine(
        TrajectoryStore(),
        policy=PolicyTable(
            default_profile=PrivacyProfile(k=3),
            default_tolerance=TIGHT,
        ),
        unlinker=AlwaysUnlink(),
        quiet_period=quiet_period,
    )
    engine.register_lbqid(USER, commute_lbqid(HOME, OFFICE, name="commute"))
    return engine


class TestQuietPeriod:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Engine(TrajectoryStore(), quiet_period=-1.0)

    def test_requests_in_window_silenced(self):
        engine = make_engine(quiet_period=1800.0)
        # Generalization fails (tight tolerance, no neighbours) ->
        # unlink succeeds -> quiet window opens.
        first = engine.process(USER, STPoint(50, 50, time_at(hour=7.5)))
        assert first.decision is Decision.UNLINKED
        during = engine.process(USER, STPoint(60, 50, time_at(hour=7.6)))
        assert during.decision is Decision.QUIET
        assert not during.forwarded

    def test_window_expires(self):
        engine = make_engine(quiet_period=600.0)
        engine.process(USER, STPoint(50, 50, time_at(hour=7.5)))
        later = engine.process(
            USER, STPoint(500, 500, time_at(hour=9.0))
        )
        assert later.decision is not Decision.QUIET

    def test_zero_quiet_never_silences(self):
        engine = make_engine(quiet_period=0.0)
        engine.process(USER, STPoint(50, 50, time_at(hour=7.5)))
        after = engine.process(USER, STPoint(60, 50, time_at(hour=7.51)))
        assert after.decision is not Decision.QUIET

    def test_quiet_requests_still_ingested(self):
        engine = make_engine(quiet_period=1800.0)
        engine.process(USER, STPoint(50, 50, time_at(hour=7.5)))
        engine.process(USER, STPoint(60, 50, time_at(hour=7.6)))
        assert len(engine.store.history(USER)) == 2

    def test_quiet_not_in_sp_log(self):
        engine = make_engine(quiet_period=1800.0)
        engine.process(USER, STPoint(50, 50, time_at(hour=7.5)))
        engine.process(USER, STPoint(60, 50, time_at(hour=7.6)))
        msgids = {request.msgid for request in engine.sp_log()}
        assert msgids == {1}  # only the unlinked request went out

    def test_other_users_unaffected(self):
        engine = make_engine(quiet_period=1800.0)
        engine.process(USER, STPoint(50, 50, time_at(hour=7.5)))
        other = engine.process(2, STPoint(500, 500, time_at(hour=7.6)))
        assert other.decision is Decision.FORWARDED
