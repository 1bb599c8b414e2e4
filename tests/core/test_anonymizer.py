"""Unit tests for the Section 6.1 preservation strategy."""

from repro.core.generalization import ToleranceConstraint
from repro.core.lbqid import commute_lbqid
from repro.core.policy import (
    PolicyTable,
    PrivacyProfile,
    RiskAction,
)
from repro.core.unlinking import AlwaysUnlink, NeverUnlink
from repro.engine.context import AnonymitySetScope, Decision
from repro.engine.pipeline import Engine
from repro.geometry.point import STPoint
from repro.geometry.region import Rect
from repro.granularity.timeline import time_at
from repro.mod.store import TrajectoryStore

HOME = Rect(0, 0, 100, 100)
OFFICE = Rect(900, 900, 1000, 1000)
USER = 1
NEIGHBOURS = (2, 3, 4, 5, 6)

LOOSE = ToleranceConstraint.square(5_000.0, 7_200.0)
TIGHT = ToleranceConstraint.square(10.0, 10.0)


def neighbour_points(week, day):
    """One commute-shaped day of samples for each neighbour."""
    for offset, user_id in enumerate(NEIGHBOURS):
        jitter = 2.0 * offset
        yield user_id, STPoint(
            40 + jitter, 40, time_at(week=week, day=day, hour=7.4)
        )
        yield user_id, STPoint(
            950 + jitter, 950, time_at(week=week, day=day, hour=8.4)
        )
        yield user_id, STPoint(
            950 + jitter, 950, time_at(week=week, day=day, hour=17.1)
        )
        yield user_id, STPoint(
            40 + jitter, 40, time_at(week=week, day=day, hour=18.1)
        )


def commute_requests(week, day):
    """User 1's four anchor requests on one day."""
    return [
        STPoint(50, 50, time_at(week=week, day=day, hour=7.5)),
        STPoint(950, 950, time_at(week=week, day=day, hour=8.5)),
        STPoint(950, 950, time_at(week=week, day=day, hour=17.2)),
        STPoint(50, 50, time_at(week=week, day=day, hour=18.2)),
    ]


def make_engine(
    k=3,
    tolerance=LOOSE,
    unlinker=None,
    scope=AnonymitySetScope.PER_LBQID,
    on_risk=RiskAction.SUPPRESS,
    k_prime_initial=None,
):
    policy = PolicyTable(
        default_profile=PrivacyProfile(
            k=k, k_prime_initial=k_prime_initial, on_risk=on_risk
        ),
        default_tolerance=tolerance,
    )
    engine = Engine(
        TrajectoryStore(),
        policy=policy,
        unlinker=unlinker or NeverUnlink(),
        scope=scope,
    )
    engine.register_lbqid(USER, commute_lbqid(HOME, OFFICE, name="commute"))
    return engine


def feed_day(engine, week, day, stop_after=None):
    """Interleave neighbour updates and user requests for one day."""
    for user_id, point in neighbour_points(week, day):
        engine.report_location(user_id, point)
    events = []
    for i, point in enumerate(commute_requests(week, day)):
        if stop_after is not None and i >= stop_after:
            break
        events.append(engine.process(USER, point))
    return events


class TestPlainForwarding:
    def test_non_matching_request_forwarded_exact(self):
        engine = make_engine()
        event = engine.process(USER, STPoint(500, 500, time_at(hour=12)))
        assert event.decision is Decision.FORWARDED
        assert event.forwarded
        assert event.request.context.volume == 0.0

    def test_unregistered_user_never_generalized(self):
        engine = make_engine()
        event = engine.process(99, STPoint(50, 50, time_at(hour=7.5)))
        assert event.decision is Decision.FORWARDED

    def test_request_ingested_into_store(self):
        engine = make_engine()
        engine.process(USER, STPoint(500, 500, time_at(hour=12)))
        assert len(engine.store.history(USER)) == 1


class TestGeneralization:
    def test_first_element_generalized(self):
        engine = make_engine()
        for user_id, point in neighbour_points(0, 0):
            engine.report_location(user_id, point)
        event = engine.process(
            USER, STPoint(50, 50, time_at(hour=7.5))
        )
        assert event.decision is Decision.GENERALIZED
        assert event.hk_anonymity
        assert event.lbqid_name == "commute"
        assert event.step == 0

    def test_context_contains_exact_location(self):
        engine = make_engine()
        events = feed_day(engine, 0, 0)
        for event in events:
            assert event.request.context.contains(event.request.location)

    def test_anonymity_set_stable_across_trace(self):
        """PER_LBQID scope: one id set for the whole pattern."""
        engine = make_engine(k=3)
        all_events = feed_day(engine, 0, 0) + feed_day(engine, 0, 1)
        id_sets = {
            event.generalization.anonymity_ids for event in all_events
        }
        assert len(id_sets) == 1

    def test_steps_increment(self):
        engine = make_engine()
        events = feed_day(engine, 0, 0)
        assert [event.step for event in events] == [0, 1, 2, 3]

    def test_per_observation_scope_reselects(self):
        engine = make_engine(scope=AnonymitySetScope.PER_OBSERVATION)
        first = feed_day(engine, 0, 0)
        second = feed_day(engine, 0, 1)
        assert first[0].step == 0
        # A new observation began on day 1: its first request is another
        # initial selection, not a continuation of day 0's set.
        assert second[0].generalization.selected_ids is not None
        assert second[0].decision is Decision.GENERALIZED


class TestFailureHandling:
    def test_unlink_on_failure(self):
        engine = make_engine(tolerance=TIGHT, unlinker=AlwaysUnlink())
        for user_id, point in neighbour_points(0, 0):
            engine.report_location(user_id, point)
        old_pseudonym = engine.sessions.pseudonym(USER)
        event = engine.process(USER, STPoint(50, 50, time_at(hour=7.5)))
        assert event.decision is Decision.UNLINKED
        assert event.forwarded
        assert event.pseudonym_rotated
        # Forwarded under the old pseudonym; future requests use a new one.
        assert event.request.pseudonym == old_pseudonym
        assert engine.sessions.pseudonym(USER) != old_pseudonym

    def test_unlink_resets_monitors(self):
        engine = make_engine(tolerance=TIGHT, unlinker=AlwaysUnlink())
        engine.process(USER, STPoint(50, 50, time_at(hour=7.5)))
        state = engine.session(USER).lbqids[0]
        assert not state.monitor.partials
        assert state.anonymity_ids is None
        assert state.steps == 0

    def test_suppress_without_unlinking(self):
        engine = make_engine(tolerance=TIGHT, unlinker=NeverUnlink())
        event = engine.process(USER, STPoint(50, 50, time_at(hour=7.5)))
        assert event.decision is Decision.SUPPRESSED
        assert not event.forwarded
        assert not event.pseudonym_rotated

    def test_forward_at_risk_policy(self):
        engine = make_engine(
            tolerance=TIGHT,
            unlinker=NeverUnlink(),
            on_risk=RiskAction.FORWARD,
        )
        event = engine.process(USER, STPoint(50, 50, time_at(hour=7.5)))
        assert event.decision is Decision.AT_RISK_FORWARDED
        assert event.forwarded

    def test_suppressed_requests_not_in_sp_log(self):
        engine = make_engine(tolerance=TIGHT, unlinker=NeverUnlink())
        engine.process(USER, STPoint(50, 50, time_at(hour=7.5)))
        assert engine.sp_log() == []

    def test_shrunk_context_respects_tolerance(self):
        engine = make_engine(tolerance=TIGHT, unlinker=NeverUnlink())
        for user_id, point in neighbour_points(0, 0):
            engine.report_location(user_id, point)
        event = engine.process(USER, STPoint(50, 50, time_at(hour=7.5)))
        assert TIGHT.satisfied_by(event.request.context)


class TestTooLateToUnlink:
    def make_matched(self, unlinker):
        """Drive the pattern to completion with an easy tolerance."""
        engine = make_engine(
            k=3, tolerance=LOOSE, unlinker=unlinker
        )
        for week in range(2):
            for day in range(3):
                feed_day(engine, week, day)
        state = engine.session(USER).lbqids[0]
        assert state.monitor.matched
        return engine

    def test_failure_after_match_is_suppressed_not_unlinked(self):
        engine = self.make_matched(AlwaysUnlink())
        # Shrink the tolerance: the next generalization will fail.
        engine.policy.default_tolerance = TIGHT
        event = engine.process(
            USER, STPoint(50, 50, time_at(week=2, day=0, hour=7.5))
        )
        assert event.decision is Decision.SUPPRESSED
        assert event.pseudonym_rotated  # the future is still protected
        assert not event.forwarded


class TestDecisionCounts:
    def test_counts_cover_all_events(self):
        engine = make_engine()
        feed_day(engine, 0, 0)
        engine.process(USER, STPoint(500, 500, time_at(hour=12)))
        counts = engine.decision_counts()
        assert sum(counts.values()) == len(engine.events)
