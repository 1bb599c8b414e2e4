"""Unit tests for multiple LBQIDs per user and randomized forwarding.

The paper's Algorithm 1 is presented "for simplicity" under the
assumption that "each request can match an element in only one of the
LBQIDs defined for a certain user" and notes it "can be easily extended
to consider multiple LBQIDs"; these tests pin down the extension's
behaviour.
"""

import numpy as np

from repro.core.generalization import ToleranceConstraint
from repro.core.lbqid import LBQID, LBQIDElement, commute_lbqid
from repro.core.policy import PolicyTable, PrivacyProfile
from repro.core.randomization import BoxRandomizer
from repro.core.unlinking import AlwaysUnlink
from repro.engine.context import Decision
from repro.engine.pipeline import Engine
from repro.geometry.point import STPoint
from repro.geometry.region import Rect
from repro.granularity.timeline import time_at
from repro.granularity.unanchored import UnanchoredInterval
from repro.mod.store import TrajectoryStore

HOME = Rect(0, 0, 100, 100)
OFFICE = Rect(900, 900, 1000, 1000)
USER = 1
LOOSE = ToleranceConstraint.square(5_000.0, 7_200.0)


def make_engine(randomizer=None, tolerance=LOOSE):
    policy = PolicyTable(
        default_profile=PrivacyProfile(k=3),
        default_tolerance=tolerance,
    )
    engine = Engine(
        TrajectoryStore(),
        policy=policy,
        unlinker=AlwaysUnlink(),
        randomizer=randomizer,
    )
    # Neighbour presence around both anchors, repeated daily.
    for day in range(5):
        for user, jitter in ((2, 0.0), (3, 5.0), (4, 10.0)):
            engine.report_location(
                user, STPoint(40 + jitter, 40,
                              time_at(day=day, hour=7.4))
            )
            engine.report_location(
                user, STPoint(950 + jitter, 950,
                              time_at(day=day, hour=8.4))
            )
    return engine


def home_lbqid():
    return LBQID(
        "home-anytime",
        [LBQIDElement(HOME, UnanchoredInterval(0.0, 86_399.0))],
    )


class TestMultipleLBQIDs:
    def test_most_advanced_monitor_wins(self):
        """A request matching an intermediate element of one LBQID and
        the first element of another is attributed to the former."""
        engine = make_engine()
        engine.register_lbqid(
            USER, commute_lbqid(HOME, OFFICE, name="commute")
        )
        office_first = LBQID(
            "office-anytime",
            [LBQIDElement(OFFICE, UnanchoredInterval(0.0, 86_399.0))],
        )
        engine.register_lbqid(USER, office_first)
        engine.process(USER, STPoint(50, 50, time_at(hour=7.5)))
        event = engine.process(USER, STPoint(950, 950, time_at(hour=8.5)))
        assert event.decision is Decision.GENERALIZED
        assert event.lbqid_name == "commute"

    def test_each_lbqid_keeps_its_own_anonymity_set(self):
        engine = make_engine()
        engine.register_lbqid(
            USER, commute_lbqid(HOME, OFFICE, name="commute")
        )
        engine.register_lbqid(USER, home_lbqid())
        engine.process(USER, STPoint(50, 50, time_at(hour=7.5)))
        states = engine.session(USER).lbqids
        assert len(states) == 2
        # Both matched (home-anytime + commute E0); both cached a set.
        cached = [s.anonymity_ids for s in states]
        assert any(ids is not None for ids in cached)

    def test_unlink_resets_all_monitors(self):
        engine = make_engine(tolerance=ToleranceConstraint.square(1.0, 1.0))
        engine.register_lbqid(
            USER, commute_lbqid(HOME, OFFICE, name="commute")
        )
        engine.register_lbqid(USER, home_lbqid())
        event = engine.process(USER, STPoint(50, 50, time_at(hour=7.5)))
        assert event.decision is Decision.UNLINKED
        for state in engine.session(USER).lbqids:
            assert not state.monitor.partials
            assert state.anonymity_ids is None

    def test_non_matching_other_users_unaffected(self):
        engine = make_engine()
        engine.register_lbqid(USER, home_lbqid())
        event = engine.process(2, STPoint(50, 50, time_at(hour=7.5)))
        assert event.decision is Decision.FORWARDED


PARK = Rect(400, 0, 500, 100)
ALL_DAY = UnanchoredInterval(0.0, 86_399.0)


def two_step(name, first, second):
    """A two-element anytime LBQID ``first -> second``."""
    return LBQID(
        name,
        [LBQIDElement(first, ALL_DAY), LBQIDElement(second, ALL_DAY)],
    )


class TestMonitorTieBreaking:
    """Attribution when one request matches several LBQIDs at once.

    The selection rule (now ``MonitorMatch.select_match``): every
    monitor is fed, the most-advanced partial wins, and equal progress
    breaks deterministically toward the earliest-registered LBQID
    (the sort is stable).
    """

    def test_advanced_partial_beats_fresh_start(self):
        """OFFICE extends home->office (progress 2) and starts
        office->park (progress 1); the extension wins even though the
        fresh starter was registered first."""
        engine = make_engine()
        engine.register_lbqid(USER, two_step("office-park", OFFICE, PARK))
        engine.register_lbqid(USER, two_step("home-office", HOME, OFFICE))
        engine.process(USER, STPoint(50, 50, time_at(hour=7.5)))
        event = engine.process(USER, STPoint(950, 950, time_at(hour=8.5)))
        assert event.decision is Decision.GENERALIZED
        assert event.lbqid_name == "home-office"

    def test_all_monitors_are_fed_even_when_losing(self):
        """The losing LBQID still advances its own automaton — the tie
        break picks the attribution, not which monitors observe."""
        engine = make_engine()
        engine.register_lbqid(USER, two_step("office-park", OFFICE, PARK))
        engine.register_lbqid(USER, two_step("home-office", HOME, OFFICE))
        engine.process(USER, STPoint(50, 50, time_at(hour=7.5)))
        engine.process(USER, STPoint(950, 950, time_at(hour=8.5)))
        office_park = engine.session(USER).lbqids[0]
        assert office_park.monitor.partials

    def test_equal_progress_attributed_to_earliest_registered(self):
        """HOME starts both patterns at progress 1; registration order
        decides, deterministically."""
        engine = make_engine()
        engine.register_lbqid(USER, two_step("alpha", HOME, OFFICE))
        engine.register_lbqid(USER, two_step("beta", HOME, PARK))
        event = engine.process(USER, STPoint(50, 50, time_at(hour=7.5)))
        assert event.decision is Decision.GENERALIZED
        assert event.lbqid_name == "alpha"

    def test_equal_progress_tie_follows_registration_order(self):
        """Swapping the registration order swaps the attribution: the
        tie break is positional, not name- or content-based."""
        engine = make_engine()
        engine.register_lbqid(USER, two_step("beta", HOME, PARK))
        engine.register_lbqid(USER, two_step("alpha", HOME, OFFICE))
        event = engine.process(USER, STPoint(50, 50, time_at(hour=7.5)))
        assert event.lbqid_name == "beta"


class TestRandomizedForwarding:
    def test_randomized_context_contains_location(self):
        engine = make_engine(
            randomizer=BoxRandomizer(np.random.default_rng(0))
        )
        engine.register_lbqid(USER, home_lbqid())
        event = engine.process(USER, STPoint(50, 50, time_at(hour=7.5)))
        assert event.decision is Decision.GENERALIZED
        assert event.request.context.contains(event.request.location)

    def test_randomized_context_within_tolerance(self):
        tolerance = ToleranceConstraint.square(2_000.0, 3_600.0)
        engine = make_engine(
            randomizer=BoxRandomizer(np.random.default_rng(0)),
            tolerance=tolerance,
        )
        engine.register_lbqid(USER, home_lbqid())
        for hour in (7.5, 9.5, 11.5):
            event = engine.process(USER, STPoint(50, 50, time_at(hour=hour)))
            if event.decision is Decision.GENERALIZED:
                assert tolerance.satisfied_by(event.request.context)

    def test_randomized_context_contains_algorithm_box(self):
        engine = make_engine(
            randomizer=BoxRandomizer(np.random.default_rng(0))
        )
        engine.register_lbqid(USER, home_lbqid())
        event = engine.process(USER, STPoint(50, 50, time_at(hour=7.5)))
        assert event.generalization is not None
        assert event.request.context.contains_box(
            event.generalization.box
        )
