"""Randomized-stream invariants of the Trusted Server engine.

Instead of scripting scenarios, these tests fire seeded random request
streams (mixed users, locations, and times) at a fully configured TS and
assert the properties every execution must satisfy, whatever happens:

* forwarded contexts always contain the exact request location;
* forwarded generalized contexts always satisfy the service tolerance;
* suppressed requests never reach the SP log;
* a GENERALIZED decision implies certified hk-anonymity and vice versa;
* pseudonyms never regress: once rotated, the old one is never reused;
* the store ingests exactly one point per request and location update.
"""

import numpy as np
import pytest

from repro.core.generalization import ToleranceConstraint
from repro.core.lbqid import commute_lbqid
from repro.core.policy import PolicyTable, PrivacyProfile, RiskAction
from repro.core.unlinking import ProbabilisticUnlink
from repro.engine.context import Decision
from repro.engine.pipeline import Engine
from repro.geometry.point import STPoint
from repro.geometry.region import Rect
from repro.mod.store import TrajectoryStore

HOME = Rect(0, 0, 100, 100)
OFFICE = Rect(900, 900, 1000, 1000)
TOLERANCE = ToleranceConstraint.square(800.0, 1800.0)
N_USERS = 8


def run_random_stream(seed, on_risk):
    rng = np.random.default_rng(seed)
    engine = Engine(
        TrajectoryStore(),
        policy=PolicyTable(
            default_profile=PrivacyProfile(k=3, on_risk=on_risk),
            default_tolerance=TOLERANCE,
        ),
        unlinker=ProbabilisticUnlink(0.5, rng),
    )
    for user_id in range(N_USERS):
        engine.register_lbqid(
            user_id, commute_lbqid(HOME, OFFICE, name=f"q{user_id}")
        )
    t = 0.0
    for _ in range(600):
        t += float(rng.exponential(300.0))
        user_id = int(rng.integers(N_USERS))
        anchor = rng.random()
        if anchor < 0.4:
            x, y = rng.uniform(0, 100, size=2)
        elif anchor < 0.8:
            x, y = rng.uniform(900, 1000, size=2)
        else:
            x, y = rng.uniform(0, 1000, size=2)
        # Timestamps are strictly increasing, per the monitor contract.
        point = STPoint(float(x), float(y), t)
        if rng.random() < 0.5:
            engine.process(user_id, point)
        else:
            engine.report_location(user_id, point)
    return engine


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "on_risk", [RiskAction.SUPPRESS, RiskAction.FORWARD]
)
class TestRandomStreamInvariants:
    def test_contexts_contain_locations(self, seed, on_risk):
        engine = run_random_stream(seed, on_risk)
        for event in engine.events:
            assert event.request.context.contains(event.request.location)

    def test_generalized_respects_tolerance(self, seed, on_risk):
        engine = run_random_stream(seed, on_risk)
        for event in engine.events:
            if event.lbqid_name is not None and event.forwarded:
                assert TOLERANCE.satisfied_by(event.request.context)

    def test_suppressed_not_in_sp_log(self, seed, on_risk):
        engine = run_random_stream(seed, on_risk)
        logged = {request.msgid for request in engine.sp_log()}
        for event in engine.events:
            if event.decision is Decision.SUPPRESSED:
                assert event.request.msgid not in logged

    def test_generalized_iff_certified(self, seed, on_risk):
        engine = run_random_stream(seed, on_risk)
        for event in engine.events:
            if event.decision is Decision.GENERALIZED:
                assert event.hk_anonymity
            if event.hk_anonymity:
                assert event.decision is Decision.GENERALIZED

    def test_pseudonyms_never_reused_after_rotation(self, seed, on_risk):
        engine = run_random_stream(seed, on_risk)
        last_seen: dict[int, list[str]] = {}
        for event in engine.events:
            user = event.request.user_id
            pseudonym = event.request.pseudonym
            chain = last_seen.setdefault(user, [])
            if chain and chain[-1] != pseudonym:
                assert pseudonym not in chain
            if not chain or chain[-1] != pseudonym:
                chain.append(pseudonym)

    def test_store_ingests_every_event(self, seed, on_risk):
        engine = run_random_stream(seed, on_risk)
        assert engine.store.total_points == 600

    def test_decision_counts_partition_events(self, seed, on_risk):
        engine = run_random_stream(seed, on_risk)
        assert sum(engine.decision_counts().values()) == len(engine.events)
