"""End-to-end integration tests over the full pipeline.

These are the executable forms of the paper's headline claims, run on
the shared test city:

* Theorem 1 holds under the strategy with AlwaysUnlink;
* certified traces achieve the configured k against ground truth;
* the paper's defense blunts the re-identification attack that succeeds
  against no-protection and per-request cloaking.
"""

import pytest

from repro.attack.reidentification import HomeIdentificationAttack
from repro.baselines.interval_cloak import IntervalCloak
from repro.core.requests import Request
from repro.core.unlinking import AlwaysUnlink, NeverUnlink
from repro.engine.context import Decision
from repro.experiments.workloads import (
    DEFAULT_TOLERANCE,
    make_policy,
    small_city,
)
from repro.metrics.anonymity import historical_k_per_user
from repro.metrics.theorem import verify_theorem1
from repro.ts.simulation import LBSSimulation

K = 4


@pytest.fixture(scope="module")
def city():
    return small_city(seed=11)


@pytest.fixture(scope="module")
def protected_report(city):
    simulation = LBSSimulation(
        city,
        policy=make_policy(k=K),
        unlinker=AlwaysUnlink(),
        seed=23,
    )
    return simulation.run()


@pytest.fixture(scope="module")
def lbqids(city):
    return {c.user_id: [c.lbqid()] for c in city.commuters}


class TestTheorem1EndToEnd:
    def test_holds_with_always_unlink(self, protected_report, lbqids):
        report = verify_theorem1(
            protected_report.events,
            protected_report.store.histories,
            lbqids,
            k=K,
        )
        assert report.groups_checked > 0
        assert report.holds

    def test_holds_even_without_unlinking(self, city, lbqids):
        """With suppression instead of unlinking, unsafe requests never
        reach the SP, so the theorem's conclusion still holds."""
        simulation = LBSSimulation(
            city,
            policy=make_policy(k=K),
            unlinker=NeverUnlink(),
            seed=23,
        )
        report = simulation.run()
        theorem = verify_theorem1(
            report.events, report.store.histories, lbqids, k=K
        )
        assert theorem.holds

    def test_checker_detects_violations_when_protection_is_bypassed(
        self, city, lbqids
    ):
        """Negative control: the Theorem 1 verifier is not vacuous.

        Forwarding at-risk requests (the user overriding the notification,
        RiskAction.FORWARD) with no unlinking sends under-generalized
        contexts to the SP under stable pseudonyms; the matched groups
        must then fail Definition 8 and the checker must say so."""
        from repro.core.generalization import ToleranceConstraint
        from repro.core.policy import (
            PolicyTable,
            PrivacyProfile,
            RiskAction,
        )

        policy = PolicyTable(
            default_profile=PrivacyProfile(
                k=K, on_risk=RiskAction.FORWARD
            ),
            default_tolerance=ToleranceConstraint.square(800.0, 1200.0),
        )
        report = LBSSimulation(
            city, policy=policy, unlinker=NeverUnlink(), seed=23
        ).run()
        theorem = verify_theorem1(
            report.events, report.store.histories, lbqids, k=K
        )
        assert theorem.groups_matching_lbqid > 0
        assert not theorem.holds

    def test_certified_traces_reach_k(self, protected_report):
        achieved = historical_k_per_user(
            protected_report.events,
            protected_report.store.histories,
            hk_only=True,
        )
        assert achieved
        assert min(achieved.values()) >= K


class TestServiceDelivery:
    def test_provider_reachable_end_to_end(self, protected_report):
        provider = protected_report.providers["poi"]
        assert provider.request_count > 0
        forwarded = [e for e in protected_report.events if e.forwarded]
        assert provider.request_count == len(forwarded)

    def test_forwarded_contexts_respect_tolerance(self, protected_report):
        for event in protected_report.events:
            if event.forwarded and event.lbqid_name is not None:
                assert DEFAULT_TOLERANCE.satisfied_by(
                    event.request.context
                )

    def test_mixture_of_decisions(self, protected_report):
        counts = protected_report.decision_counts()
        assert counts[Decision.FORWARDED] > 0
        assert counts[Decision.GENERALIZED] > 0


class TestAttackDefenseContrast:
    """The Section 1 attack works on raw streams, not on protected ones."""

    def make_unprotected_log(self, city):
        """Exact-location requests at the paper's strategy's positions."""
        requests = []
        msgid = 0
        for commuter in city.commuters:
            lbqid = commuter.lbqid()
            pseudonym = f"u{commuter.user_id}"
            for point in city.store.history(commuter.user_id):
                if lbqid.element_matching(point) is None:
                    continue
                msgid += 1
                requests.append(
                    Request.issue(
                        msgid, commuter.user_id, pseudonym, point
                    )
                )
        return requests

    def test_attack_succeeds_without_protection(self, city):
        requests = self.make_unprotected_log(city)
        attack = HomeIdentificationAttack(city.home_locations())
        result = attack.run(
            [r.sp_view() for r in requests],
            true_owner={
                f"u{c.user_id}": c.user_id for c in city.commuters
            },
        )
        assert result.rate(len(city.commuters)) > 0.8

    def test_protected_stream_bounds_attacker_confidence(self, city):
        """With home areas declared as LBQIDs, the attacker's per-claim
        precision collapses toward the 1/k anonymity bound."""
        simulation = LBSSimulation(
            city,
            policy=make_policy(k=K),
            unlinker=AlwaysUnlink(),
            register_home_lbqids=True,
            seed=23,
        )
        report = simulation.run()
        owner = {
            e.request.pseudonym: e.request.user_id for e in report.events
        }
        log = [
            e.request.sp_view() for e in report.events if e.forwarded
        ]
        attack = HomeIdentificationAttack(
            city.home_locations(), anchor_grid=200.0, claim_radius=300.0
        )
        result = attack.run(log, true_owner=owner)
        assert result.claims  # the attacker still tries...
        assert result.precision < 0.5  # ...but cannot be confident

    def test_interval_cloak_still_linkable(self, city):
        """Per-request cloaking [11] hides single positions but the
        stable pseudonym keeps the trace attackable — the paper's core
        argument for Historical k-anonymity."""
        cloak = IntervalCloak(
            city.store, city.bounds, k=K, window=1800.0
        )
        requests = []
        msgid = 0
        for commuter in city.commuters[:10]:
            lbqid = commuter.lbqid()
            pseudonym = f"u{commuter.user_id}"
            for point in city.store.history(commuter.user_id):
                if lbqid.element_matching(point) is None:
                    continue
                box = cloak.cloak(commuter.user_id, point)
                if box is None:
                    continue
                msgid += 1
                requests.append(
                    Request.issue(
                        msgid, commuter.user_id, pseudonym, point
                    ).with_context(box)
                )
        attack = HomeIdentificationAttack(
            city.home_locations(), claim_radius=400.0, anchor_grid=200.0
        )
        result = attack.run(
            [r.sp_view() for r in requests],
            true_owner={
                f"u{c.user_id}": c.user_id for c in city.commuters
            },
        )
        assert result.rate(10) > 0.2
