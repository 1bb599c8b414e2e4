"""The seeded equivalence workload shared by fixtures and tests.

The golden fixtures under ``tests/engine/fixtures/`` were generated by
running exactly this workload through the *pre-refactor* Trusted
Server, one monolithic ``_process`` method (see
``tests/engine/generate_fixtures.py``).  The replay test then runs the
same workload through the staged engine and asserts the full decision
sequence, SP log, and audit fields are identical — the refactor must
preserve the Section 6.1 semantics bit for bit.

The workload is deliberately adversarial: a tight tolerance plus a
coin-flip unlinker and a non-zero quiet period drive the pipeline
through every decision branch (forwarded, generalized, unlinked,
suppressed, at-risk-forwarded, quiet), and half the commuters opt into
``RiskAction.FORWARD`` so both risk policies are exercised.
"""

from __future__ import annotations

import numpy as np

from repro.core.generalization import ToleranceConstraint
from repro.core.policy import PrivacyProfile, RiskAction
from repro.core.unlinking import ProbabilisticUnlink
from repro.engine.context import AnonymitySetScope, AnonymizerEvent
from repro.experiments.workloads import make_policy
from repro.mobility.population import CityConfig, SyntheticCity
from repro.ts.simulation import LBSSimulation

CITY_CONFIG = CityConfig(seed=11, n_commuters=12, n_wanderers=6)
TOLERANCE = ToleranceConstraint.square(700.0, 1800.0)
K = 4
QUIET_PERIOD = 1800.0
UNLINK_SEED = 5
SIM_SEED = 97


def build_city() -> SyntheticCity:
    return SyntheticCity.generate(CITY_CONFIG)


def build_simulation(
    city: SyntheticCity,
    scope: AnonymitySetScope,
    **kwargs,
) -> LBSSimulation:
    """The equivalence workload: every decision branch is reachable."""
    policy = make_policy(K, tolerance=TOLERANCE)
    for commuter in city.commuters:
        if commuter.user_id % 2 == 0:
            policy.set_user_profile(
                commuter.user_id,
                PrivacyProfile(k=K, on_risk=RiskAction.FORWARD),
            )
    return LBSSimulation(
        city,
        policy=policy,
        unlinker=ProbabilisticUnlink(
            0.5, np.random.default_rng(UNLINK_SEED)
        ),
        scope=scope,
        quiet_period=QUIET_PERIOD,
        seed=SIM_SEED,
        **kwargs,
    )


def _bounds(context) -> list[float]:
    return [
        context.rect.x_min,
        context.rect.y_min,
        context.rect.x_max,
        context.rect.y_max,
        context.interval.start,
        context.interval.end,
    ]


def event_record(event: AnonymizerEvent) -> dict:
    """The audit fields pinned by the golden fixture, JSON-ready."""
    request = event.request
    return {
        "msgid": request.msgid,
        "user_id": request.user_id,
        "pseudonym": request.pseudonym,
        "service": request.service,
        "t": request.t,
        "decision": event.decision.value,
        "forwarded": event.forwarded,
        "lbqid_name": event.lbqid_name,
        "hk_anonymity": event.hk_anonymity,
        "lbqid_matched": event.lbqid_matched,
        "step": event.step,
        "required_k": event.required_k,
        "pseudonym_rotated": event.pseudonym_rotated,
        "context": _bounds(request.context),
        "anonymity_ids": (
            sorted(event.generalization.anonymity_ids)
            if event.generalization is not None
            else None
        ),
    }


def sp_record(sp_request) -> dict:
    """The SP-visible fields pinned by the golden fixture."""
    return {
        "msgid": sp_request.msgid,
        "pseudonym": sp_request.pseudonym,
        "service": sp_request.service,
        "context": _bounds(sp_request.context),
    }


def run_workload(scope: AnonymitySetScope, **kwargs) -> dict:
    """Run the workload; return the JSON-ready equivalence record."""
    simulation = build_simulation(build_city(), scope, **kwargs)
    report = simulation.run()
    return {
        "scope": scope.value,
        "events": [event_record(e) for e in report.events],
        "sp_log": [sp_record(r) for r in report.engine.sp_log()],
    }
