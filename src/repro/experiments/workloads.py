"""Canonical workloads shared by tests, examples, and benchmarks.

Workloads are deterministic in their seed; ``small_city`` is sized for
tests (seconds), ``default_city`` for benchmarks (tens of seconds).
``run_protected`` wires a city through the paper's full pipeline with the
most common settings and returns the simulation report.
"""

from __future__ import annotations

from functools import lru_cache

from repro.core.generalization import ToleranceConstraint
from repro.core.policy import PolicyTable, PrivacyProfile
from repro.core.unlinking import AlwaysUnlink, UnlinkingProvider
from repro.engine.context import AnonymitySetScope
from repro.granularity.timeline import MINUTE
from repro.mobility.population import CityConfig, SyntheticCity
from repro.obs.config import Telemetry, TelemetryConfig
from repro.ts.simulation import LBSSimulation, RequestProfile, SimulationReport

#: The default per-service tolerance: a 1.5 km square and a 30-minute
#: window.  Section 6.1 allows "a few square miles" spatially; the
#: temporal bound is matched to the synthetic population's 30-minute
#: idle-ping cadence — anything tighter than the location-update rate
#: makes Algorithm 1 fail for lack of fresh neighbour samples (benchmark
#: E4 sweeps exactly this trade-off).
DEFAULT_TOLERANCE = ToleranceConstraint.square(1500.0, 30.0 * MINUTE)


@lru_cache(maxsize=8)
def small_city(seed: int = 11) -> SyntheticCity:
    """A test-sized city: 30 commuters, 10 wanderers, 14 days."""
    return SyntheticCity.generate(
        CityConfig(
            n_commuters=30,
            n_wanderers=10,
            nx_blocks=10,
            ny_blocks=10,
            days=14,
            seed=seed,
        )
    )


@lru_cache(maxsize=4)
def default_city(seed: int = 7) -> SyntheticCity:
    """The benchmark city: 100 commuters, 40 wanderers, 14 days."""
    return SyntheticCity.generate(CityConfig(seed=seed))


def make_policy(
    k: int,
    tolerance: ToleranceConstraint | None = None,
    k_prime_initial: int | None = None,
    k_prime_decrement: int = 1,
    service: str = "poi",
) -> PolicyTable:
    """A uniform policy table: one k for everyone, one tolerance."""
    policy = PolicyTable(
        default_profile=PrivacyProfile(
            k=k,
            k_prime_initial=k_prime_initial,
            k_prime_decrement=k_prime_decrement,
        ),
        default_tolerance=tolerance or DEFAULT_TOLERANCE,
    )
    policy.set_service_tolerance(
        service, tolerance or DEFAULT_TOLERANCE
    )
    return policy


def run_protected(
    city: SyntheticCity,
    k: int = 5,
    tolerance: ToleranceConstraint | None = None,
    unlinker: UnlinkingProvider | None = None,
    scope: AnonymitySetScope = AnonymitySetScope.PER_LBQID,
    k_prime_initial: int | None = None,
    k_prime_decrement: int = 1,
    request_profile: RequestProfile | None = None,
    register_home_lbqids: bool = False,
    telemetry: "Telemetry | TelemetryConfig | None" = None,
    seed: int = 97,
) -> SimulationReport:
    """Run the paper's full pipeline over a city and return the report.

    Pass ``telemetry`` (a :class:`TelemetryConfig` or a prebuilt
    :class:`Telemetry`) to record per-request spans and metrics; the
    snapshot is reachable via ``report.metrics_snapshot()``.
    """
    simulation = LBSSimulation(
        city,
        policy=make_policy(
            k,
            tolerance,
            k_prime_initial=k_prime_initial,
            k_prime_decrement=k_prime_decrement,
        ),
        unlinker=unlinker or AlwaysUnlink(theta=0.1),
        scope=scope,
        request_profile=request_profile,
        register_home_lbqids=register_home_lbqids,
        telemetry=telemetry,
        seed=seed,
    )
    return simulation.run()
