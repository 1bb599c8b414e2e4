"""The city a Trusted Server daemon serves, and the engines that serve it.

This is the serving half of the load harness (the client half, the
timeline and the open-loop driver, lives in :mod:`repro.serve.loadgen`,
which re-exports everything here).  It imports nothing from the client
side, so a daemon that loads it pays only for what serving needs.

* :class:`WorkloadConfig` — the seeded shape of the city, its
  privacy policy and the request stride the load generator uses;
* :func:`build_city` — the generated
  :class:`~repro.mobility.population.SyntheticCity` as a
  :class:`ServingCity`: the users every engine serves, and one store
  holding their histories;
* :func:`build_engine` — an engine ready to serve: LBQIDs registered
  and sessions pre-opened in sorted user order, and — crucially — the
  store **pre-seeded with the full city history**, copied in one step
  from the city's store.  Against a warm store every ingest during
  serving duplicates an already-present sample, and Algorithm 1's
  selection is distance/membership-based, so per-user decisions become
  invariant to how concurrent clients interleave (the determinism the
  acceptance tests pin).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.generalization import ToleranceConstraint
from repro.core.policy import PolicyTable, PrivacyProfile
from repro.core.unlinking import AlwaysUnlink
from repro.engine.pipeline import Engine
from repro.engine.session import InMemorySessionStore
from repro.mobility.population import CityConfig, SyntheticCity
from repro.mod.store import TrajectoryStore
from repro.obs.config import Telemetry, TelemetryConfig
from repro.serve.server import shard_of

SERVICE = "poi"


@dataclass(frozen=True)
class WorkloadConfig:
    """Shape of the serving workload (all seeded, fully deterministic)."""

    seed: int = 11
    n_commuters: int = 12
    n_wanderers: int = 6
    days: int = 7
    #: Every Nth sample of a user becomes a service request.
    request_stride: int = 3
    k: int = 4
    tolerance_side: float = 700.0
    tolerance_duration: float = 1800.0
    quiet_period: float = 900.0

    def tolerance(self) -> ToleranceConstraint:
        return ToleranceConstraint.square(
            self.tolerance_side, self.tolerance_duration
        )

    def city_config(self) -> CityConfig:
        return CityConfig(
            seed=self.seed,
            n_commuters=self.n_commuters,
            n_wanderers=self.n_wanderers,
            nx_blocks=10,
            ny_blocks=10,
            days=self.days,
        )

    def policy(self) -> PolicyTable:
        """One ``k`` for everyone, one tolerance, also for ``SERVICE``."""
        tolerance = self.tolerance()
        policy = PolicyTable(
            default_profile=PrivacyProfile(k=self.k),
            default_tolerance=tolerance,
        )
        policy.set_service_tolerance(SERVICE, tolerance)
        return policy


class ServingCity:
    """A generated city and the users its engines serve.

    ``user_ids`` (sorted) defaults to every user of the city.  Every
    engine's store starts as a copy of :meth:`seed_store`, which holds
    exactly those users' histories in that order.
    """

    def __init__(
        self, city: SyntheticCity, user_ids: "Iterable[int] | None" = None
    ) -> None:
        self.city = city
        self.user_ids: list[int] = sorted(
            city.store.user_ids() if user_ids is None else user_ids
        )
        self._seed: TrajectoryStore | None = None

    def seed_store(self) -> TrajectoryStore:
        """The store every engine copies; built once, never mutated.

        The city's own store already holds every user in sorted order,
        so when all users are served it is the seed itself.
        """
        if self._seed is None:
            store = self.city.store
            if list(store.user_ids()) != self.user_ids:
                store = TrajectoryStore(time_scale=store.time_scale)
                store.add_histories(
                    (user_id, list(self.city.store.history(user_id)))
                    for user_id in self.user_ids
                )
            self._seed = store
        return self._seed


def build_city(config: WorkloadConfig) -> ServingCity:
    """Generate the city a daemon serves (no load-generator timeline)."""
    return ServingCity(SyntheticCity.generate(config.city_config()))


def build_engine(
    city: ServingCity,
    config: WorkloadConfig,
    telemetry: "Telemetry | TelemetryConfig | None" = None,
    shard_id: int = 0,
    n_shards: int = 1,
) -> Engine:
    """An engine ready to serve ``city`` (warm store, see module doc).

    Identical construction backs the online server, every shard of a
    sharded one, and the offline replay, so the runs differ only in
    how operations arrive.  Shard ``shard_id`` of ``n_shards`` opens
    sessions, LBQIDs, and pseudonyms (prefixed ``p<i>.``) only for the
    users it owns, yet its store still holds EVERY user's history —
    anonymity sets are store-wide, and this is what keeps per-shard
    decisions equal to the global offline replay.
    """
    engine = Engine(
        city.seed_store().copy(telemetry=telemetry),
        policy=config.policy(),
        unlinker=AlwaysUnlink(),
        quiet_period=config.quiet_period,
        telemetry=telemetry,
        sessions=InMemorySessionStore(
            pseudonym_prefix=f"p{shard_id}." if n_shards > 1 else "p"
        ),
    )
    for commuter in sorted(city.city.commuters, key=lambda c: c.user_id):
        if shard_of(commuter.user_id, n_shards) == shard_id:
            engine.register_lbqid(commuter.user_id, commuter.lbqid())
    for user_id in city.user_ids:
        if shard_of(user_id, n_shards) == shard_id:
            # Pre-open sessions in sorted order so session creation
            # (and initial pseudonym issue) is independent of arrival
            # order.
            engine.session(user_id)
            engine.sessions.pseudonym(user_id)
    return engine
