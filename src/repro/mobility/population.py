"""Synthetic city populations.

Assembles the evaluation substrate: a road network, a population of
commuters (whose recurring round-trips realize the paper's LBQIDs) plus
random-waypoint background users, and everyone's PHLs loaded into a
:class:`~repro.mod.store.TrajectoryStore`.

Work places are drawn from a small set of *office districts* so that many
commuters share corridors and destinations — the regime in which
Historical k-anonymity is attainable at all.  Homes are spread uniformly
over the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.geometry.point import Point, STPoint
from repro.geometry.region import Rect
from repro.granularity.timeline import DAY, HOUR
from repro.mobility.commuter import Commuter, CommuterSchedule
from repro.mobility.network import Node, RoadNetwork
from repro.mobility.random_waypoint import random_waypoint_trajectory
from repro.mod.store import TrajectoryStore


@dataclass(frozen=True)
class CityConfig:
    """Parameters of a synthetic city workload.

    ``days`` defaults to 14 so the canonical ``3.Weekdays * 2.Weeks``
    recurrence can complete.  ``office_districts`` controls how strongly
    commuters cluster at destinations (fewer districts → more shared
    corridors → easier anonymity).
    """

    n_commuters: int = 100
    n_wanderers: int = 40
    nx_blocks: int = 20
    ny_blocks: int = 20
    block_size: float = 200.0
    days: int = 14
    office_districts: int = 4
    commuter_sample_period: float = 120.0
    wanderer_sample_period: float = 300.0
    wanderer_day_start_hour: float = 8.0
    wanderer_day_end_hour: float = 20.0
    departure_std_hours: float = 0.2
    skip_probability: float = 0.1
    seed: int = 7

    def __post_init__(self) -> None:
        if self.n_commuters < 0 or self.n_wanderers < 0:
            raise ValueError("population counts must be non-negative")
        if self.days < 1:
            raise ValueError(f"days must be at least 1, got {self.days}")
        if self.office_districts < 1:
            raise ValueError("office_districts must be at least 1")


class SyntheticCity:
    """A fully generated city: network, agents, and populated store.

    Build one with :meth:`generate`; user ids ``0 .. n_commuters-1`` are
    commuters (each exposing its home/work anchors and derived LBQID),
    the rest are random-waypoint wanderers.
    """

    def __init__(
        self,
        config: CityConfig,
        network: RoadNetwork,
        commuters: list[Commuter],
        store: TrajectoryStore,
    ) -> None:
        self.config = config
        self.network = network
        self.commuters = commuters
        self.store = store

    @classmethod
    def generate(
        cls,
        config: CityConfig | None = None,
        store: TrajectoryStore | None = None,
        **overrides,
    ) -> "SyntheticCity":
        """Generate a city, optionally into a pre-configured store.

        Keyword overrides are applied to ``config`` (e.g.
        ``SyntheticCity.generate(n_commuters=50, seed=3)``).
        """
        config = replace(config or CityConfig(), **overrides)
        rng = np.random.default_rng(config.seed)
        network = RoadNetwork(
            config.nx_blocks, config.ny_blocks, config.block_size
        )
        store = store if store is not None else TrajectoryStore()
        commuters = cls._make_commuters(config, network, rng)
        # Every user's history is generated first and loaded in one
        # bulk ingest; the draws keep their order.
        histories: list[tuple[int, list[STPoint]]] = [
            (commuter.user_id, commuter.trajectory(config.days, rng))
            for commuter in commuters
        ]
        bounds = Rect(0.0, 0.0, network.width, network.height)
        for offset in range(config.n_wanderers):
            # The days are disjoint and in order: one time-ordered
            # block per user.
            trajectory: list[STPoint] = []
            for day in range(config.days):
                day_start = day * DAY
                trajectory += random_waypoint_trajectory(
                    bounds,
                    day_start + config.wanderer_day_start_hour * HOUR,
                    day_start + config.wanderer_day_end_hour * HOUR,
                    rng,
                    sample_period=config.wanderer_sample_period,
                )
            histories.append((config.n_commuters + offset, trajectory))
        store.add_histories(histories)
        return cls(config, network, commuters, store)

    @staticmethod
    def _make_commuters(
        config: CityConfig, network: RoadNetwork, rng: np.random.Generator
    ) -> list[Commuter]:
        office_nodes = [
            SyntheticCity._random_node(network, rng)
            for _ in range(config.office_districts)
        ]
        commuters = []
        for user_id in range(config.n_commuters):
            home = SyntheticCity._random_node(network, rng)
            work = office_nodes[rng.integers(len(office_nodes))]
            if home == work:
                home = (
                    (home[0] + 1) % (network.nx_blocks + 1),
                    home[1],
                )
            schedule = CommuterSchedule(
                morning_departure_hour=float(rng.normal(7.5, 0.15)),
                evening_departure_hour=float(rng.normal(17.0, 0.15)),
                departure_std_hours=config.departure_std_hours,
                skip_probability=config.skip_probability,
            )
            commuters.append(
                Commuter(
                    user_id,
                    network,
                    home,
                    work,
                    schedule=schedule,
                    sample_period=config.commuter_sample_period,
                )
            )
        return commuters

    @staticmethod
    def _random_node(
        network: RoadNetwork, rng: np.random.Generator
    ) -> Node:
        return (
            int(rng.integers(network.nx_blocks + 1)),
            int(rng.integers(network.ny_blocks + 1)),
        )

    @property
    def bounds(self) -> Rect:
        """The city rectangle."""
        return Rect(0.0, 0.0, self.network.width, self.network.height)

    @property
    def all_user_ids(self) -> list[int]:
        """Commuters first, then wanderers."""
        return list(
            range(self.config.n_commuters + self.config.n_wanderers)
        )

    def home_locations(self) -> dict[int, Point]:
        """Ground-truth home anchors (the attacker's phone-book oracle)."""
        return {c.user_id: c.home_point for c in self.commuters}
