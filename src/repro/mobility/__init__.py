"""Synthetic mobility: road network, movement models, and populations.

The paper's evaluation substrate.  Real carrier traces are proprietary, so
(per DESIGN.md's substitution table) the experiments run on a synthetic
city:

* :mod:`repro.mobility.network` — a Manhattan-style grid road network with
  shortest-path routing (a pure-Python bidirectional Dijkstra that
  picks the same paths as ``networkx``, which is only its test oracle);
* :mod:`repro.mobility.commuter` — home/work commuters whose weekday
  round-trips realize exactly the recurring pattern of the paper's
  Examples 1–2;
* :mod:`repro.mobility.random_waypoint` — the classic random-waypoint
  model for background population;
* :mod:`repro.mobility.gauss_markov` — the Gauss–Markov correlated-
  velocity wanderer;
* :mod:`repro.mobility.population` — assembles a whole city's PHLs into a
  :class:`~repro.mod.store.TrajectoryStore`.
"""

from repro.mobility.network import RoadNetwork
from repro.mobility.commuter import Commuter, CommuterSchedule
from repro.mobility.random_waypoint import random_waypoint_trajectory
from repro.mobility.gauss_markov import gauss_markov_trajectory
from repro.mobility.population import CityConfig, SyntheticCity

__all__ = [
    "RoadNetwork",
    "Commuter",
    "CommuterSchedule",
    "random_waypoint_trajectory",
    "gauss_markov_trajectory",
    "CityConfig",
    "SyntheticCity",
]
