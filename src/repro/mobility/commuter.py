"""Home/work commuters.

The canonical subject of the paper: a user whose weekday round-trip
between home and office — "the trip from the condominium where he lives to
the building where he works every morning and the trip back in the
afternoon" (Example 1) — recurs regularly enough to act as an LBQID.

A :class:`Commuter` owns a home and a work anchor on the road network and
a stochastic :class:`CommuterSchedule`; :meth:`Commuter.trajectory`
generates its PHL samples over a span of days, and
:meth:`Commuter.lbqid` derives the matching Example 2 quasi-identifier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.lbqid import LBQID, commute_lbqid
from repro.geometry.point import Point, STPoint
from repro.geometry.region import Rect
from repro.granularity.timeline import DAY, HOUR, day_of_week
from repro.mobility.network import Node, RoadNetwork


@dataclass(frozen=True)
class CommuterSchedule:
    """Departure statistics of one commuter, all in hours-of-day.

    Each workday's actual departures are drawn from normal distributions
    centered on the means with the given standard deviation; a workday is
    skipped entirely with probability ``skip_probability`` (sick days,
    remote work — the noise that makes recurrence detection non-trivial).
    """

    morning_departure_hour: float = 7.5
    evening_departure_hour: float = 17.0
    departure_std_hours: float = 0.2
    skip_probability: float = 0.1

    def __post_init__(self) -> None:
        if not 0 <= self.skip_probability <= 1:
            raise ValueError("skip_probability must be in [0, 1]")
        if self.departure_std_hours < 0:
            raise ValueError("departure_std_hours must be non-negative")


class Commuter:
    """One commuting user on the road network."""

    def __init__(
        self,
        user_id: int,
        network: RoadNetwork,
        home: Node,
        work: Node,
        schedule: CommuterSchedule | None = None,
        speed: float = 8.0,
        sample_period: float = 120.0,
        idle_ping_period: float = 0.5 * HOUR,
    ) -> None:
        self.user_id = user_id
        self.network = network
        self.home = home
        self.work = work
        self.schedule = schedule or CommuterSchedule()
        self.speed = speed
        self.sample_period = sample_period
        self.idle_ping_period = idle_ping_period
        self._route_out = network.route(home, work)
        self._route_back = list(reversed(self._route_out))

    @property
    def home_point(self) -> Point:
        return self.network.node_position(self.home)

    @property
    def work_point(self) -> Point:
        return self.network.node_position(self.work)

    def home_area(self, margin: float = 60.0) -> Rect:
        """The "AreaCondominium" rectangle around the home anchor."""
        return Rect.from_center(self.home_point, 2 * margin, 2 * margin)

    def work_area(self, margin: float = 60.0) -> Rect:
        """The "AreaOfficeBldg" rectangle around the work anchor."""
        return Rect.from_center(self.work_point, 2 * margin, 2 * margin)

    def lbqid(self, recurrence: str = "3.Weekdays * 2.Weeks") -> LBQID:
        """The Example 2 quasi-identifier induced by this commute."""
        return commute_lbqid(
            self.home_area(),
            self.work_area(),
            name=f"commute-u{self.user_id}",
            recurrence=recurrence,
        )

    def home_lbqid(self) -> LBQID:
        """A single-element, always-on LBQID over the home area.

        This is the paper's introductory threat ("the exact coordinates
        of a private house … identify the house's owner") expressed in
        the framework's own vocabulary: declaring it makes the Trusted
        Server generalize *every* request issued from home among k
        users, so forwarded home contexts are never centered on the
        dwelling.
        """
        from repro.core.lbqid import LBQIDElement
        from repro.granularity.unanchored import UnanchoredInterval

        return LBQID(
            f"home-u{self.user_id}",
            [
                LBQIDElement(
                    self.home_area(),
                    UnanchoredInterval(0.0, 86_399.0),
                    "at-home",
                )
            ],
        )

    def trajectory(
        self, days: int, rng: np.random.Generator, start_day: int = 0
    ) -> list[STPoint]:
        """PHL samples over ``days`` consecutive days.

        Weekdays hold the two commute trips (unless skipped) plus idle
        pings at home and at work; weekend days hold idle pings at home.
        Samples are returned in chronological order.
        """
        points: list[STPoint] = []
        for day in range(start_day, start_day + days):
            day_start = day * DAY
            is_workday = day_of_week(day_start) < 5
            works_today = is_workday and (
                rng.random() >= self.schedule.skip_probability
            )
            if not works_today:
                points.extend(
                    self._idle_pings(
                        self.home_point, day_start + 7 * HOUR,
                        day_start + 22 * HOUR,
                    )
                )
                continue
            # Both departures in one draw: ``mean + std * z`` is what
            # ``rng.normal(mean, std)`` returns, bit for bit, and the
            # generator ends in the same state.
            z_morning, z_evening = rng.standard_normal(2).tolist()
            std = self.schedule.departure_std_hours
            morning = day_start + HOUR * (
                self.schedule.morning_departure_hour + std * z_morning
            )
            evening = day_start + HOUR * (
                self.schedule.evening_departure_hour + std * z_evening
            )
            # Early-morning pings at home, the trip out, pings at work,
            # the trip back, evening pings at home.
            points.extend(
                self._idle_pings(
                    self.home_point, day_start + 6 * HOUR, morning
                )
            )
            trip_out = self.network.walk_route(
                self._route_out, morning, self.speed, self.sample_period
            )
            points.extend(STPoint(p.x, p.y, t) for p, t in trip_out)
            arrive = trip_out[-1][1]
            points.extend(self._idle_pings(self.work_point, arrive, evening))
            trip_back = self.network.walk_route(
                self._route_back, evening, self.speed, self.sample_period
            )
            points.extend(STPoint(p.x, p.y, t) for p, t in trip_back)
            home_again = trip_back[-1][1]
            points.extend(
                self._idle_pings(
                    self.home_point, home_again, day_start + 23 * HOUR
                )
            )
        return points

    def _idle_pings(
        self, anchor: Point, t_start: float, t_end: float
    ) -> list[STPoint]:
        """Stationary location updates while parked at an anchor."""
        pings = []
        t = t_start
        while t <= t_end:
            pings.append(STPoint(anchor.x, anchor.y, t))
            t += self.idle_ping_period
        return pings
