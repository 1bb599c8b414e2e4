"""On-demand mix-zones (Section 6.3).

"We are interested in defining mix-zones on-demand, for example
temporarily disabling the use of the service for a number of users in the
same area for the time sufficient to confuse the SP.  Technically, we may
define the problem as that of finding, given a specific point in space, k
diverging trajectories (each one for a different user) that are
sufficiently close to the point."

:class:`OnDemandMixZone` implements exactly that test against the TS's
trajectory store, and doubles as the
:class:`~repro.core.unlinking.UnlinkingProvider` the engine calls
when generalization fails:

* find users whose latest position (within ``staleness``) lies within
  ``radius`` of the request point;
* estimate each one's heading from its last two samples;
* succeed when at least ``k`` users (requester included) are present and
  their headings are *diverging* — spread over at least
  ``min_heading_sectors`` of the compass's four quadrants, capturing "once
  out of the mix-zone, [they] will take very different trajectories".

The achieved Θ reported on success is ``1 / (number of plausible
candidates)`` — the attacker's best per-pair confidence when every
candidate is equally likely to be the continuation.
"""

from __future__ import annotations

import math

from repro.core.phl import PersonalHistory
from repro.core.unlinking import UnlinkOutcome
from repro.geometry.point import STPoint
from repro.mod.store import TrajectoryStore


class OnDemandMixZone:
    """Unlinking provider backed by on-demand mix-zone formation."""

    def __init__(
        self,
        store: TrajectoryStore,
        k: int = 3,
        radius: float = 250.0,
        staleness: float = 900.0,
        min_heading_sectors: int = 2,
    ) -> None:
        if k < 2:
            raise ValueError(f"k must be at least 2 to mix, got {k}")
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        if staleness <= 0:
            raise ValueError(f"staleness must be positive, got {staleness}")
        if not 1 <= min_heading_sectors <= 4:
            raise ValueError("min_heading_sectors must be in 1..4")
        self.store = store
        self.k = k
        self.radius = radius
        self.staleness = staleness
        self.min_heading_sectors = min_heading_sectors
        #: Successful formations, for inspection/metrics.
        self.formations: list[tuple[STPoint, tuple[int, ...]]] = []

    def attempt_unlink(
        self, user_id: int, location: STPoint
    ) -> UnlinkOutcome:
        """Try to form a mix-zone at the request point."""
        candidates = self._candidates_near(location, exclude=user_id)
        if len(candidates) < self.k - 1:
            return UnlinkOutcome(success=False)
        headings = [
            heading
            for heading in (
                self._heading_of(candidate, location.t)
                for candidate in candidates
            )
            if heading is not None
        ]
        sectors = {self._sector(heading) for heading in headings}
        if len(sectors) < self.min_heading_sectors:
            return UnlinkOutcome(success=False)
        self.formations.append((location, tuple(candidates)))
        theta = 1.0 / (len(candidates) + 1)
        return UnlinkOutcome(success=True, theta=theta)

    def _candidates_near(
        self, location: STPoint, exclude: int
    ) -> list[int]:
        """Users whose fresh-enough latest sample is within the radius."""
        nearby = []
        for other_id, history in self.store.histories.items():
            if other_id == exclude:
                continue
            latest = self._latest_sample(history, location.t)
            if latest is None:
                continue
            if latest.spatial_distance_to(location) <= self.radius:
                nearby.append(other_id)
        return nearby

    def _latest_sample(
        self, history: PersonalHistory, now: float
    ) -> STPoint | None:
        """Most recent sample at or before ``now``, if fresh enough."""
        recent = history.points_between(now - self.staleness, now)
        return recent[-1] if recent else None

    def _heading_of(
        self, user_id: int, now: float
    ) -> float | None:
        """Heading (radians) from the user's last two fresh samples."""
        history = self.store.history(user_id)
        recent = history.points_between(now - self.staleness, now)
        if len(recent) < 2:
            return None
        before, after = recent[-2], recent[-1]
        dx = after.x - before.x
        dy = after.y - before.y
        if dx == 0 and dy == 0:
            return None
        return math.atan2(dy, dx)

    @staticmethod
    def _sector(heading: float) -> int:
        """Compass quadrant (0..3) of a heading."""
        turn = (heading + math.pi) / (2.0 * math.pi)  # 0..1
        return min(3, int(turn * 4.0))
