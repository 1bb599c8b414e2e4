"""Personal Histories of Locations and LT-consistency (Definitions 6–7).

The Trusted Server "not only stores … the set of requests that are issued
by each user, but also stores for each user the sequence of his/her
location updates" — the *Personal History of Locations* (PHL), a sequence
of 3D points ``⟨x, y, t⟩``.  Location updates arrive even when no request
is made, which is exactly why PHLs (not request logs) define the anonymity
sets of Definition 8.

Definition 7: a PHL is *LT-consistent* with a set of requests when, for
each request, some PHL point falls inside the request's generalized
``⟨Area, TimeInterval⟩`` context.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Sequence

from repro.geometry.distance import DEFAULT_TIME_SCALE, st_distance
from repro.geometry.point import STPoint
from repro.geometry.region import STBox


class PersonalHistory:
    """The PHL of one user: location samples ordered by time.

    Points may be appended in any order; the history keeps itself sorted
    by timestamp so time-window scans stay logarithmic.

    .. note:: The store's cross-user queries run on
       :class:`repro.mod.columnar.ColumnarView`, pinned
       decision-equivalent to scans over these lists (identical
       results including equal-timestamp insertion order, and ties
       broken by :meth:`closest_point_to`'s visit order, which the
       store replays).  Any semantic change here — in particular to
       :meth:`add`'s ``bisect_right`` placement or
       :meth:`closest_point_to`'s visit order and pruning — must be
       mirrored there; ``tests/mod/test_store_properties.py`` enforces
       the equivalence.
    """

    def __init__(
        self, user_id: int, points: Iterable[STPoint] = ()
    ) -> None:
        self.user_id = user_id
        self._points: list[STPoint] = sorted(points, key=lambda p: p.t)
        self._times: list[float] = [p.t for p in self._points]

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self):
        return iter(self._points)

    def __getitem__(self, index: int) -> STPoint:
        return self._points[index]

    @property
    def points(self) -> Sequence[STPoint]:
        """The samples in timestamp order (read-only view)."""
        return tuple(self._points)

    def add(self, point: STPoint) -> None:
        """Record one location update."""
        index = bisect.bisect_right(self._times, point.t)
        self._points.insert(index, point)
        self._times.insert(index, point.t)

    def extend(self, points: Iterable[STPoint]) -> None:
        """Record several location updates.

        Same result as :meth:`add` per point.  A block in time order
        that starts no earlier than the last stored sample (the usual
        case: a bulk load, or a flush of fresh updates) is appended in
        one step, since each ``bisect_right`` would land at the end.
        """
        block = list(points)
        times = [p.t for p in block]
        if (
            times
            and (not self._times or self._times[-1] <= times[0])
            and all(a <= b for a, b in zip(times, times[1:]))
        ):
            self._points.extend(block)
            self._times.extend(times)
            return
        for point in block:
            self.add(point)

    def points_between(self, t_start: float, t_end: float) -> list[STPoint]:
        """Samples with timestamps in the closed interval."""
        lo = bisect.bisect_left(self._times, t_start)
        hi = bisect.bisect_right(self._times, t_end)
        return self._points[lo:hi]

    def points_in_box(self, box: STBox) -> list[STPoint]:
        """Samples falling inside a spatio-temporal box."""
        return [
            p
            for p in self.points_between(box.interval.start, box.interval.end)
            if box.rect.contains(p.point)
        ]

    def visits_box(self, box: STBox) -> bool:
        """Whether any sample falls inside the box (one request's test
        for Definition 7)."""
        return any(
            box.rect.contains(p.point)
            for p in self.points_between(box.interval.start, box.interval.end)
        )

    def lt_consistent_with(self, contexts: Iterable[STBox]) -> bool:
        """Definition 7: LT-consistency with a set of request contexts."""
        return all(self.visits_box(context) for context in contexts)

    def closest_point_to(
        self, target: STPoint, time_scale: float = DEFAULT_TIME_SCALE
    ) -> STPoint | None:
        """The PHL sample nearest to ``target`` in space-time.

        This is the per-user step of Algorithm 1 line 2 ("find the 3D
        point in its PHL closest to ⟨x, y, t⟩").  Returns ``None`` for an
        empty history.

        The scan is pruned with the temporal axis: samples are visited
        outward from ``target.t`` and the scan stops once the time gap
        alone (scaled by ``time_scale``) exceeds the best distance so far.
        """
        if not self._points:
            return None
        center = bisect.bisect_left(self._times, target.t)
        best: STPoint | None = None
        best_distance = float("inf")
        left = center - 1
        right = center
        while left >= 0 or right < len(self._points):
            candidates = []
            if right < len(self._points):
                gap = (self._times[right] - target.t) * time_scale
                if gap <= best_distance:
                    candidates.append(self._points[right])
                    right += 1
                else:
                    right = len(self._points)
            if left >= 0:
                gap = (target.t - self._times[left]) * time_scale
                if gap <= best_distance:
                    candidates.append(self._points[left])
                    left -= 1
                else:
                    left = -1
            if not candidates:
                break
            for candidate in candidates:
                distance = st_distance(candidate, target, time_scale)
                if distance < best_distance:
                    best = candidate
                    best_distance = distance
        return best

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PersonalHistory(user_id={self.user_id}, "
            f"samples={len(self._points)})"
        )
