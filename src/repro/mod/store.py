"""The Trusted Server's trajectory store (all users' PHLs).

Provides exactly the queries Algorithm 1 needs:

* line 2 — per selected user, "the 3D point in its PHL closest to
  ⟨x, y, t⟩": :meth:`TrajectoryStore.closest_point` (and the batched
  :meth:`TrajectoryStore.closest_points`);
* line 5 — "the smallest 3D space … crossed by k trajectories (each one
  for a different user)": :meth:`TrajectoryStore.nearest_users`, which
  returns the k users whose nearest PHL sample is closest to the request
  point.

One design, no switch: each user's history is the paper's
:class:`~repro.core.phl.PersonalHistory` list, and every ingest also
feeds one global :class:`~repro.mod.columnar.ColumnarView`.  Per-user
queries (``closest_point``/``closest_points``/``history``) scan the
list, where python wins at the small per-user n.  Cross-user queries
(``nearest_users``/``users_in_box``/``lt_consistent_users``) answer
from the view with batched array ops, decision-equivalent to scanning
every list — same tuples, same ordering, same tie-breaks (see
:mod:`repro.mod.columnar` for the argument).  The paper's brute-force
O(k·n) selection survives as :meth:`TrajectoryStore.nearest_users_brute`,
the named reference that tests and benchmark E9 compare against.
"""

from __future__ import annotations

import heapq
import time
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.phl import PersonalHistory
from repro.geometry.distance import DEFAULT_TIME_SCALE, st_distance
from repro.geometry.point import STPoint
from repro.geometry.region import STBox
from repro.mod.columnar import ColumnarView
from repro.obs.config import Telemetry, TelemetryConfig, resolve_telemetry


class TrajectoryStore:
    """All users' Personal Histories of Locations plus one columnar view.

    ``time_scale`` is the meters-per-second conversion used in all
    spatio-temporal distances; the store is its only owner, so it may
    be reassigned after ingest.  ``telemetry`` records query counts and
    latencies under ``store.*``; every ``store.queries`` sample carries
    a ``method`` label — ``numpy`` for queries the columnar view
    answers, ``brute`` for PHL list scans.
    """

    def __init__(
        self,
        time_scale: float = DEFAULT_TIME_SCALE,
        telemetry: "Telemetry | TelemetryConfig | None" = None,
    ) -> None:
        self.time_scale = time_scale
        self.telemetry = resolve_telemetry(telemetry)
        #: Monotone ingest counter; consumers caching anything derived
        #: from the histories (e.g. the SLO monitor's incremental
        #: anonymity-set candidates) key their caches on it.  The
        #: batch contract: :meth:`add_point` bumps it once per point,
        #: :meth:`add_points` once per non-empty batch, so
        #: version-keyed caches are invalidated once per bulk replay
        #: instead of once per sample.
        self.version = 0
        self._histories: dict[int, PersonalHistory] = {}
        self._view = ColumnarView()

    @classmethod
    def from_histories(
        cls,
        histories: Mapping[int, PersonalHistory],
        time_scale: float = DEFAULT_TIME_SCALE,
    ) -> "TrajectoryStore":
        """A store over an existing histories mapping, user order kept.

        The offline analysis entry point: metrics and verifiers that
        receive a plain ``{user_id: PersonalHistory}`` mapping (audit
        pipelines, Theorem 1 checks) build a store once and answer
        their per-user scans with the columnar ``users_in_box`` /
        ``lt_consistent_users`` paths — identical results, array speed.
        """
        store = cls(time_scale=time_scale)
        store.add_histories(histories.items())
        return store

    def copy(
        self, telemetry: "Telemetry | TelemetryConfig | None" = None
    ) -> "TrajectoryStore":
        """An independent store with the same histories and index.

        One step instead of a re-ingest: the histories' lists and the
        view's columns are copied as they stand, so the copy answers
        every query exactly as this store does.  The view is
        consolidated first (sorted, empty tail), so neither store pays
        for a merge later.  ``telemetry`` is the copy's own.
        """
        clone = TrajectoryStore(self.time_scale, telemetry)
        clone.version = self.version
        clone._histories = {
            user_id: history.copy()
            for user_id, history in self._histories.items()
        }
        clone._view = self._view.copy()
        return clone

    def __len__(self) -> int:
        return len(self._histories)

    def __contains__(self, user_id: int) -> bool:
        return user_id in self._histories

    @property
    def histories(self) -> Mapping[int, PersonalHistory]:
        """Read-only mapping of user id to PHL."""
        return self._histories

    @property
    def total_points(self) -> int:
        """The ``n`` of the paper's O(k·n) bound: all stored samples."""
        return sum(len(h) for h in self._histories.values())

    def user_ids(self) -> Iterator[int]:
        return iter(self._histories)

    def history(self, user_id: int) -> PersonalHistory:
        """The PHL of ``user_id``; created empty on first access."""
        history = self._histories.get(user_id)
        if history is None:
            history = PersonalHistory(user_id)
            self._histories[user_id] = history
        return history

    def add_point(self, user_id: int, point: STPoint) -> None:
        """Ingest one location update (bumps ``version`` once)."""
        self.history(user_id).add(point)
        self._view.append(user_id, point)
        self.version += 1

    def add_points(
        self, user_id: int, points: Iterable[STPoint]
    ) -> int:
        """Batch-ingest location updates for one user.

        Equivalent to calling :meth:`add_point` per point except that
        ``version`` is bumped **once** for the whole batch (see
        :attr:`version`).  Returns the number of points ingested; an
        empty batch ingests nothing and does not bump ``version``.
        """
        return self.add_histories([(user_id, points)])

    def add_histories(
        self, batches: "Iterable[tuple[int, Iterable[STPoint]]]"
    ) -> int:
        """Bulk-ingest ``(user_id, points)`` batches, in order.

        ``version`` is bumped once per non-empty batch (see
        :attr:`version`), and the view takes all the batches as one
        block.  Returns the number of points ingested.
        """
        blocks = []
        for user_id, points in batches:
            history = self.history(user_id)
            batch = points if isinstance(points, list) else list(points)
            if batch:
                history.extend(batch)
                blocks.append((user_id, batch))
                self.version += 1
        self._view.append_blocks(blocks)
        return sum(len(batch) for _, batch in blocks)

    # -- Algorithm 1 line 2 ----------------------------------------------

    def closest_point(
        self, user_id: int, target: STPoint
    ) -> STPoint | None:
        """Algorithm 1 line 2 for one user."""
        history = self._histories.get(user_id)
        if history is None:
            return None
        self.telemetry.count(
            "store.queries",
            query="closest_point",
            method="brute",
        )
        return history.closest_point_to(target, self.time_scale)

    def closest_points(
        self, user_ids: Iterable[int], target: STPoint
    ) -> list[tuple[int, STPoint]]:
        """Algorithm 1 line 2 batched over ``user_ids``.

        Returns ``(user_id, closest_sample)`` in input order, skipping
        unknown users and empty histories — exactly the pairs repeated
        :meth:`closest_point` calls would yield.
        """
        results: list[tuple[int, STPoint]] = []
        queried = 0
        for user_id in user_ids:
            history = self._histories.get(user_id)
            if history is None:
                continue
            queried += 1
            closest = history.closest_point_to(target, self.time_scale)
            if closest is not None:
                results.append((user_id, closest))
        if queried:
            self.telemetry.count(
                "store.queries",
                queried,
                query="closest_point",
                method="brute",
            )
        return results

    # -- Algorithm 1 line 5 ----------------------------------------------

    def nearest_users(
        self,
        target: STPoint,
        count: int,
        exclude: frozenset[int] | set[int] = frozenset(),
    ) -> list[tuple[int, STPoint, float]]:
        """The ``count`` users whose nearest PHL sample is closest.

        Returns ``(user_id, closest_sample, distance)`` sorted by
        ``(distance, user_id)``; fewer tuples when not enough distinct
        users exist.  Answered from the columnar view; the result is
        exactly :meth:`nearest_users_brute`'s.
        """
        if not self.telemetry.enabled:
            return self._nearest_users_impl(target, count, exclude)
        start = time.perf_counter()
        result = self._nearest_users_impl(target, count, exclude)
        self._record_query("nearest_users", "numpy", start)
        return result

    def _record_query(self, query: str, method: str, start: float) -> None:
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        self.telemetry.count("store.queries", query=query, method=method)
        self.telemetry.observe(
            "store.query_ms", elapsed_ms, query=query, method=method
        )

    def nearest_users_brute(
        self,
        target: STPoint,
        count: int,
        exclude: frozenset[int] | set[int] = frozenset(),
    ) -> list[tuple[int, STPoint, float]]:
        """The paper's brute-force selection: scan every user's PHL.

        "Simply considering the nearest neighbor in the PHL of each user
        and then taking the closest k points", worst case O(k·n).
        """
        if not self.telemetry.enabled:
            return self._nearest_users_brute_impl(target, count, exclude)
        start = time.perf_counter()
        result = self._nearest_users_brute_impl(target, count, exclude)
        self._record_query("nearest_users", "brute", start)
        return result

    def _nearest_users_brute_impl(
        self,
        target: STPoint,
        count: int,
        exclude: frozenset[int] | set[int] = frozenset(),
    ) -> list[tuple[int, STPoint, float]]:
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        candidates: list[tuple[float, int, STPoint]] = []
        for user_id, history in self._histories.items():
            if user_id in exclude:
                continue
            closest = history.closest_point_to(target, self.time_scale)
            if closest is None:
                continue
            distance = st_distance(closest, target, self.time_scale)
            candidates.append((distance, user_id, closest))
        nearest = heapq.nsmallest(count, candidates)
        return [
            (user_id, point, distance)
            for distance, user_id, point in nearest
        ]

    def _nearest_users_impl(
        self,
        target: STPoint,
        count: int,
        exclude: frozenset[int] | set[int],
    ) -> list[tuple[int, STPoint, float]]:
        """Columnar Algorithm 1 line 5 (decision-equivalent to brute).

        The view resolves exact per-user minimum distances for a
        superset of the answer and cuts it to the brute ordering —
        ascending ``(distance, user_id)``, the order
        ``heapq.nsmallest`` gives the brute tuples.  When a user's
        minimum is achieved by a *unique* sample, that sample IS what
        the per-history scan would report, so it comes straight from
        the gathered row; only exact distance ties replay
        ``closest_point_to`` so the list's visit order breaks them.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        view = self._view
        if count == 0 or view.n_rows == 0:
            return []
        exclude_slots = None
        if exclude:
            exclude_slots = np.array(
                sorted(
                    slot
                    for uid in exclude
                    if (slot := view.slot_of(uid)) is not None
                ),
                dtype=np.int64,
            )
        slots, minima, rows = view.nearest_slots(
            target, count, self.time_scale, exclude_slots
        )
        rows_list = rows.tolist()
        reps = iter(
            view.points_at_rows([r for r in rows_list if r >= 0])
        )
        results: list[tuple[int, STPoint, float]] = []
        for slot, row in zip(slots.tolist(), rows_list):
            user_id = view.uid_of(slot)
            if row >= 0:
                closest = next(reps)
            else:
                tied = self._histories[user_id].closest_point_to(
                    target, self.time_scale
                )
                assert tied is not None
                closest = tied
            # The reported distance replays ``st_distance``: the
            # vectorized minima use IEEE multiplies where the scalar
            # path goes through libm ``pow``, which can differ in the
            # last ulp — minima decide *selection*, never the output.
            results.append(
                (
                    user_id,
                    closest,
                    st_distance(closest, target, self.time_scale),
                )
            )
        return results

    # -- ST-range and LT-consistency --------------------------------------

    def users_in_box(self, box: STBox) -> set[int]:
        """Distinct users with at least one sample inside ``box``."""
        if not self.telemetry.enabled:
            return self._users_in_box_impl(box)
        start = time.perf_counter()
        result = self._users_in_box_impl(box)
        self._record_query("users_in_box", "numpy", start)
        return result

    def _users_in_box_impl(self, box: STBox) -> set[int]:
        view = self._view
        return {
            view.uid_of(int(slot))
            for slot in np.unique(view.slots_in_box(box))
        }

    def lt_consistent_users(
        self,
        contexts: Sequence[STBox] | Iterable[STBox],
        exclude_user: int | None = None,
    ) -> list[int]:
        """Users whose PHL is LT-consistent with every context.

        The store-level form of Definition 7 over all users at once
        (the inner loop of historical-k candidate recomputation), in
        ingest order — exactly the ids a scan of
        :attr:`histories` filtered by ``lt_consistent_with`` yields.
        An empty ``contexts`` is vacuously consistent with everyone,
        empty histories included.
        """
        boxes = list(contexts)
        if not self.telemetry.enabled:
            return self._lt_consistent_users_impl(boxes, exclude_user)
        start = time.perf_counter()
        result = self._lt_consistent_users_impl(boxes, exclude_user)
        self._record_query("lt_consistent_users", "numpy", start)
        return result

    def _lt_consistent_users_impl(
        self, boxes: list[STBox], exclude_user: int | None
    ) -> list[int]:
        if not boxes:
            return [u for u in self._histories if u != exclude_user]
        view = self._view
        ok = view.consistent_slots(boxes)
        consistent = []
        for user_id in self._histories:
            if user_id == exclude_user:
                continue
            slot = view.slot_of(user_id)
            if slot is not None and ok[slot]:
                consistent.append(user_id)
        return consistent
