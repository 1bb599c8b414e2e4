"""The trajectory store's cross-user index: one columnar view.

Every user's PHL lives in a :class:`~repro.core.phl.PersonalHistory`
point list, where the per-user queries (Algorithm 1 line 2) run.  The
queries that span *all* users — line 5's k nearest trajectories, the
users visiting an ST-box, and Definition 7 over the whole population —
run here instead: :class:`ColumnarView` holds every stored sample as
parallel ``x``/``y``/``t`` float64 columns plus a user-slot column, so
each of those queries is a handful of batched numpy array ops instead
of a python loop over every history.

Decision equivalence
--------------------

The view's answers are **exactly** the reference scans' answers
(:meth:`~repro.mod.store.TrajectoryStore.nearest_users_brute` and the
``PersonalHistory`` scans) — same tuples, same ordering, same
tie-breaks.  The argument has two halves: vectorized distances
*select*, and the scalar formula *reports*.

* Selection is sound because of two IEEE-754 facts (round-to-nearest,
  which numpy and CPython both use): ``fl(sqrt(fl(dt*dt))) == |dt|`` —
  the classic exact square-root identity — plus rounding monotonicity
  (``fl(a+b) >= a`` for non-negative ``b``), so every point *outside*
  a temporal window of half-width ``R`` has computed distance
  **strictly** greater than any distance ``<= R`` found inside it.
  Window pruning therefore never changes a minimum or drops a tie.
* The vectorized distance is **not** always bit-identical to
  :func:`repro.geometry.distance.st_distance`: the scalar path squares
  via CPython's ``x ** 2`` (libm ``pow``), the array path via IEEE
  multiplies, and ``pow(x, 2)`` can differ from ``fl(x*x)`` in the
  last ulp (≈0.1% of uniform doubles).  So vectorized minima decide
  *which* samples win, and every distance actually handed back to a
  caller is recomputed with ``st_distance`` on the winning sample.
  Exact distance *ties* still resolve identically under both formulas:
  ties the reference scan can observe come from coincident or mirrored
  geometry, where ``pow`` and multiply agree operand-for-operand,
  while distinct-geometry near-ties within one ulp cannot arise from
  the query envelope the suite pins.

Across users, ``nearest_users`` orders by ``(distance, user_id)``
exactly like ``heapq.nsmallest`` over the brute tuples; a user whose
minimum is achieved by more than one sample is handed back to the
store, which replays that user's ``closest_point_to`` so the list
scan's visit order breaks the tie.

The view owns no distance scale: every distance query takes the
store's ``time_scale`` as an argument, so a store whose scale is
reassigned after ingest answers with the new scale.

Ingest is a python list append; buffered samples reach the columns
on the next query, one slice write per column.  The columns grow by
capacity doubling, so ingest never copies the whole store per point.
The view keeps a time-sorted main segment plus a small unsorted tail
and merges (stable, so equal timestamps keep ingest order) only when
the tail overflows — amortized ``O(log n)`` per sample.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.geometry.point import STPoint
from repro.geometry.region import STBox

#: Smallest expanding-search radius; only reached when the seed
#: distance is exactly 0.0 (a stored sample coincides with the query).
_MIN_RADIUS = 1e-9


class ColumnarView:
    """Global concatenated columns over every user's samples.

    Rows carry a dense *slot* (per-user integer id) so per-user
    reductions are one ``np.minimum.at`` scatter over the gathered
    rows.  Ingest only appends to python lists; the next query writes
    them into the columns in one slice per column.  Rows
    ``[0, sorted_n)`` are time-sorted (stable — equal timestamps keep
    ingest order); later rows form an unsorted tail that is folded in
    by a stable merge when it outgrows ``TAIL_MAX``.  In-order
    arrivals extend the sorted segment directly and never trigger a
    merge.
    """

    #: Unsorted-tail bound before consolidation merges the columns.
    TAIL_MAX = 1024
    #: Blocks at least this large are written and merged on ingest
    #: (bulk loads); smaller ones wait in the buffer (streaming).
    BLOCK_MERGE_MIN = 128

    def __init__(self) -> None:
        capacity = 1024
        self._x = np.empty(capacity, dtype=np.float64)
        self._y = np.empty(capacity, dtype=np.float64)
        self._t = np.empty(capacity, dtype=np.float64)
        self._slot = np.empty(capacity, dtype=np.int64)
        self._n = 0
        self._sorted_n = 0
        self._pending: list[STPoint] = []
        self._pending_slots: list[int] = []
        self._uid_of_slot: list[int] = []
        self._uid_arr = np.empty(64, dtype=np.int64)
        self._slot_of_uid: dict[int, int] = {}

    # -- slots -----------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self._n + len(self._pending)

    @property
    def n_slots(self) -> int:
        return len(self._uid_of_slot)

    def slot_of(self, user_id: int) -> int | None:
        return self._slot_of_uid.get(user_id)

    def uid_of(self, slot: int) -> int:
        return self._uid_of_slot[slot]

    def points_at_rows(self, rows: Sequence[int]) -> list[STPoint]:
        """The samples at the given global rows, batch-constructed."""
        xs = self._x[rows].tolist()
        ys = self._y[rows].tolist()
        ts = self._t[rows].tolist()
        return [STPoint(x, y, t) for x, y, t in zip(xs, ys, ts)]

    def _slot_for(self, user_id: int) -> int:
        slot = self._slot_of_uid.get(user_id)
        if slot is None:
            slot = len(self._uid_of_slot)
            self._slot_of_uid[user_id] = slot
            self._uid_of_slot.append(user_id)
            if slot >= self._uid_arr.size:
                grown = np.empty(
                    self._uid_arr.size * 2, dtype=np.int64
                )
                grown[:slot] = self._uid_arr[:slot]
                self._uid_arr = grown
            self._uid_arr[slot] = user_id
        return slot

    # -- ingest ----------------------------------------------------------

    def _reserve(self, needed: int) -> None:
        capacity = self._x.size
        if needed <= capacity:
            return
        while capacity < needed:
            capacity *= 2
        for name in ("_x", "_y", "_t", "_slot"):
            old = getattr(self, name)
            new = np.empty(capacity, dtype=old.dtype)
            new[: self._n] = old[: self._n]
            setattr(self, name, new)

    def _consolidate(self) -> None:
        """Stable-merge the unsorted tail into the sorted main segment.

        Equivalent to a stable argsort of the whole prefix: the main
        segment is already time-sorted, so stable-sorting just the
        tail and merging at ``side="right"`` insert positions
        reproduces the stable order exactly (main rows first on equal
        timestamps, tail rows in arrival order).  O(n + k·log k) for a
        k-row tail instead of O(n·log n) for the full sort.
        """
        n, sn = self._n, self._sorted_n
        if sn == n:
            return
        tail_order = np.argsort(self._t[sn:n], kind="stable")
        where = np.searchsorted(
            self._t[:sn], self._t[sn:n][tail_order], side="right"
        )
        for name in ("_x", "_y", "_t", "_slot"):
            col = getattr(self, name)
            col[:n] = np.insert(
                col[:sn], where, col[sn:n][tail_order]
            )
        self._sorted_n = n

    def append(self, user_id: int, point: STPoint) -> None:
        """Buffer one sample; it reaches the columns on the next query."""
        self._pending.append(point)
        self._pending_slots.append(self._slot_for(user_id))

    def append_block(
        self, user_id: int, points: Sequence[STPoint]
    ) -> None:
        """Buffer one user's samples; see :meth:`append`.

        A block of at least ``BLOCK_MERGE_MIN`` samples is a bulk load,
        read-heavy afterwards: it is written and merged at once, so
        queries never pay for it.
        """
        self._pending.extend(points)
        self._pending_slots.extend([self._slot_for(user_id)] * len(points))
        if len(points) >= self.BLOCK_MERGE_MIN:
            self._flush(merge=True)

    def _flush(self, merge: bool = False) -> None:
        """Write the buffered samples into the columns.

        An in-order buffer extends the sorted segment; anything else
        joins the unsorted tail, merged at once when ``merge`` is set
        and otherwise once the tail outgrows ``TAIL_MAX``.  Row order
        never decides an answer (every query reduces per user or by
        unique minimum), so buffering changes only when the work is
        done.
        """
        pending = self._pending
        if not pending:
            return
        n = self._n
        end = n + len(pending)
        self._reserve(end)
        self._x[n:end] = [p.x for p in pending]
        self._y[n:end] = [p.y for p in pending]
        self._t[n:end] = [p.t for p in pending]
        self._slot[n:end] = self._pending_slots
        pending.clear()
        self._pending_slots.clear()
        self._n = end
        t = self._t
        lo = max(n, 1)
        if self._sorted_n == n and bool(
            np.all(t[lo:end] >= t[lo - 1 : end - 1])
        ):
            self._sorted_n = end
        elif merge or end - self._sorted_n > self.TAIL_MAX:
            self._consolidate()

    # -- queries -----------------------------------------------------------

    def _distances(
        self, rows: slice, target: STPoint, time_scale: float
    ) -> np.ndarray:
        # In-place accumulation; the association order stays
        # ((dx² + dy²) + dt²), matching ``st_distance`` up to its
        # libm-pow squaring — selection-grade only, so callers replay
        # ``st_distance`` for any distance they report (see the module
        # docstring).
        d = self._x[rows] - target.x
        d *= d
        dy = self._y[rows] - target.y
        dy *= dy
        d += dy
        dt = self._t[rows] - target.t
        dt *= time_scale
        dt *= dt
        d += dt
        return np.sqrt(d, out=d)

    def slots_in_box(self, box: STBox) -> np.ndarray:
        """Slot values (with duplicates) of rows inside ``box``."""
        self._flush()
        n, sn = self._n, self._sorted_n
        t = self._t
        lo = int(
            np.searchsorted(t[:sn], box.interval.start, side="left")
        )
        hi = int(
            np.searchsorted(t[:sn], box.interval.end, side="right")
        )
        rect = box.rect
        parts = []
        for rows, is_tail in ((slice(lo, hi), False),
                              (slice(sn, n), True)):
            x = self._x[rows]
            y = self._y[rows]
            mask = (
                (x >= rect.x_min)
                & (x <= rect.x_max)
                & (y >= rect.y_min)
                & (y <= rect.y_max)
            )
            if is_tail:  # unsorted tail: filter time too
                tt = t[rows]
                mask &= (tt >= box.interval.start) & (
                    tt <= box.interval.end
                )
            parts.append(self._slot[rows][mask])
        return np.concatenate(parts)

    def consistent_slots(
        self, contexts: Sequence[STBox]
    ) -> np.ndarray:
        """Definition 7 over all users at once: one in-box mask per
        context, AND-reduced into a per-slot boolean vector."""
        ok = np.ones(self.n_slots, dtype=bool)
        for context in contexts:
            hit = np.zeros(self.n_slots, dtype=bool)
            hit[self.slots_in_box(context)] = True
            ok &= hit
            if not ok.any():
                break
        return ok

    def nearest_slots(
        self,
        target: STPoint,
        count: int,
        time_scale: float,
        exclude_slots: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (at most) ``count`` users nearest to ``target``, in the
        brute output order.

        Expanding temporal-window search: a window of scaled half-width
        ``R`` around ``target.t`` provably contains every sample at
        distance ``<= R``, so any user whose windowed minimum is
        ``<= R`` has its *global* minimum resolved exactly.  The
        radius expands (×8) until ``count`` users resolve or the
        window covers the whole sorted segment; the final cut sorts
        the resolved users ascending ``(distance, user id)`` — exactly
        the ``heapq.nsmallest`` order of the python brute scan (user
        ids are unique, so the sample point never participates in the
        brute tuple comparisons).

        Returns ``(slots, minima, rows)``: minima are the vectorized
        (IEEE-multiply) distances — selection-grade, possibly one ulp
        off the scalar ``st_distance`` value, so callers must replay
        ``st_distance`` on the winning sample before reporting a
        distance.  ``rows[i]`` is the global row achieving
        ``minima[i]`` when that minimum is *unique* within the user's
        samples, and ``-1`` on an exact distance tie — the caller must
        then replay the per-history scan so its visit order decides
        (every sample at distance ``<= R`` is inside the gather, so
        uniqueness here is uniqueness globally).
        """
        self._flush()
        n, sn = self._n, self._sorted_n
        empty_i = np.empty(0, dtype=np.int64)
        empty = (empty_i, np.empty(0), empty_i)
        if n == 0 or count == 0:
            return empty
        t = self._t
        scale = time_scale
        has_tail = sn < n
        if has_tail:
            tail = slice(sn, n)
            tail_d = self._distances(tail, target, scale)
            tail_slots = self._slot[tail]
        tx, ty, tt = target.x, target.y, target.t
        seed = math.inf
        if sn:
            probe = int(np.searchsorted(t[:sn], tt, side="left"))
            for i in (probe - 1, probe):
                if 0 <= i < sn:
                    dx = self._x[i] - tx
                    dy = self._y[i] - ty
                    dt = (t[i] - tt) * scale
                    seed = min(
                        seed, math.sqrt(dx * dx + dy * dy + dt * dt)
                    )
        if has_tail and tail_d.size:
            seed = min(seed, float(tail_d.min()))
        radius = seed if seed > 0 else _MIN_RADIUS
        while True:
            if sn == 0:
                lo, hi = 0, 0
            elif scale > 0 and math.isfinite(radius):
                delta = radius / scale
                lo = int(
                    np.searchsorted(t[:sn], tt - delta, side="left")
                )
                hi = int(
                    np.searchsorted(t[:sn], tt + delta, side="right")
                )
                # Exact boundary walk on the computed scaled gap.
                while lo > 0 and (tt - t[lo - 1]) * scale <= radius:
                    lo -= 1
                while hi < sn and (t[hi] - tt) * scale <= radius:
                    hi += 1
            else:
                lo, hi = 0, sn
            complete = lo == 0 and hi == sn
            window_d = self._distances(slice(lo, hi), target, scale)
            if has_tail:
                d_all = np.concatenate([window_d, tail_d])
                s_all = np.concatenate(
                    [self._slot[lo:hi], tail_slots]
                )
            else:
                d_all = window_d
                s_all = self._slot[lo:hi]
            if d_all.size == 0:
                if complete:
                    return empty
                radius *= 8.0
                continue
            # Scatter-min into a per-slot table: float min has no
            # rounding, so each entry is *the* exact minimum over the
            # gathered rows.  ``inf`` doubles as the absent marker —
            # a *computed* distance of inf needs coordinates so large
            # that the python scan raises OverflowError on ``dx**2``,
            # i.e. outside the pinned equivalence envelope.  Excluded
            # users are simply marked absent.  The resolved check
            # below only runs with a finite radius (a non-finite one
            # takes the full-window branch above and exits complete),
            # so absent slots can never resolve.
            n_slots = len(self._uid_of_slot)
            per_slot = np.full(n_slots, np.inf)
            np.minimum.at(per_slot, s_all, d_all)
            if exclude_slots is not None and exclude_slots.size:
                per_slot[exclude_slots] = np.inf
            if complete:
                slots = np.flatnonzero(per_slot < np.inf)
                break
            resolved = per_slot <= radius
            if int(np.count_nonzero(resolved)) >= count:
                slots = np.flatnonzero(resolved)
                break
            radius *= 8.0
        if slots.size == 0:
            return empty
        minima = per_slot[slots]
        sel = np.lexsort((self._uid_arr[slots], minima))[:count]
        slots = slots[sel]
        minima = minima[sel]
        # Representative rows for the selected users only: flag their
        # slots, gather the rows that *achieve* their slot's minimum
        # (usually one per user), and scalar-scan those for a unique
        # minimum.  The gather index space is [window rows | tail
        # rows]; translate back to global rows without materializing
        # an index column.
        width = hi - lo
        wanted = np.zeros(n_slots, dtype=bool)
        wanted[slots] = True
        cand = np.flatnonzero(
            wanted[s_all] & (d_all == per_slot[s_all])
        )
        cand_list = cand.tolist()
        cand_slots = s_all[cand].tolist()
        cand_d = d_all[cand].tolist()
        best = {
            int(slot): (float(minimum), -1)
            for slot, minimum in zip(slots, minima)
        }
        for gathered, slot, value in zip(
            cand_list, cand_slots, cand_d
        ):
            minimum, first = best[slot]
            if value == minimum:
                if first >= 0:
                    best[slot] = (minimum, -2)  # tie: caller replays
                elif first == -1:
                    best[slot] = (minimum, gathered)
        rows = np.empty(slots.size, dtype=np.int64)
        for j in range(slots.size):
            gathered = best[int(slots[j])][1]
            if gathered < 0:
                rows[j] = -1
            else:
                rows[j] = (
                    lo + gathered
                    if gathered < width
                    else sn + (gathered - width)
                )
        return slots, minima, rows
