"""Unit tests for Personal Histories of Locations (Definitions 6–7)."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.phl import PersonalHistory
from repro.geometry.point import STPoint
from repro.geometry.region import Interval, Rect, STBox


def history(points):
    return PersonalHistory(1, points)


class TestOrdering:
    def test_sorted_on_construction(self):
        h = history([STPoint(0, 0, 30), STPoint(0, 0, 10), STPoint(0, 0, 20)])
        assert [p.t for p in h] == [10, 20, 30]

    def test_add_keeps_order(self):
        h = history([STPoint(0, 0, 10), STPoint(0, 0, 30)])
        h.add(STPoint(0, 0, 20))
        assert [p.t for p in h] == [10, 20, 30]

    def test_extend(self):
        h = history([])
        h.extend([STPoint(0, 0, 5), STPoint(0, 0, 1)])
        assert [p.t for p in h] == [1, 5]

    def test_extend_appends_ties_after_stored_samples(self):
        h = history([STPoint(0, 0, 1), STPoint(1, 0, 5)])
        h.extend([STPoint(2, 0, 5), STPoint(3, 0, 5), STPoint(4, 0, 9)])
        assert [p.x for p in h] == [0, 1, 2, 3, 4]

    def test_extend_overlapping_block_interleaves(self):
        h = history([STPoint(0, 0, 1), STPoint(1, 0, 5)])
        h.extend([STPoint(2, 0, 3), STPoint(3, 0, 7)])
        assert [p.x for p in h] == [0, 2, 1, 3]
        assert h.points_between(3, 5) == [STPoint(2, 0, 3), STPoint(1, 0, 5)]

    def test_extend_takes_an_iterator(self):
        h = history([])
        h.extend(STPoint(0, 0, t) for t in (1, 2, 2))
        assert [p.t for p in h] == [1, 2, 2]

    def test_len_and_getitem(self):
        h = history([STPoint(1, 2, 3)])
        assert len(h) == 1
        assert h[0] == STPoint(1, 2, 3)


class TestWindows:
    h = history([STPoint(i, i, 10.0 * i) for i in range(10)])

    def test_points_between_inclusive(self):
        got = self.h.points_between(20.0, 40.0)
        assert [p.t for p in got] == [20.0, 30.0, 40.0]

    def test_points_between_empty(self):
        assert self.h.points_between(1000.0, 2000.0) == []

    def test_points_in_box(self):
        box = STBox(Rect(0, 0, 5, 5), Interval(0, 100))
        got = self.h.points_in_box(box)
        assert len(got) == 6  # points 0..5

    def test_visits_box(self):
        assert self.h.visits_box(
            STBox(Rect(4, 4, 5, 5), Interval(40, 50))
        )
        assert not self.h.visits_box(
            STBox(Rect(4, 4, 5, 5), Interval(60, 70))
        )


class TestLTConsistency:
    h = history([STPoint(0, 0, 0), STPoint(100, 100, 100)])

    def test_consistent_when_every_context_visited(self):
        contexts = [
            STBox(Rect(-1, -1, 1, 1), Interval(0, 10)),
            STBox(Rect(99, 99, 101, 101), Interval(90, 110)),
        ]
        assert self.h.lt_consistent_with(contexts)

    def test_one_unvisited_context_breaks_consistency(self):
        contexts = [
            STBox(Rect(-1, -1, 1, 1), Interval(0, 10)),
            STBox(Rect(500, 500, 600, 600), Interval(0, 200)),
        ]
        assert not self.h.lt_consistent_with(contexts)

    def test_vacuous_for_empty_context_set(self):
        assert self.h.lt_consistent_with([])

    def test_right_place_wrong_time(self):
        contexts = [STBox(Rect(-1, -1, 1, 1), Interval(50, 60))]
        assert not self.h.lt_consistent_with(contexts)


class TestClosestPoint:
    def test_empty_history(self):
        assert history([]).closest_point_to(STPoint(0, 0, 0)) is None

    def test_exact_hit(self):
        h = history([STPoint(5, 5, 50)])
        assert h.closest_point_to(STPoint(5, 5, 50)) == STPoint(5, 5, 50)

    def test_prefers_spatio_temporal_proximity(self):
        near_time_far_space = STPoint(1000, 0, 100)
        near_space_far_time = STPoint(0, 0, 100000)
        h = history([near_time_far_space, near_space_far_time])
        target = STPoint(0, 0, 100)
        assert h.closest_point_to(target, time_scale=1.0) == (
            near_time_far_space
        )

    def test_time_scale_zero_is_pure_spatial(self):
        near_time_far_space = STPoint(1000, 0, 100)
        near_space_far_time = STPoint(0, 0, 100000)
        h = history([near_time_far_space, near_space_far_time])
        target = STPoint(0, 0, 100)
        assert h.closest_point_to(target, time_scale=0.0) == (
            near_space_far_time
        )

    def test_matches_brute_force(self):
        import numpy as np

        from repro.geometry.distance import st_distance

        rng = np.random.default_rng(0)
        points = [
            STPoint(
                float(rng.uniform(0, 1000)),
                float(rng.uniform(0, 1000)),
                float(rng.uniform(0, 86400)),
            )
            for _ in range(200)
        ]
        h = history(points)
        for _ in range(20):
            target = STPoint(
                float(rng.uniform(0, 1000)),
                float(rng.uniform(0, 1000)),
                float(rng.uniform(0, 86400)),
            )
            expected = min(
                points, key=lambda p: st_distance(p, target, 1.5)
            )
            got = h.closest_point_to(target, time_scale=1.5)
            assert st_distance(got, target, 1.5) == pytest.approx(
                st_distance(expected, target, 1.5)
            )


@st.composite
def ingest_blocks(draw):
    """Blocks of sample times, relative or absolute.

    ``after`` blocks are sorted offsets from the history's last sample
    at the moment they are ingested (offset 0 ties with it);
    ``overlap`` blocks are sorted absolute times that may start before
    it; ``shuffled`` blocks are in any order.  Times come from a small
    range so equal timestamps are common.
    """
    kind = draw(st.sampled_from(["after", "overlap", "shuffled"]))
    times = draw(st.lists(st.integers(0, 6).map(float), max_size=8))
    if kind != "shuffled":
        times.sort()
    return kind, times


class TestExtendMatchesAdd:
    """``extend`` leaves a history exactly as per-point ``add`` does."""

    @settings(max_examples=300, deadline=None)
    @given(
        initial=st.lists(st.integers(0, 6).map(float), max_size=6),
        blocks=st.lists(ingest_blocks(), max_size=6),
    )
    def test_extend_equals_repeated_add(self, initial, blocks):
        serial = itertools.count()

        def tagged(times):
            # x is a serial number, so tie order is visible.
            return [STPoint(float(next(serial)), 0.0, t) for t in times]

        start = tagged(initial)
        extended = PersonalHistory(1, start)
        added = PersonalHistory(1, start)
        for kind, times in blocks:
            if kind == "after":
                last = added[-1].t if len(added) else 0.0
                times = [last + offset for offset in times]
            block = tagged(times)
            extended.extend(block)
            for point in block:
                added.add(point)
            assert list(extended) == list(added)
        for t in {p.t for p in added}:
            assert extended.points_between(t, t) == added.points_between(
                t, t
            )
