"""Unit tests for the trajectory store."""

import pytest

from repro.geometry.distance import st_distance
from repro.geometry.point import STPoint
from repro.geometry.region import Interval, Rect, STBox
from repro.mod.store import TrajectoryStore
from repro.obs import TelemetryConfig


class TestIngest:
    def test_history_created_on_access(self):
        store = TrajectoryStore()
        assert len(store.history(5)) == 0
        assert 5 in store

    def test_add_point(self):
        store = TrajectoryStore()
        store.add_point(1, STPoint(0, 0, 10))
        assert store.total_points == 1

    def test_add_points(self):
        store = TrajectoryStore()
        store.add_points(1, [STPoint(0, 0, t) for t in range(5)])
        assert len(store.history(1)) == 5

    def test_len_counts_users(self):
        store = TrajectoryStore()
        store.add_point(1, STPoint(0, 0, 0))
        store.add_point(2, STPoint(0, 0, 0))
        assert len(store) == 2


class TestBatchIngest:
    def test_add_points_bumps_version_once(self):
        store = TrajectoryStore()
        ingested = store.add_points(
            1, [STPoint(0, 0, t) for t in range(5)]
        )
        assert ingested == 5
        assert len(store.history(1)) == 5
        assert store.version == 1

    def test_add_point_bumps_version_per_point(self):
        store = TrajectoryStore()
        for t in range(5):
            store.add_point(1, STPoint(0, 0, t))
        assert store.version == 5

    def test_empty_batch_does_not_bump_version(self):
        store = TrajectoryStore()
        assert store.add_points(1, []) == 0
        assert store.version == 0
        # The empty history is still materialized, as with history().
        assert 1 in store

    def test_add_points_delegates_to_add_points(self):
        store = TrajectoryStore()
        store.add_points(1, [STPoint(0, 0, t) for t in range(3)])
        assert store.version == 1
        assert len(store.history(1)) == 3

    def test_batch_ingest_feeds_the_view(self):
        batch = TrajectoryStore()
        single = TrajectoryStore()
        points = [STPoint(50.0 * t, 0.0, 60.0 * t) for t in range(6)]
        batch.add_points(1, points)
        for point in points:
            single.add_point(1, point)
        target = STPoint(120.0, 10.0, 150.0)
        assert batch.nearest_users(target, 1) == single.nearest_users(
            target, 1
        )

    def test_batch_and_single_ingest_agree(self):
        batch = TrajectoryStore()
        single = TrajectoryStore()
        points = [STPoint(float(t), float(-t), 10.0 * t) for t in range(4)]
        batch.add_points(2, points)
        for point in points:
            single.add_point(2, point)
        assert list(batch.history(2)) == list(single.history(2))


class TestClosestPoint:
    def test_unknown_user(self):
        assert TrajectoryStore().closest_point(9, STPoint(0, 0, 0)) is None

    def test_picks_nearest(self):
        store = TrajectoryStore()
        store.add_points(
            1, [STPoint(0, 0, 0), STPoint(100, 100, 100)]
        )
        got = store.closest_point(1, STPoint(1, 1, 1))
        assert got == STPoint(0, 0, 0)


class TestNearestUsers:
    def build(self):
        store = TrajectoryStore()
        for user_id in range(1, 8):
            store.add_points(
                user_id,
                [
                    STPoint(100.0 * user_id, 0.0, 0.0),
                    STPoint(100.0 * user_id, 0.0, 600.0),
                ],
            )
        return store

    def test_orders_by_distance(self):
        store = self.build()
        got = store.nearest_users(STPoint(0, 0, 0), 3)
        assert [user_id for user_id, _p, _d in got] == [1, 2, 3]

    def test_excludes_requester(self):
        store = self.build()
        got = store.nearest_users(STPoint(0, 0, 0), 3, exclude={1})
        assert [user_id for user_id, _p, _d in got] == [2, 3, 4]

    def test_count_larger_than_population(self):
        store = self.build()
        got = store.nearest_users(STPoint(0, 0, 0), 100)
        assert len(got) == 7

    def test_zero_count(self):
        assert self.build().nearest_users(STPoint(0, 0, 0), 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            self.build().nearest_users(STPoint(0, 0, 0), -1)

    def test_distances_reported(self):
        store = self.build()
        target = STPoint(0, 0, 0)
        for user_id, point, distance in store.nearest_users(target, 3):
            assert distance == pytest.approx(
                st_distance(point, target, store.time_scale)
            )

    def test_view_matches_brute_force(self):
        import numpy as np

        rng = np.random.default_rng(3)
        store = TrajectoryStore()
        for user_id in range(30):
            points = [
                STPoint(
                    float(rng.uniform(0, 3000)),
                    float(rng.uniform(0, 3000)),
                    float(rng.uniform(0, 7200)),
                )
                for _ in range(20)
            ]
            store.add_points(user_id, points)
        for _ in range(10):
            target = STPoint(
                float(rng.uniform(0, 3000)),
                float(rng.uniform(0, 3000)),
                float(rng.uniform(0, 7200)),
            )
            assert store.nearest_users(
                target, 5
            ) == store.nearest_users_brute(target, 5)


class TestUsersInBox:
    def test_empty_store(self):
        box = STBox(Rect(0, 0, 10, 10), Interval(0, 10))
        assert TrajectoryStore().users_in_box(box) == set()

    def test_view_matches_phl_scan(self):
        box = STBox(Rect(50, -10, 250, 10), Interval(0, 700))
        store = TrajectoryStore()
        for user_id in range(1, 8):
            store.add_points(
                user_id,
                [
                    STPoint(100.0 * user_id, 0.0, 0.0),
                    STPoint(100.0 * user_id, 0.0, 600.0),
                ],
            )
        scanned = {
            user_id
            for user_id, history in store.histories.items()
            if history.visits_box(box)
        }
        assert store.users_in_box(box) == scanned == {1, 2}

    def test_distinct_users_once_each(self):
        store = TrajectoryStore(time_scale=1.0)
        store.add_points(1, [STPoint(50, 50, 50), STPoint(60, 60, 60)])
        store.add_point(2, STPoint(150, 150, 150))
        store.add_point(3, STPoint(950, 950, 950))
        box = STBox(Rect(0, 0, 200, 200), Interval(0, 200))
        assert store.users_in_box(box) == {1, 2}
        narrow = STBox(Rect(0, 0, 200, 200), Interval(0, 100))
        assert store.users_in_box(narrow) == {1}


# A sample on each face of the closed box [0,100]² × [0,100].
BOUNDARY_BOX = STBox(Rect(0, 0, 100, 100), Interval(0, 100))
FACES = {
    "x_min": STPoint(0, 50, 50),
    "x_max": STPoint(100, 50, 50),
    "y_min": STPoint(50, 0, 50),
    "y_max": STPoint(50, 100, 50),
    "t_start": STPoint(50, 50, 0),
    "t_end": STPoint(50, 50, 100),
}


def _store_with(point, *, in_tail):
    """A store holding ``point`` for user 1, either in the view's
    time-sorted segment or in its unsorted tail (user 2's later
    sample arrives first, so user 1's sample is out of order)."""
    store = TrajectoryStore(time_scale=1.0)
    if in_tail:
        store.add_point(2, STPoint(500, 500, 500))
    store.add_point(1, point)
    return store


class TestBoxBoundaries:
    @pytest.mark.parametrize("face", list(FACES))
    def test_box_boundary_points_included(self, face):
        for in_tail in (False, True):
            store = _store_with(FACES[face], in_tail=in_tail)
            assert store.users_in_box(BOUNDARY_BOX) == {1}, in_tail
            assert store.history(1).visits_box(BOUNDARY_BOX)
            assert 1 in store.lt_consistent_users([BOUNDARY_BOX])

    def test_points_just_outside_excluded(self):
        eps = 1e-9
        outside = [
            STPoint(-eps, 50, 50),
            STPoint(100 + eps, 50, 50),
            STPoint(50, -eps, 50),
            STPoint(50, 100 + eps, 50),
            STPoint(50, 50, -eps),
            STPoint(50, 50, 100 + eps),
        ]
        for point in outside:
            for in_tail in (False, True):
                store = _store_with(point, in_tail=in_tail)
                assert store.users_in_box(BOUNDARY_BOX) == set(), point
                assert store.lt_consistent_users([BOUNDARY_BOX]) == []


class TestNearestUsersEdges:
    def test_empty_store(self):
        assert TrajectoryStore().nearest_users(STPoint(0, 0, 0), 3) == []

    def test_one_entry_per_user(self):
        store = TrajectoryStore()
        store.add_point(1, STPoint(0, 0, 0))
        store.add_point(1, STPoint(5, 5, 0))
        store.add_point(2, STPoint(50, 50, 0))
        got = store.nearest_users(STPoint(0, 0, 0), 5)
        assert [user_id for user_id, _p, _d in got] == [1, 2]
        assert got[0][1] == STPoint(0, 0, 0)

    def test_excluding_unknown_users_is_harmless(self):
        store = TrajectoryStore()
        store.add_point(1, STPoint(0, 0, 0))
        store.add_point(2, STPoint(10, 0, 0))
        target = STPoint(0, 0, 0)
        got = store.nearest_users(target, 2, exclude={1, 404})
        assert got == store.nearest_users_brute(target, 2, exclude={1, 404})
        assert [user_id for user_id, _p, _d in got] == [2]

    def test_excluding_everyone(self):
        store = TrajectoryStore()
        store.add_point(1, STPoint(0, 0, 0))
        store.add_point(2, STPoint(10, 0, 0))
        assert store.nearest_users(STPoint(0, 0, 0), 2, exclude={1, 2}) == []

    def test_coincident_sample_has_distance_zero(self):
        store = TrajectoryStore()
        store.add_point(1, STPoint(7, 7, 70))
        store.add_point(2, STPoint(8, 7, 70))
        got = store.nearest_users(STPoint(7, 7, 70), 2)
        assert got == store.nearest_users_brute(STPoint(7, 7, 70), 2)
        assert got[0] == (1, STPoint(7, 7, 70), 0.0)

    def test_target_far_from_every_sample_in_time(self):
        """The expanding window has to grow many times before it
        reaches any stored sample."""
        store = TrajectoryStore(time_scale=1.0)
        for user_id in range(5):
            store.add_points(
                user_id,
                [STPoint(10.0 * user_id, 0.0, float(t)) for t in range(10)],
            )
        target = STPoint(0.0, 0.0, 1e7)
        got = store.nearest_users(target, 3)
        assert got == store.nearest_users_brute(target, 3)
        assert [user_id for user_id, _p, _d in got] == [0, 1, 2]

    def test_zero_time_scale_ignores_time(self):
        store = TrajectoryStore(time_scale=0.0)
        store.add_point(1, STPoint(0, 0, 0))
        store.add_point(2, STPoint(5, 0, 10_000))
        target = STPoint(6, 0, 0)
        got = store.nearest_users(target, 2)
        assert got == store.nearest_users_brute(target, 2)
        assert [(user_id, d) for user_id, _p, d in got] == [(2, 1.0), (1, 6.0)]

    def test_out_of_order_ingest_matches_brute_force(self):
        """Samples arriving backwards in time sit in the view's
        unsorted tail; answers must not depend on that."""
        store = TrajectoryStore(time_scale=1.0)
        for t in range(40, 0, -1):
            store.add_point(t % 4, STPoint(float(t), float(-t), 10.0 * t))
        for target in (STPoint(0, 0, 0), STPoint(20, -20, 200)):
            for count in (1, 3, 4):
                assert store.nearest_users(
                    target, count
                ) == store.nearest_users_brute(target, count)


class TestLtConsistentUsers:
    CONTEXT = STBox(Rect(0, 0, 10, 10), Interval(0, 10))

    def build(self):
        store = TrajectoryStore()
        store.add_point(3, STPoint(5, 5, 5))
        store.history(1)  # an empty PHL
        store.add_point(2, STPoint(50, 50, 50))
        store.add_point(0, STPoint(1, 1, 1))
        return store

    def test_consistent_users_in_ingest_order(self):
        assert self.build().lt_consistent_users([self.CONTEXT]) == [3, 0]

    def test_exclude_user(self):
        store = self.build()
        assert store.lt_consistent_users(
            [self.CONTEXT], exclude_user=3
        ) == [0]

    def test_empty_contexts_admit_everyone(self):
        store = self.build()
        assert store.lt_consistent_users([]) == [3, 1, 2, 0]
        assert store.lt_consistent_users([], exclude_user=1) == [3, 2, 0]

    def test_every_context_must_be_visited(self):
        store = self.build()
        later = STBox(Rect(0, 0, 10, 10), Interval(20, 30))
        store.add_point(0, STPoint(2, 2, 25))
        assert store.lt_consistent_users([self.CONTEXT, later]) == [0]
        assert store.lt_consistent_users(iter([self.CONTEXT, later])) == [0]


class TestFromHistories:
    def test_keeps_user_order_and_answers(self):
        source = TrajectoryStore(time_scale=1.0)
        for user_id in (9, 4, 6):
            source.add_points(
                user_id,
                [STPoint(float(user_id), 0.0, float(t)) for t in range(3)],
            )
        copy = TrajectoryStore.from_histories(
            source.histories, time_scale=1.0
        )
        assert list(copy.user_ids()) == [9, 4, 6]
        assert copy.total_points == source.total_points == 9
        target = STPoint(5.0, 0.0, 1.0)
        assert copy.nearest_users(target, 3) == source.nearest_users_brute(
            target, 3
        )


class TestTelemetryDoesNotChangeAnswers:
    def test_enabled_and_disabled_agree(self):
        stores = [
            TrajectoryStore(telemetry=TelemetryConfig(enabled=enabled).build())
            for enabled in (False, True)
        ]
        for store in stores:
            for user_id in range(6):
                store.add_points(
                    user_id,
                    [
                        STPoint(30.0 * user_id, 5.0 * t, 60.0 * t)
                        for t in range(4)
                    ],
                )
        target = STPoint(40.0, 5.0, 90.0)
        box = STBox(Rect(0, 0, 100, 20), Interval(0, 200))
        quiet, loud = stores
        assert quiet.nearest_users(target, 3) == loud.nearest_users(
            target, 3
        )
        assert quiet.nearest_users_brute(
            target, 3
        ) == loud.nearest_users_brute(target, 3)
        assert quiet.users_in_box(box) == loud.users_in_box(box)
        assert quiet.lt_consistent_users([box]) == loud.lt_consistent_users(
            [box]
        )


def _loaded_store(**kwargs) -> TrajectoryStore:
    """Six users with interleaved timestamps: per-user blocks arrive out
    of global time order, so the view has a tail to merge."""
    store = TrajectoryStore(**kwargs)
    for user_id in (5, 0, 3, 1, 4, 2):
        store.add_points(
            user_id,
            [
                STPoint(40.0 * user_id + t, 7.0 * t, 30.0 * t + user_id)
                for t in range(200)
            ],
        )
    return store


def _answers(store: TrajectoryStore) -> tuple:
    box = STBox(Rect(0, 0, 120, 700), Interval(100, 3000))
    target = STPoint(90.0, 300.0, 1500.0)
    return (
        list(store.user_ids()),
        {uid: list(history) for uid, history in store.histories.items()},
        store.nearest_users(target, 4),
        store.nearest_users_brute(target, 4),
        store.users_in_box(box),
        store.lt_consistent_users([box]),
        store.closest_points(store.user_ids(), target),
    )


class TestBulkLoad:
    def test_add_histories_matches_add_points(self):
        batches = [
            (user_id, list(history))
            for user_id, history in _loaded_store().histories.items()
        ] + [(9, [])]
        bulk = TrajectoryStore()
        assert bulk.add_histories(iter(batches)) == 1200
        one_by_one = TrajectoryStore()
        for user_id, points in batches:
            one_by_one.add_points(user_id, points)
        assert _answers(bulk) == _answers(one_by_one)
        # One bump per non-empty batch; the empty one still opens a PHL.
        assert bulk.version == one_by_one.version == 6
        assert 9 in bulk


class TestCopy:
    def test_copy_answers_like_the_source(self):
        source = _loaded_store(time_scale=2.0)
        copy = source.copy()
        assert copy.time_scale == 2.0
        assert copy.version == source.version
        assert _answers(copy) == _answers(source)

    def test_copy_is_consolidated(self):
        source = _loaded_store()
        source.add_point(0, STPoint(1.0, 1.0, 5.0))  # buffered, unsorted
        view = source.copy()._view
        assert not view._pending
        assert view._sorted_n == view._n == 1201
        assert bool((view._t[1:1201] >= view._t[:1200]).all())

    def test_copy_is_independent(self):
        source = _loaded_store()
        before = _answers(source)
        copy = source.copy()
        copy.add_points(7, [STPoint(95.0, 300.0, 1500.0)])
        copy.add_point(0, STPoint(90.0, 300.0, 1500.0))
        assert _answers(source) == before
        assert copy.nearest_users(STPoint(90.0, 300.0, 1500.0), 1)[0][0] == 0
        assert 7 not in source

    def test_copy_takes_its_own_telemetry(self):
        telemetry = TelemetryConfig(enabled=True).build()
        copy = _loaded_store().copy(telemetry=telemetry)
        copy.nearest_users(STPoint(0.0, 0.0, 0.0), 2)
        assert telemetry.metrics.snapshot().counters
