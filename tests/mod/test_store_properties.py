"""Property-based tests: the store's columnar view is an exact index.

For any ingest sequence and any query, the store's cross-user queries
(answered from its :class:`~repro.mod.columnar.ColumnarView`) must
return *exactly* what the reference scans return — the paper's
brute-force :meth:`~repro.mod.store.TrajectoryStore.nearest_users_brute`
and plain ``PersonalHistory`` scans over ``store.histories``: same
tuples, same ordering, same tie-breaks, bit-identical distances.

Coordinates are drawn from a small integer lattice (cast to float,
salted with continuous values) so exact distance ties and equal
timestamps are common.  Users are ingested through a random mix of
``add_point`` and ``add_points``, and users with empty histories are
materialized to pin the edge cases the scans silently skip.  Some
samples are ingested twice, as a re-sent update is.  Half the
stores have ``time_scale`` reassigned after ingest, so the view must
read the store's scale at query time.
"""

from hypothesis import given, settings, strategies as st

from repro.geometry.distance import st_distance
from repro.geometry.point import STPoint
from repro.geometry.region import Interval, Rect, STBox
from repro.mod.store import TrajectoryStore

# A coarse lattice (ties everywhere) salted with continuous values.
coords = st.one_of(
    st.integers(min_value=0, max_value=8).map(float),
    st.floats(min_value=0.0, max_value=100.0),
)
times = st.one_of(
    st.integers(min_value=0, max_value=10).map(lambda v: 10.0 * v),
    st.floats(min_value=0.0, max_value=200.0),
)
st_points = st.builds(STPoint, coords, coords, times)


@st.composite
def stores(draw):
    """A store plus each user's points in ingest order."""
    n_users = draw(st.integers(min_value=1, max_value=6))
    store = TrajectoryStore()
    # Shrunk thresholds drive the view's bulk-merge and tail-merge
    # paths with the few samples drawn here.
    store._view.BLOCK_MERGE_MIN = draw(st.sampled_from((2, 128)))
    store._view.TAIL_MAX = draw(st.sampled_from((3, 1024)))
    ingested: dict[int, list[STPoint]] = {}
    version = 0
    for user_id in range(n_users):
        points = draw(st.lists(st_points, min_size=0, max_size=12))
        ingested[user_id] = points
        mode = draw(st.integers(min_value=0, max_value=2))
        if mode == 0:
            for point in points:
                store.add_point(user_id, point)
            version += len(points)
            if not points:  # user exists with an empty PHL
                store.history(user_id)
        elif mode == 1:
            store.add_points(user_id, points)
            version += bool(points)
        else:  # split batch: bulk prefix, single-point suffix
            half = len(points) // 2
            store.add_points(user_id, points[:half])
            version += bool(half)
            for point in points[half:]:
                store.add_point(user_id, point)
            version += len(points) - half
    # Re-sent updates: the same sample stored twice.
    for user_id, points in ingested.items():
        if not points:
            continue
        for point in draw(st.lists(st.sampled_from(points), max_size=3)):
            store.add_point(user_id, point)
            points.append(point)
            version += 1
    if draw(st.booleans()):
        store.time_scale = draw(st.sampled_from((0.5, 15.0, 100.0)))
    assert store.version == version
    return store, ingested


@st.composite
def boxes(draw):
    x1, x2 = sorted((draw(coords), draw(coords)))
    y1, y2 = sorted((draw(coords), draw(coords)))
    t1, t2 = sorted((draw(times), draw(times)))
    return STBox(Rect(x1, y1, x2, y2), Interval(t1, t2))


class TestViewMatchesReferenceScans:
    @settings(max_examples=150, deadline=None)
    @given(
        stores(),
        st_points,
        st.integers(min_value=0, max_value=8),
        st.sets(st.integers(min_value=0, max_value=7), max_size=3),
    )
    def test_nearest_users_identical(
        self, built, target, count, exclude
    ):
        store, _ingested = built
        # Exact tuple equality: ids, sample points, *and* float
        # distances must match bit for bit, ties included.
        assert store.nearest_users(
            target, count, exclude=exclude
        ) == store.nearest_users_brute(target, count, exclude=exclude)

    @settings(max_examples=60, deadline=None)
    @given(stores(), st_points)
    def test_nearest_user_is_truly_nearest(self, built, target):
        """The first reported user's distance lower-bounds everyone."""
        store, _ingested = built
        result = store.nearest_users(target, 1)
        if not store.total_points:
            assert result == []
            return
        _user, _point, best = result[0]
        for history in store.histories.values():
            closest = history.closest_point_to(target, store.time_scale)
            if closest is not None:
                assert st_distance(
                    closest, target, store.time_scale
                ) >= best

    @settings(max_examples=120, deadline=None)
    @given(stores(), boxes())
    def test_users_in_box_identical(self, built, box):
        store, _ingested = built
        assert store.users_in_box(box) == {
            user_id
            for user_id, history in store.histories.items()
            if history.visits_box(box)
        }

    @settings(max_examples=100, deadline=None)
    @given(
        stores(),
        st.lists(boxes(), min_size=0, max_size=3),
        st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
    )
    def test_lt_consistency_identical(self, built, contexts, exclude):
        store, _ingested = built
        assert store.lt_consistent_users(
            contexts, exclude_user=exclude
        ) == [
            user_id
            for user_id, history in store.histories.items()
            if user_id != exclude and history.lt_consistent_with(contexts)
        ]

    @settings(max_examples=100, deadline=None)
    @given(stores(), st_points)
    def test_closest_points_identical(self, built, target):
        store, _ingested = built
        ids = list(store.user_ids()) + [404]
        expected = []
        for user_id in ids:
            history = store.histories.get(user_id)
            closest = (
                history.closest_point_to(target, store.time_scale)
                if history is not None
                else None
            )
            assert store.closest_point(user_id, target) == closest
            if closest is not None:
                expected.append((user_id, closest))
        assert store.closest_points(ids, target) == expected

    @settings(max_examples=80, deadline=None)
    @given(stores())
    def test_histories_are_stable_time_sorted_ingest(self, built):
        """Mixed ingest keeps each PHL a stable sort of what arrived:
        equal timestamps keep arrival order, whichever path wrote
        them."""
        store, ingested = built
        assert list(store.user_ids()) == list(ingested)
        for user_id, points in ingested.items():
            assert list(store.histories[user_id].points) == sorted(
                points, key=lambda point: point.t
            )
