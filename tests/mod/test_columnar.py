"""Unit tests for the store's columnar view.

The exhaustive decision-equivalence guarantees live in
``test_store_properties.py``; this file pins the mechanics — the
sorted-main/tail consolidation of the view, its dense user slots, the
store's single owner of ``time_scale``, and the uniform telemetry
labels.
"""

import inspect

import numpy as np
import pytest

from repro.core.phl import PersonalHistory
from repro.geometry.point import STPoint
from repro.geometry.region import Interval, Rect, STBox
from repro.mod.columnar import ColumnarView
from repro.mod.store import TrajectoryStore
from repro.obs import TelemetryConfig


def p(x, y, t):
    return STPoint(float(x), float(y), float(t))


BOX = STBox(Rect(0.0, 0.0, 10.0, 10.0), Interval(0.0, 100.0))


class TestColumnarView:
    def test_out_of_order_appends_consolidate(self):
        view = ColumnarView()
        # Drive the unsorted tail past TAIL_MAX with two interleaved
        # users so consolidation (stable re-sort) must fire.
        for i in range(view.TAIL_MAX + 10):
            view.append(0, p(i, 0, 1_000_000 - i))
        view.append_blocks([(1, [p(0, 0, 5.0), p(0, 0, 2.0)])])
        assert view.n_rows == view.TAIL_MAX + 12
        box = STBox(Rect(0, 0, 0, 0), Interval(0.0, 10.0))
        assert {view.uid_of(int(s)) for s in view.slots_in_box(box)} == {1}
        assert view._sorted_n >= view.n_rows - view.TAIL_MAX

    def test_ingest_is_buffered_until_a_query(self):
        view = ColumnarView()
        view.append(0, p(1, 1, 1))
        view.append_blocks([(1, [p(2, 2, 2), p(3, 3, 3)])])
        assert view.n_rows == 3 and view._n == 0
        assert set(view.slots_in_box(BOX).tolist()) == {0, 1}
        assert view._n == 3 and not view._pending

    def test_in_order_appends_never_leave_a_tail(self):
        view = ColumnarView()
        for i in range(100):
            view.append(i % 3, p(i, i, i))
            if i % 7 == 0:
                view.slots_in_box(BOX)
        view.slots_in_box(BOX)
        assert view._sorted_n == view.n_rows == 100

    def test_amortized_growth_doubles_capacity(self):
        view = ColumnarView()
        for i in range(5000):
            view.append(0, p(i, i, i))
            if i % 1000 == 0:
                view.slots_in_box(BOX)
        view.slots_in_box(BOX)
        capacity = view._x.size
        assert view.n_rows == 5000 <= capacity
        # power-of-two doubling from the initial capacity
        assert capacity & (capacity - 1) == 0

    def test_n_rows_counts_every_sample(self):
        view = ColumnarView()
        view.append(1, p(0, 0, 0))
        view.append(1, p(0, 0, 0))  # a re-sent sample is a row too
        view.append_blocks([(2, [p(1, 1, 1), p(2, 2, 2)])])
        assert view.n_rows == 4
        view.slots_in_box(BOX)
        assert view.n_rows == 4

    def test_large_block_is_written_and_merged_at_once(self):
        view = ColumnarView()
        view.append(0, p(0, 0, 500.0))
        block = [p(1, 1, float(t)) for t in range(view.BLOCK_MERGE_MIN)]
        view.append_blocks([(1, block)])
        assert not view._pending
        assert view._n == view._sorted_n == view.BLOCK_MERGE_MIN + 1

    def test_blocks_are_merged_on_their_total(self):
        view = ColumnarView()
        view.append(0, p(0, 0, 500.0))
        half = view.BLOCK_MERGE_MIN // 2
        view.append_blocks(
            [(1, [p(1, 1, float(t)) for t in range(half)]),
             (2, [p(2, 2, float(t)) for t in range(half)])]
        )
        assert not view._pending
        assert view._n == view._sorted_n == 2 * half + 1

    def test_small_out_of_order_block_waits_in_the_tail(self):
        view = ColumnarView()
        view.append(0, p(0, 0, 500.0))
        view.slots_in_box(BOX)
        view.append_blocks([(1, [p(1, 1, 9.0), p(1, 1, 3.0)])])
        assert view._n == 1 and view.n_rows == 3
        view.slots_in_box(BOX)
        assert view._n == 3 and view._sorted_n == 1

    def test_consolidation_keeps_equal_timestamps_in_arrival_order(self):
        view = ColumnarView()
        view.TAIL_MAX = 2
        view.append(0, p(0, 0, 50.0))
        for user_id in (1, 2, 3, 4):
            view.append(user_id, p(user_id, 0, 10.0))
        view.slots_in_box(BOX)
        assert view._sorted_n == view._n == 5
        assert view._t[:5].tolist() == [10.0] * 4 + [50.0]
        assert view._slot[:5].tolist() == [1, 2, 3, 4, 0]

    def test_points_at_rows(self):
        view = ColumnarView()
        view.append_blocks([(3, [p(1, 2, 3), p(4, 5, 6)])])
        view.slots_in_box(BOX)
        assert view.points_at_rows([1, 0]) == [p(4, 5, 6), p(1, 2, 3)]

    def test_slots_in_box_spans_sorted_segment_and_tail(self):
        view = ColumnarView()
        view.append(0, p(1, 1, 50.0))  # sorted segment
        view.slots_in_box(BOX)
        view.append(1, p(2, 2, 20.0))  # arrives late: tail
        view.append(2, p(50, 50, 10.0))  # tail, outside the rect
        slots = view.slots_in_box(BOX)
        assert view._sorted_n == 1 and view._n == 3
        assert sorted(slots.tolist()) == [0, 1]

    def test_consistent_slots_without_contexts_admits_every_slot(self):
        view = ColumnarView()
        view.append(0, p(1, 1, 1))
        view.append(1, p(50, 50, 50))
        assert view.consistent_slots([]).tolist() == [True, True]
        assert view.consistent_slots([BOX]).tolist() == [True, False]

    def test_nearest_slots_on_an_empty_view_or_zero_count(self):
        view = ColumnarView()
        for count in (0, 3):
            slots, minima, rows = view.nearest_slots(p(0, 0, 0), count, 1.0)
            assert slots.size == minima.size == rows.size == 0
        view.append(0, p(0, 0, 0))
        slots, _minima, _rows = view.nearest_slots(p(0, 0, 0), 0, 1.0)
        assert slots.size == 0

    def test_nearest_slots_rows_mark_unique_minima_and_ties(self):
        view = ColumnarView()
        # slot 0: a unique nearest sample; slot 1: two samples mirrored
        # in time about the query, tied exactly.
        view.append_blocks([(0, [p(3, 0, 50), p(9, 0, 50)])])
        view.append_blocks([(1, [p(0, 0, 46), p(0, 0, 54)])])
        slots, minima, rows = view.nearest_slots(p(0, 0, 50), 2, 1.0)
        assert slots.tolist() == [0, 1]
        assert minima.tolist() == [3.0, 4.0]
        assert rows[1] == -1
        assert view.points_at_rows([int(rows[0])]) == [p(3, 0, 50)]

    def test_nearest_slots_honours_excluded_slots(self):
        view = ColumnarView()
        for user_id in range(4):
            view.append(user_id, p(user_id, 0, 0))
        slots, _minima, _rows = view.nearest_slots(
            p(0, 0, 0), 2, 1.0, np.array([0, 2], dtype=np.int64)
        )
        assert slots.tolist() == [1, 3]

    def test_slots_are_dense_and_stable(self):
        view = ColumnarView()
        view.append(42, p(0, 0, 0))
        view.append(7, p(1, 1, 1))
        view.append(42, p(2, 2, 2))
        assert view.n_slots == 2
        assert view.slot_of(42) == 0
        assert view.slot_of(7) == 1
        assert view.slot_of(999) is None
        assert view.uid_of(0) == 42


class TestStoreIntegration:
    def test_init_takes_only_time_scale_and_telemetry(self):
        parameters = inspect.signature(TrajectoryStore).parameters
        assert list(parameters) == ["time_scale", "telemetry"]

    def test_histories_are_phl_lists(self):
        store = TrajectoryStore()
        store.add_point(1, p(1, 2, 3))
        assert type(store.history(1)) is PersonalHistory

    def test_empty_batch_materializes_history_without_version_bump(self):
        store = TrajectoryStore()
        assert store.add_points(5, []) == 0
        assert store.version == 0
        assert 5 in store
        assert store.nearest_users(p(0, 0, 0), 3) == []

    def test_negative_count_rejected(self):
        store = TrajectoryStore()
        store.add_point(1, p(0, 0, 0))
        with pytest.raises(ValueError, match="non-negative"):
            store.nearest_users(p(0, 0, 0), -1)

    def test_time_scale_reassigned_after_ingest_is_honoured(self):
        """The store owns ``time_scale``: the view reads it per query,
        so reassigning it after ingest changes the answer exactly as
        it changes the reference scan's."""
        store = TrajectoryStore(time_scale=1.5)
        store.add_point(1, p(0, 0, 0))
        store.add_point(2, p(1000, 0, 100))
        target = p(0, 0, 100)
        assert store.nearest_users(target, 1) == store.nearest_users_brute(
            target, 1
        )
        store.time_scale = 100.0
        got = store.nearest_users(target, 1)
        assert got == store.nearest_users_brute(target, 1)
        assert got == [(2, p(1000, 0, 100), 1000.0)]

    def test_distinct_tied_samples_break_like_the_list_scan(self):
        """Two samples mirrored in time about the query tie exactly;
        the list scan visits the later one first and keeps it, and
        the view must hand that tie back rather than pick a row."""
        store = TrajectoryStore(time_scale=1.0)
        store.add_points(1, [p(0, 0, 40), p(0, 0, 60)])
        store.add_points(2, [p(30, 0, 50)])
        target = p(0, 0, 50)
        got = store.nearest_users(target, 2)
        assert got == store.nearest_users_brute(target, 2)
        assert got[0] == (1, p(0, 0, 60), 10.0)

    def test_uniform_method_labels(self):
        telemetry = TelemetryConfig(enabled=True).build()
        store = TrajectoryStore(telemetry=telemetry)
        store.add_points(1, [p(1, 1, 1)])
        store.add_points(2, [p(2, 2, 2)])
        store.nearest_users(p(0, 0, 0), 1)
        store.nearest_users_brute(p(0, 0, 0), 1)
        store.closest_point(1, p(0, 0, 0))
        store.closest_points([1, 2, 404], p(0, 0, 0))
        store.users_in_box(BOX)
        store.lt_consistent_users([BOX])
        store.lt_consistent_users([])
        snapshot = telemetry.snapshot()
        for query, method, want in (
            ("nearest_users", "numpy", 1),
            ("nearest_users", "brute", 1),
            ("closest_point", "brute", 3),
            ("users_in_box", "numpy", 1),
            ("lt_consistent_users", "numpy", 2),
        ):
            assert (
                snapshot.counter_value(
                    "store.queries", query=query, method=method
                )
                == want
            ), (query, method)

    def test_add_trajectory_alias_is_gone(self):
        assert not hasattr(TrajectoryStore, "add_trajectory")
