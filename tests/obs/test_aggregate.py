"""Fleet aggregation: the merge behind a supervised fleet's scrape."""

import math

from hypothesis import given, settings, strategies as st

from repro.obs.aggregate import (
    merge_exemplars,
    merge_rule,
    merge_samples,
)
from repro.obs.export import (
    parse_exposition,
    parse_prometheus,
    render_prometheus,
    render_samples,
)
from repro.obs.metrics import MetricsRegistry

HIST_BOUNDS = (1.0, 2.0, 5.0, 10.0)


class TestMergeRule:
    def test_classification(self):
        assert merge_rule("serve_served_total", ()) == "sum"
        assert merge_rule("lat_ms_sum", ()) == "sum"
        assert merge_rule("lat_ms_count", ()) == "sum"
        assert (
            merge_rule("lat_ms_bucket", (("le", "1.0"),)) == "bucket"
        )
        assert merge_rule("serve_queue_depth", ()) == "worker"
        # Summary quantiles cannot be combined across workers.
        assert (
            merge_rule("lat_ms", (("quantile", "0.5"),)) == "worker"
        )
        # A _bucket name without an le label is not a bucket series.
        assert merge_rule("odd_bucket", ()) == "worker"


class TestMergeSamples:
    def test_counters_sum_across_workers(self):
        key = ("serve_served_total", (("kind", "request"),))
        merged = merge_samples({"a": {key: 7.0}, "b": {key: 3.0}})
        assert merged[key] == 10.0

    def test_gauges_keep_per_worker_identity(self):
        key = ("serve_queue_depth", ())
        merged = merge_samples({"a": {key: 5.0}, "b": {key: 7.0}})
        assert merged[
            ("serve_queue_depth", (("worker", "a"),))
        ] == 5.0
        assert merged[
            ("serve_queue_depth", (("worker", "b"),))
        ] == 7.0
        assert key not in merged

    def test_frontend_samples_keep_their_labels(self):
        """The worker named "" is the frontend's own registry: its
        gauges stay unlabelled, its counters sum with the workers'."""
        gauge = ("serve_connections", ())
        served = ("serve_shed_total", (("reason", "queue"),))
        merged = merge_samples(
            {
                "": {gauge: 2.0, served: 1.0},
                "0": {gauge: 1.0, served: 4.0},
            }
        )
        assert merged == {
            gauge: 2.0,
            ("serve_connections", (("worker", "0"),)): 1.0,
            served: 5.0,
        }

    def test_elided_buckets_merge_as_step_functions(self):
        # Worker a elided the 5.0 bound (its cumulative count did not
        # change there); worker b elided 1.0.  A naive key-wise sum
        # would report 3.0 at le=5.0 — the step-function read says 5.0.
        a = {
            ("h_bucket", (("le", "1.0"),)): 2.0,
            ("h_bucket", (("le", "+Inf"),)): 2.0,
        }
        b = {
            ("h_bucket", (("le", "5.0"),)): 3.0,
            ("h_bucket", (("le", "+Inf"),)): 4.0,
        }
        merged = merge_samples({"a": a, "b": b})
        assert merged[("h_bucket", (("le", "1.0"),))] == 2.0
        assert merged[("h_bucket", (("le", "5.0"),))] == 5.0
        assert merged[("h_bucket", (("le", "+Inf"),))] == 6.0


def _registry(counter_incs, hist_values) -> MetricsRegistry:
    registry = MetricsRegistry()
    for kind, n in counter_incs:
        registry.counter("serve.served", kind=kind).inc(n)
    if hist_values:
        hist = registry.histogram(
            "serve.request_ms", bounds=HIST_BOUNDS
        )
        for value in hist_values:
            hist.record(value)
    return registry


counter_incs = st.lists(
    st.tuples(
        st.sampled_from(["request", "update", "health"]),
        st.integers(min_value=1, max_value=50),
    ),
    max_size=6,
)
hist_values = st.lists(
    st.floats(min_value=0.01, max_value=20.0),
    max_size=15,
)


class TestMergeEqualsCombinedWorkload:
    @settings(max_examples=60, deadline=None)
    @given(counter_incs, hist_values, counter_incs, hist_values)
    def test_two_scrapes_merge_to_the_combined_registry(
        self, incs_a, values_a, incs_b, values_b
    ):
        """merge(scrape(A), scrape(B)) == scrape(A ++ B).

        The summed series of two workers' expositions must be exactly
        what one registry serving both workloads would expose —
        including the bucket series, where per-worker elision makes
        the naive key-wise sum wrong.
        """
        merged = merge_samples(
            {
                "w0": parse_prometheus(
                    render_prometheus(_registry(incs_a, values_a))
                ),
                "w1": parse_prometheus(
                    render_prometheus(_registry(incs_b, values_b))
                ),
            }
        )
        combined = parse_prometheus(
            render_prometheus(
                _registry(incs_a + incs_b, values_a + values_b)
            )
        )
        for (name, labels), value in combined.items():
            rule = merge_rule(name, labels)
            if rule == "worker":
                continue
            key = (name, tuple(sorted(labels)))
            assert key in merged, key
            if name.endswith("_sum"):
                assert math.isclose(
                    merged[key], value, rel_tol=1e-9, abs_tol=1e-9
                )
            else:  # counters, bucket counts, _count: exact
                assert merged[key] == value, key
        # No summed/bucket key appears in the merge that the combined
        # registry does not expose.
        for (name, labels) in merged:
            if merge_rule(name, labels) == "worker":
                continue
            assert (name, labels) in combined


class TestMergeExemplars:
    def test_keeps_fleet_worst_per_bucket(self):
        key = ("lat_ms_bucket", (("le", "+Inf"),))
        merged = merge_exemplars(
            {
                "a": {key: (4.0, "aaaa")},
                "b": {key: (9.0, "bbbb")},
            }
        )
        assert merged[key] == (9.0, "bbbb")

    def test_keys_line_up_with_merged_buckets(self):
        """A rendered bucket line carries ``le`` after its other labels;
        the merged exemplar sits on the merged bucket's key."""
        labels = (("stage", "audit"), ("le", "1.0"))
        key = ("engine_stage_ms_bucket", labels)
        merged = merge_samples({"0": {key: 2.0}, "1": {key: 1.0}})
        exemplars = merge_exemplars(
            {"0": {key: (0.7, "aaaa")}, "1": {key: (0.9, "bbbb")}}
        )
        assert merged == {key: 3.0}
        assert exemplars == {key: (0.9, "bbbb")}
        assert parse_exposition(render_samples(merged, exemplars)) == (
            merged,
            exemplars,
        )

    def test_value_tie_breaks_to_lexically_first_trace(self):
        key = ("lat_ms_bucket", (("le", "+Inf"),))
        forward = merge_exemplars(
            {"a": {key: (5.0, "zzzz")}, "b": {key: (5.0, "aaaa")}}
        )
        backward = merge_exemplars(
            {"a": {key: (5.0, "aaaa")}, "b": {key: (5.0, "zzzz")}}
        )
        assert forward[key] == backward[key] == (5.0, "aaaa")
