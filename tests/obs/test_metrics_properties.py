"""Property tests for histogram percentiles and snapshot round-trips.

Two invariants the rest of the observability layer leans on:

* ``Histogram.percentile`` is monotone in ``q`` and always lands inside
  the exact observed ``[min, max]`` — even for samples in the overflow
  bucket, where there is no upper bound to interpolate against.
* ``MetricsSnapshot`` survives ``to_dict``/``from_dict`` (and a JSON
  text round-trip), which is what JSONL export and ``BENCH_*.json``
  artifacts rely on.

Plus two properties of the registry's fast paths: the memoized lookup
returns one instrument per label set whatever the kwarg order, and the
bucket search puts every value where a linear scan of the bounds does.
"""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
)

# Tight bounds so generated samples regularly land in the overflow
# bucket (anything > 10.0) as well as below the first edge.
BOUNDS = (1.0, 2.0, 5.0, 10.0)

finite_values = st.floats(
    min_value=-50.0,
    max_value=1000.0,
    allow_nan=False,
    allow_infinity=False,
)
quantiles = st.floats(min_value=0.0, max_value=1.0)

label_names = st.sampled_from(["decision", "query", "user"])
label_values = st.sampled_from(["forwarded", "dropped", "grid", "7"])
labels = st.dictionaries(label_names, label_values, max_size=2)
metric_names = st.sampled_from(
    ["ts.requests", "slo.k_attainment", "store.query_ms"]
)


def histogram_of(values):
    histogram = Histogram("h", bounds=BOUNDS)
    for value in values:
        histogram.record(value)
    return histogram


class TestPercentileProperties:
    @given(
        values=st.lists(finite_values, min_size=1, max_size=50),
        qs=st.lists(quantiles, min_size=2, max_size=10),
    )
    def test_monotone_in_q(self, values, qs):
        histogram = histogram_of(values)
        estimates = [histogram.percentile(q) for q in sorted(qs)]
        for lower, upper in zip(estimates, estimates[1:]):
            assert lower <= upper

    @given(
        values=st.lists(finite_values, min_size=1, max_size=50),
        q=quantiles,
    )
    def test_bounded_by_observed_min_max(self, values, q):
        histogram = histogram_of(values)
        estimate = histogram.percentile(q)
        assert min(values) <= estimate <= max(values)

    @given(
        values=st.lists(
            st.floats(min_value=10.5, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=20,
        ),
        q=quantiles,
    )
    def test_overflow_bucket_still_bounded(self, values, q):
        # Every sample lies beyond the last bucket edge, so the
        # interpolation has no upper bound to work with — the clamp to
        # the exact observed extremes must carry the property alone.
        histogram = histogram_of(values)
        assert histogram.counts[-1] == len(values)
        estimate = histogram.percentile(q)
        assert min(values) <= estimate <= max(values)

    @given(values=st.lists(finite_values, min_size=1, max_size=50))
    def test_extreme_quantiles_hit_extremes(self, values):
        histogram = histogram_of(values)
        assert histogram.percentile(0.0) == min(values)
        assert histogram.percentile(1.0) == max(values)


class TestSnapshotRoundTrip:
    @settings(max_examples=50)
    @given(
        counters=st.lists(
            st.tuples(
                metric_names,
                labels,
                st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
            ),
            max_size=5,
        ),
        gauges=st.lists(
            st.tuples(metric_names, labels, finite_values),
            max_size=5,
        ),
        observations=st.lists(
            st.tuples(
                metric_names,
                labels,
                st.lists(finite_values, min_size=1, max_size=10),
            ),
            max_size=3,
        ),
    )
    def test_to_dict_from_dict_identity(
        self, counters, gauges, observations
    ):
        # Repeated (name, labels) entries just accumulate in the
        # get-or-create registry — no dedup needed.
        registry = MetricsRegistry(default_buckets=BOUNDS)
        for name, label_set, value in counters:
            registry.counter(name, **label_set).inc(value)
        for name, label_set, value in gauges:
            registry.gauge(name, **label_set).set(value)
        for name, label_set, values in observations:
            histogram = registry.histogram(name, **label_set)
            for value in values:
                histogram.record(value)
        snapshot = registry.snapshot()

        restored = MetricsSnapshot.from_dict(snapshot.to_dict())
        assert restored == snapshot

        # …and the dict form survives an actual JSON text round-trip,
        # which is the contract the JSONL sink depends on.
        rehydrated = MetricsSnapshot.from_dict(
            json.loads(json.dumps(snapshot.to_dict()))
        )
        assert rehydrated == snapshot


def reference_bucket(bounds, value):
    """The first bound >= value, by linear scan (overflow if none)."""
    for index, bound in enumerate(bounds):
        if bound >= value:
            return index
    return len(bounds)


class TestMemoizedLookup:
    @given(name=metric_names, labels=labels, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_same_instrument_whatever_the_kwarg_order(
        self, name, labels, data
    ):
        registry = MetricsRegistry()
        items = list(labels.items())
        shuffled = dict(data.draw(st.permutations(items)))
        for get in (
            registry.counter,
            registry.gauge,
            registry.histogram,
        ):
            first = get(name, **labels)
            assert get(name, **shuffled) is first
            assert get(name, **labels) is first  # the memoized hit

    def test_value_types_that_print_alike_share_one_series(self):
        registry = MetricsRegistry()
        registry.counter("q", shard=7).inc()
        registry.counter("q", shard="7").inc()
        assert registry.counter("q", shard=7) is registry.counter(
            "q", shard="7"
        )
        assert registry.snapshot().counter_value("q", shard="7") == 2

    def test_custom_bounds_still_apply_on_creation(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", bounds=BOUNDS, a="x")
        assert histogram.bounds == BOUNDS
        assert registry.histogram("h", a="x") is histogram


class TestBucketSearch:
    @given(
        index=st.integers(min_value=0, max_value=len(DEFAULT_BUCKETS) - 1)
    )
    @settings(max_examples=60, deadline=None)
    def test_bounds_and_their_neighbours(self, index):
        histogram = Histogram("h")
        bound = DEFAULT_BUCKETS[index]
        for value in (
            bound,
            math.nextafter(bound, -math.inf),
            math.nextafter(bound, math.inf),
        ):
            assert histogram._bucket_of(value) == reference_bucket(
                histogram.bounds, value
            )

    @given(value=st.floats(allow_nan=True, allow_infinity=True))
    @settings(max_examples=200, deadline=None)
    def test_any_float_matches_the_linear_scan(self, value):
        histogram = Histogram("h", bounds=BOUNDS)
        assert histogram._bucket_of(value) == reference_bucket(
            BOUNDS, value
        )
