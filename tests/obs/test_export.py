"""Prometheus exposition: render, exemplars, parse, quantiles."""

import math

import pytest

from repro.obs.export import (
    parse_exposition,
    parse_prometheus,
    quantile_from_buckets,
    render_prometheus,
    render_samples,
    sanitize_name,
)
from repro.obs.metrics import MetricsRegistry


def populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("serve.served", kind="request").inc(7)
    registry.counter("serve.served", kind="update").inc(3)
    registry.gauge("serve.queue_depth").set(5)
    hist = registry.histogram("serve.request_ms", bounds=(1.0, 2.0, 5.0))
    for value in (0.5, 1.5, 1.7, 4.0, 9.0):
        hist.record(value)
    return registry


def test_sanitize_name_maps_dots_and_bad_chars():
    assert sanitize_name("serve.request_ms") == "serve_request_ms"
    assert sanitize_name("a-b c") == "a_b_c"
    # A leading digit is not a valid metric-name start.
    assert sanitize_name("9lives").startswith("_")


def test_render_and_parse_round_trip():
    text = render_prometheus(populated_registry())
    samples = parse_prometheus(text)
    assert samples[
        ("serve_served_total", (("kind", "request"),))
    ] == 7.0
    assert samples[("serve_served_total", (("kind", "update"),))] == 3.0
    assert samples[("serve_queue_depth", ())] == 5.0
    # Cumulative buckets close with +Inf and agree with _count.
    assert samples[("serve_request_ms_bucket", (("le", "+Inf"),))] == 5.0
    assert samples[("serve_request_ms_count", ())] == 5.0
    assert samples[("serve_request_ms_sum", ())] == pytest.approx(16.7)


def test_bucket_series_is_cumulative():
    text = render_prometheus(populated_registry())
    samples = parse_prometheus(text)
    buckets = {
        float(dict(labels)["le"]): value
        for (name, labels), value in samples.items()
        if name == "serve_request_ms_bucket"
    }
    ordered = [buckets[b] for b in sorted(buckets)]
    assert ordered == sorted(ordered)
    assert ordered[-1] == 5.0


def test_exemplar_rides_the_bucket_line_and_still_parses():
    registry = MetricsRegistry()
    hist = registry.histogram("lat_ms", bounds=(1.0, 10.0))
    hist.record(0.4, trace_id="aaaaaaaaaaaaaaaa")
    hist.record(7.0, trace_id="bbbbbbbbbbbbbbbb")
    hist.record(9.0, trace_id="cccccccccccccccc")  # worst in bucket
    text = render_prometheus(registry)
    assert '# {trace_id="cccccccccccccccc"} 9.0' in text
    assert "bbbbbbbbbbbbbbbb" not in text  # superseded by the worst
    samples = parse_prometheus(text)  # exemplars must not break parsing
    assert samples[("lat_ms_bucket", (("le", "+Inf"),))] == 3.0


def test_parse_exposition_keeps_exemplars():
    registry = MetricsRegistry()
    hist = registry.histogram("lat_ms", bounds=(1.0, 10.0))
    hist.record(0.4, trace_id="aaaaaaaaaaaaaaaa")
    hist.record(9.0, trace_id="cccccccccccccccc")
    samples, exemplars = parse_exposition(render_prometheus(registry))
    # Samples agree with the exemplar-dropping parser …
    assert samples == parse_prometheus(render_prometheus(registry))
    # … and every exemplar-carrying bucket line keeps (value, trace).
    assert exemplars[("lat_ms_bucket", (("le", "1.0"),))] == (
        0.4,
        "aaaaaaaaaaaaaaaa",
    )
    assert exemplars[("lat_ms_bucket", (("le", "10.0"),))] == (
        9.0,
        "cccccccccccccccc",
    )


def test_parse_exposition_rejects_bad_exemplar_value():
    with pytest.raises(ValueError, match="exemplar"):
        parse_exposition(
            'm_bucket{le="+Inf"} 1 # {trace_id="t"} nope\n'
        )


def test_snapshot_degrades_to_summary_form():
    registry = populated_registry()
    text = render_prometheus(registry.snapshot())
    assert "# TYPE serve_request_ms summary" in text
    samples = parse_prometheus(text)
    assert ("serve_request_ms", (("quantile", "0.5"),)) in samples
    assert ("serve_request_ms", (("quantile", "0.99"),)) in samples
    assert samples[("serve_request_ms_count", ())] == 5.0


def test_parse_rejects_malformed_lines():
    with pytest.raises(ValueError):
        parse_prometheus("this is not a sample\n")
    with pytest.raises(ValueError):
        parse_prometheus("metric_name not_a_number\n")
    # Comments and blanks are fine.
    assert parse_prometheus("# HELP x y\n\n") == {}


def test_label_values_are_escaped():
    registry = MetricsRegistry()
    registry.counter("c", path='a"b\\c').inc()
    text = render_prometheus(registry)
    assert '\\"' in text and "\\\\" in text
    samples = parse_prometheus(text)  # escapes must not break parsing
    assert len(samples) == 1 and list(samples.values()) == [1.0]


def test_render_samples_round_trips_a_registry_scrape():
    """Samples and exemplars parsed from a registry render back into
    text that parses to the same samples and exemplars."""
    registry = populated_registry()
    registry.counter("c", path='a"b\\c').inc()
    registry.histogram("lat_ms", bounds=(1.0, 10.0)).record(
        9.0, trace_id="cccccccccccccccc"
    )
    samples, exemplars = parse_exposition(render_prometheus(registry))
    text = render_samples(samples, exemplars)
    assert parse_exposition(text) == (samples, exemplars)
    assert '# {trace_id="cccccccccccccccc"} 9.0' in text


def test_render_samples_orders_each_bucket_series_by_bound():
    samples = {
        ("h_bucket", (("le", "+Inf"),)): 3.0,
        ("h_bucket", (("le", "10.0"),)): 2.0,
        ("h_bucket", (("le", "2.0"),)): 1.0,
        ("h_count", ()): 3.0,
        ("g", (("worker", "1"),)): 4.0,
    }
    assert render_samples(samples).splitlines() == [
        'g{worker="1"} 4.0',
        'h_bucket{le="2.0"} 1.0',
        'h_bucket{le="10.0"} 2.0',
        'h_bucket{le="+Inf"} 3.0',
        "h_count 3.0",
    ]


def test_quantile_from_buckets_interpolates():
    buckets = {1.0: 5.0, 2.0: 10.0, float("inf"): 10.0}
    assert quantile_from_buckets(buckets, 10, 0.5) == pytest.approx(1.0)
    assert quantile_from_buckets(buckets, 10, 0.99) == pytest.approx(
        1.98
    )
    assert math.isnan(quantile_from_buckets(buckets, 0, 0.5))


def test_quantile_from_buckets_edge_cases():
    # Empty series / zero count: undefined, reported as NaN.
    assert math.isnan(quantile_from_buckets({}, 0, 0.5))
    assert math.isnan(quantile_from_buckets({1.0: 4.0}, 0, 0.5))
    # All mass in the overflow bucket: the best the scrape can say is
    # the last finite bound.
    overflow = {1.0: 0.0, 5.0: 0.0, float("inf"): 10.0}
    assert quantile_from_buckets(overflow, 10, 0.5) == 5.0
    assert quantile_from_buckets(overflow, 10, 0.99) == 5.0
    # Single finite bucket holding everything interpolates from 0.
    single = {2.0: 10.0, float("inf"): 10.0}
    assert quantile_from_buckets(single, 10, 0.5) == pytest.approx(1.0)
    # q=0 pins to the distribution floor, q=1 to the top bound.
    buckets = {1.0: 5.0, 2.0: 10.0, float("inf"): 10.0}
    assert quantile_from_buckets(buckets, 10, 0.0) == 0.0
    assert quantile_from_buckets(buckets, 10, 1.0) == pytest.approx(2.0)


def test_quantile_from_buckets_matches_registry_percentile():
    registry = MetricsRegistry()
    hist = registry.histogram("h", bounds=(1.0, 2.0, 5.0, 10.0))
    for value in (0.2, 0.9, 1.1, 1.5, 3.0, 4.0, 6.0, 7.0, 8.0, 9.5):
        hist.record(value)
    samples = parse_prometheus(render_prometheus(registry))
    buckets = {
        float(dict(labels)["le"]): value
        for (name, labels), value in samples.items()
        if name == "h_bucket"
    }
    count = samples[("h_count", ())]
    for q in (0.5, 0.95):
        scraped = quantile_from_buckets(buckets, count, q)
        native = hist.percentile(q)
        # Same bucket, same linear interpolation — within one bucket
        # width of each other (the native version clamps to min/max).
        assert abs(scraped - native) <= 5.0
