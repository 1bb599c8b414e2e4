"""Span nesting, timing monotonicity, and the span record round trip."""

from repro.obs.config import TelemetryConfig
from repro.obs.sinks import RingBufferSink
from repro.obs.tracing import SpanRecord, Tracer


def test_span_records_duration_and_attributes():
    sink = RingBufferSink()
    tracer = Tracer(sinks=[sink])
    with tracer.span("work", user=1) as span:
        span.annotate(decision="forwarded")
    assert tracer.finished == 1
    assert tracer.depth == 0
    record = span.record
    assert record.name == "work"
    assert record.duration >= 0
    assert record.attributes == {"user": 1, "decision": "forwarded"}
    assert sink.spans()[0]["name"] == "work"


def test_nesting_tracks_parent_and_depth():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        assert tracer.depth == 1
        with tracer.span("inner") as inner:
            assert tracer.depth == 2
    assert outer.record.depth == 0
    assert outer.record.parent is None
    assert inner.record.depth == 1
    assert inner.record.parent == "outer"


def test_timing_monotonicity_of_nested_spans():
    """A child span lies within its parent's window, on one clock."""
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            total = sum(range(1000))
            assert total == 499500
    o, i = outer.record, inner.record
    assert o.start <= i.start <= i.end <= o.end
    assert i.duration >= 0
    assert o.duration >= i.duration


def test_fake_clock_durations_exact():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("a") as a:  # start=0
        with tracer.span("b") as b:  # start=1, end=2
            pass
    # a ends at 3.
    assert b.record.start == 1.0 and b.record.end == 2.0
    assert a.record.start == 0.0 and a.record.end == 3.0
    assert a.record.duration == 3.0


def test_exception_closes_span_and_tags_error():
    tracer = Tracer()
    try:
        with tracer.span("risky") as span:
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert tracer.depth == 0
    assert span.record is not None
    assert span.record.attributes["error"] == "RuntimeError"


def test_record_round_trip():
    tracer = Tracer()
    with tracer.span("work", user=3) as span:
        pass
    restored = SpanRecord.from_dict(span.record.to_dict())
    assert restored == span.record


# ---------------------------------------------------------------------
# distributed trace context
# ---------------------------------------------------------------------

import asyncio  # noqa: E402

import pytest  # noqa: E402

from repro.obs.tracing import TraceContext  # noqa: E402


def test_trace_context_wire_round_trip():
    ctx = TraceContext(trace_id="0123456789abcdef", span_id="fedcba9876543210")
    wire = ctx.to_wire()
    assert wire == "0123456789abcdef-fedcba9876543210"
    assert TraceContext.from_wire(wire) == ctx


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "0123456789abcdef",
        "0123456789abcdef-",
        "0123456789ABCDEF-fedcba9876543210",  # uppercase
        "0123456789abcdef-fedcba987654321",  # 15 chars
        "xx23456789abcdef-fedcba9876543210",
        "0123456789abcdef-fedcba9876543210-ff",
    ],
)
def test_trace_context_rejects_malformed_wire(bad):
    with pytest.raises(ValueError):
        TraceContext.from_wire(bad)


def test_span_ids_link_parent_to_child():
    tracer = Tracer(seed=7)
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    assert outer.record.trace_id == inner.record.trace_id
    assert inner.record.parent_id == outer.record.span_id
    assert outer.record.parent_id is None
    assert outer.record.span_id != inner.record.span_id


def test_remote_parent_grafts_and_marks_remote():
    tracer = Tracer(seed=7)
    ctx = TraceContext(trace_id="ab" * 8, span_id="cd" * 8)
    with tracer.span("serve.admission", parent=ctx) as span:
        assert span.remote is True
        assert tracer.active_trace() is not None
        assert tracer.active_trace().trace_id == ctx.trace_id
        with tracer.span("child") as child:
            assert child.remote is True
    assert span.record.trace_id == ctx.trace_id
    assert span.record.parent_id == ctx.span_id
    assert child.record.parent_id == span.record.span_id
    assert tracer.active_trace() is None


def test_active_trace_is_none_for_local_spans():
    tracer = Tracer()
    with tracer.span("local"):
        assert tracer.active_trace() is None


def test_detached_span_is_not_current():
    tracer = Tracer(seed=1)
    span = tracer.start_span("queue_wait")
    assert tracer.current() is None
    with tracer.span("other") as other:
        pass
    span.end()
    # Detached root: its own fresh trace, not parented under "other".
    assert span.record.parent_id is None
    assert span.record.trace_id != other.record.trace_id


def test_context_propagates_across_tasks():
    tracer = Tracer(seed=3)
    records = {}

    async def child_task(name):
        with tracer.span(name) as span:
            await asyncio.sleep(0)
        records[name] = span.record

    async def run():
        with tracer.span("root") as root:
            # Tasks created inside the span inherit it as parent.
            await asyncio.gather(child_task("a"), child_task("b"))
        records["root"] = root.record

    asyncio.run(run())
    assert records["a"].parent_id == records["root"].span_id
    assert records["b"].parent_id == records["root"].span_id
    assert (
        records["a"].trace_id
        == records["b"].trace_id
        == records["root"].trace_id
    )
    # Sibling tasks never see each other as parents.
    assert records["a"].span_id != records["b"].span_id


def test_head_sampling_rates():
    assert Tracer(sample_rate=1.0).sample() is True
    assert Tracer(sample_rate=0.0).sample() is False
    tracer = Tracer(sample_rate=0.5, seed=42)
    rolls = [tracer.sample() for _ in range(400)]
    assert 100 < sum(rolls) < 300
    # Seeded: the roll sequence is reproducible.
    again = Tracer(sample_rate=0.5, seed=42)
    assert [again.sample() for _ in range(400)] == rolls
    with pytest.raises(ValueError):
        Tracer(sample_rate=1.5)


def test_common_attributes_stamp_every_record():
    sink = RingBufferSink()
    tracer = Tracer(
        sinks=[sink], common_attributes={"worker": "w0", "shard": "2"}
    )
    with tracer.span("x", op="request"):
        pass
    (event,) = sink.spans()
    assert event["attributes"]["worker"] == "w0"
    assert event["attributes"]["shard"] == "2"
    assert event["attributes"]["op"] == "request"


def test_config_worker_is_stamped_on_every_record():
    """A supervised worker's index (``TelemetryConfig.worker``) rides
    every span record it emits; without one, nothing is stamped."""
    worker = TelemetryConfig(enabled=True, ring_buffer=8, worker="1").build()
    plain = TelemetryConfig(enabled=True, ring_buffer=8).build()
    for telemetry in (worker, plain):
        with telemetry.tracer.span("x"):
            pass
    (stamped,) = worker.sinks[0].spans()
    (bare,) = plain.sinks[0].spans()
    assert stamped["attributes"]["worker"] == "1"
    assert "worker" not in bare["attributes"]
