"""The telemetry facade the instrumented components receive.

Components (:class:`~repro.engine.pipeline.Engine`,
:class:`~repro.mod.store.TrajectoryStore`, …) take a single
``telemetry`` argument and call :class:`Telemetry` methods on the hot
path.  The contract that keeps disabled telemetry free:

* ``telemetry.enabled`` is a plain attribute — instrumented code may
  guard larger blocks with one ``if telemetry.enabled:`` branch;
* every :class:`Telemetry` method itself begins with that same branch
  and returns a shared no-op, so un-guarded calls still cost one branch
  plus one call, never an allocation.

:data:`NULL_TELEMETRY` is the process-wide disabled singleton every
component defaults to; it is never mutated (attaching sinks or
starting a profiler on it is rejected), so sharing it is safe.

:class:`TelemetryConfig` is the user-facing switchboard: declare what
you want (ring buffer, JSONL path, console echo) and :meth:`build` wires
the sinks, registry, and tracer together.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.obs.activity import ActivitySlot
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot
from repro.obs.sinks import (
    ConsoleSink,
    JsonlSink,
    RingBufferSink,
    TelemetrySink,
)
from repro.obs.tracing import Span, TraceContext, Tracer

if TYPE_CHECKING:
    from repro.obs.profile import ProfileReport, SamplingProfiler


class _NullSpan:
    """Shared do-nothing span/timer for the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def annotate(self, **attributes: object) -> "_NullSpan":
        return self

    def end(self) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class _TimerSpan:
    """Context manager recording its wall time into a histogram (ms)."""

    __slots__ = ("telemetry", "name", "labels", "start")

    def __init__(self, telemetry: "Telemetry", name: str, labels: dict):
        self.telemetry = telemetry
        self.name = name
        self.labels = labels

    def __enter__(self) -> "_TimerSpan":
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed_ms = (time.perf_counter() - self.start) * 1000.0
        self.telemetry.metrics.histogram(
            self.name, **self.labels
        ).record(elapsed_ms)


class Telemetry:
    """Tracer + metrics registry + sinks behind one object.

    Build through :meth:`TelemetryConfig.build` (or construct directly
    in tests with explicit sinks).  All recording methods are no-ops
    when ``enabled`` is False.
    """

    def __init__(
        self,
        enabled: bool = True,
        sinks: Iterable[TelemetrySink] = (),
        buckets: Iterable[float] | None = None,
        trace_sample_rate: float = 1.0,
        trace_seed: int | None = None,
        worker: str | None = None,
    ) -> None:
        self.enabled = enabled
        self.sinks: tuple[TelemetrySink, ...] = tuple(sinks)
        self.metrics = MetricsRegistry(default_buckets=buckets)
        self.tracer = Tracer(
            sinks=self.sinks,
            sample_rate=trace_sample_rate,
            seed=trace_seed,
            common_attributes=(
                {"worker": worker} if worker is not None else None
            ),
        )
        #: True only while a profiler is attached and running; the
        #: engine guards its activity-slot writes on this plain bool,
        #: so unprofiled requests pay a single branch.  Never True on
        #: the disabled singleton (``start_profiler`` rejects it), so
        #: sharing :data:`NULL_TELEMETRY` stays safe — its slot is
        #: never written.
        self.profiling = False
        #: The beacon the engine writes and the sampler thread reads.
        self.activity = ActivitySlot()
        #: The most recent profiler (running or stopped).
        self.profiler: SamplingProfiler | None = None

    # -- recording (hot path) ------------------------------------------

    def span(
        self,
        name: str,
        parent: TraceContext | None = None,
        **attributes: object,
    ) -> Span | _NullSpan:
        """Open a tracing span (context manager).

        ``parent`` grafts the span under a remote (wire-propagated)
        :class:`TraceContext` instead of the task-local parent.
        """
        if not self.enabled:
            return _NULL_SPAN
        return self.tracer.span(name, parent=parent, **attributes)

    def start_span(
        self,
        name: str,
        parent: TraceContext | None = None,
        **attributes: object,
    ) -> Span | _NullSpan:
        """Open a detached span (finish with ``.end()``); see
        :meth:`Tracer.start_span`."""
        if not self.enabled:
            return _NULL_SPAN
        return self.tracer.start_span(name, parent=parent, **attributes)

    def active_trace(self) -> TraceContext | None:
        """The wire-propagated trace the calling task is inside."""
        if not self.enabled:
            return None
        return self.tracer.active_trace()

    def active_trace_id(self) -> str | None:
        """Just the active wire trace's id (exemplar hot path)."""
        if not self.enabled:
            return None
        return self.tracer.active_trace_id()

    def emit_span(
        self,
        name: str,
        start: float,
        end: float,
        parent: "Span | TraceContext",
        **attributes: object,
    ) -> None:
        """Emit an already-timed leaf span; see
        :meth:`Tracer.emit_span`."""
        if not self.enabled:
            return
        self.tracer.emit_span(name, start, end, parent, **attributes)

    def timer(self, name: str, **labels: object) -> _TimerSpan | _NullSpan:
        """Context manager recording elapsed ms into histogram ``name``."""
        if not self.enabled:
            return _NULL_SPAN
        return _TimerSpan(self, name, labels)

    def event(self, kind: str, /, **fields: object) -> None:
        """Emit one structured event (``type=kind``) to every sink.

        This is the streaming channel the second observability layer
        consumes: the engine publishes per-decision events, the
        LBQID monitors publish match events, and subscribers such as
        :class:`~repro.obs.slo.PrivacyMonitor` receive them in-line
        as sinks.  With no sinks attached nothing is allocated.
        """
        if not self.enabled or not self.sinks:
            return
        payload = {"type": kind, **fields}
        for sink in self.sinks:
            sink.emit(payload)

    def count(
        self, name: str, amount: float = 1.0, **labels: object
    ) -> None:
        """Increment counter ``name`` by ``amount``."""
        if not self.enabled:
            return
        self.metrics.counter(name, **labels).inc(amount)

    def gauge(self, name: str, value: float, **labels: object) -> None:
        """Set gauge ``name`` to ``value``."""
        if not self.enabled:
            return
        self.metrics.gauge(name, **labels).set(value)

    def observe(
        self,
        name: str,
        value: float,
        trace_id: str | None = None,
        **labels: object,
    ) -> None:
        """Record ``value`` into histogram ``name``.

        ``trace_id`` optionally attaches the observation as a bucket
        exemplar — the trace behind the worst value in the bucket's
        current window (see :class:`~repro.obs.metrics.Histogram`).
        """
        if not self.enabled:
            return
        self.metrics.histogram(name, **labels).record(value, trace_id)

    # -- profiling -----------------------------------------------------

    def start_profiler(
        self,
        interval_s: float = 0.005,
        max_depth: int = 48,
    ) -> SamplingProfiler:
        """Start sampling the *calling* thread (the engine's thread).

        Flips :attr:`profiling` so the engine begins publishing its
        activity (current stage, trace id) through :attr:`activity`;
        the sampler thread attributes every tick to it.  One capture
        at a time: starting while a profiler runs raises
        ``RuntimeError``; profiling disabled telemetry raises
        ``ValueError`` (the shared singleton must stay inert).
        """
        if not self.enabled:
            raise ValueError(
                "cannot profile disabled telemetry; build an enabled "
                "Telemetry first"
            )
        if self.profiler is not None and self.profiler.running:
            raise RuntimeError("a profiler is already running")
        # Loaded by the first profile: no other op pays for it.
        from repro.obs.profile import SamplingProfiler

        profiler = SamplingProfiler(
            slot=self.activity,
            interval_s=interval_s,
            max_depth=max_depth,
        )
        profiler.start()
        self.profiler = profiler
        self.profiling = True
        return profiler

    def stop_profiler(self) -> ProfileReport | None:
        """Stop the running profiler; returns its final report.

        Idempotent: with no profiler attached returns None, with a
        stopped one returns its (unchanged) report.  Clears
        :attr:`profiling` first so the engine stops touching the
        activity slot before the sampler thread is joined.
        """
        self.profiling = False
        self.activity.clear()
        if self.profiler is None:
            return None
        return self.profiler.stop()

    # -- inspection and lifecycle --------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        """Freeze the current metric state."""
        return self.metrics.snapshot()

    def summary(self, title: str = "telemetry") -> str:
        """Fixed-width text rendering of the current snapshot."""
        from repro.obs.render import render_summary

        return render_summary(self.snapshot(), title=title)

    def attach_sink(self, sink: TelemetrySink) -> TelemetrySink:
        """Subscribe one more sink to the event fan-out.

        Spans, metric snapshots, and structured events all start
        flowing to it.  Returns the sink for chaining.  Attaching to
        the disabled singleton is rejected — it is shared process-wide
        and must stay stateless.
        """
        if not self.enabled:
            raise ValueError(
                "cannot attach a sink to disabled telemetry; build an "
                "enabled Telemetry first"
            )
        self.sinks = self.sinks + (sink,)
        self.tracer.sinks = self.sinks
        return sink

    def ring(self) -> RingBufferSink | None:
        """The first attached ring-buffer sink, if any."""
        for sink in self.sinks:
            if isinstance(sink, RingBufferSink):
                return sink
        return None

    def flush(self) -> None:
        """Emit a metrics snapshot event to every sink, then flush them."""
        if not self.enabled:
            return
        event = {"type": "metrics_snapshot", **self.snapshot().to_dict()}
        for sink in self.sinks:
            sink.emit(event)
            sink.flush()

    def close(self) -> None:
        """Flush, then close every sink."""
        self.flush()
        for sink in self.sinks:
            sink.close()


#: The process-wide disabled telemetry every component defaults to.
NULL_TELEMETRY = Telemetry(enabled=False)


@dataclass(frozen=True)
class TelemetryConfig:
    """Declarative telemetry switchboard (disabled by default).

    ``ring_buffer`` keeps the last N span events in memory;
    ``jsonl_path`` appends every event to a JSONL file (flushed every
    ``jsonl_flush_every`` writes — 0 defers to explicit flushes);
    ``console`` echoes events through ``logging.getLogger("repro.obs")``.
    With ``enabled=False`` (the default) :meth:`build` returns the
    shared :data:`NULL_TELEMETRY` no-op.

    ``trace_sample_rate`` is the head-sampling probability applied when
    a new distributed trace is minted (1.0 = trace every request);
    ``trace_seed`` makes trace/span ids reproducible.  ``worker`` is
    stamped onto every span record: a supervised worker process sets
    it to its index.
    """

    enabled: bool = False
    ring_buffer: int = 0
    jsonl_path: str | None = None
    jsonl_flush_every: int = 0
    console: bool = False
    buckets: tuple[float, ...] | None = None
    trace_sample_rate: float = 1.0
    trace_seed: int | None = None
    worker: str | None = None

    def build(self) -> Telemetry:
        """Wire sinks, registry, and tracer per this configuration."""
        if not self.enabled:
            return NULL_TELEMETRY
        sinks: list[TelemetrySink] = []
        if self.ring_buffer > 0:
            sinks.append(RingBufferSink(self.ring_buffer))
        if self.jsonl_path is not None:
            sinks.append(
                JsonlSink(
                    self.jsonl_path, flush_every=self.jsonl_flush_every
                )
            )
        if self.console:
            sinks.append(ConsoleSink())
        return Telemetry(
            enabled=True,
            sinks=sinks,
            buckets=self.buckets,
            trace_sample_rate=self.trace_sample_rate,
            trace_seed=self.trace_seed,
            worker=self.worker,
        )


def resolve_telemetry(
    telemetry: "Telemetry | TelemetryConfig | None",
) -> Telemetry:
    """Normalize a constructor argument to a :class:`Telemetry`.

    Components accept ``Telemetry`` (to share one pipeline-wide
    instance), a ``TelemetryConfig`` (built on the spot), or ``None``
    (the disabled singleton).
    """
    if telemetry is None:
        return NULL_TELEMETRY
    if isinstance(telemetry, TelemetryConfig):
        return telemetry.build()
    return telemetry
