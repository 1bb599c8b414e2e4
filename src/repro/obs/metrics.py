"""Counters, gauges, and fixed-bucket histograms keyed by name+labels.

A :class:`MetricsRegistry` is a flat dictionary from ``(name, labels)``
to instrument; instruments are created on first touch and accumulate for
the registry's lifetime.  :meth:`MetricsRegistry.snapshot` freezes the
current state into a :class:`MetricsSnapshot` — plain data that survives
JSON round-trips, so sinks can export it and tests can assert on it.

Histograms use fixed bucket bounds (default: a 1–2–5 decade series
spanning ``1e-3 .. 5e9``) and report percentiles by linear interpolation
inside the bucket containing the target rank, clamped to the exact
observed min/max.  For distributions that fill a bucket uniformly the
interpolation is near-exact; in the worst case the error is one bucket
width, which the decade series keeps below ~60% of the value — adequate
for latency telemetry, and trivially swappable via custom bounds.

The registry is deliberately single-threaded (like the rest of the
reproduction); sharding it per worker is the obvious extension when the
TS itself goes concurrent.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

#: ``(name, ((label, value), ...))`` — the registry key of one instrument.
MetricKey = tuple[str, tuple[tuple[str, str], ...]]

#: Default histogram bucket upper bounds: 1–2–5 per decade, 1e-3 … 5e9.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    m * 10.0**e for e in range(-3, 10) for m in (1.0, 2.0, 5.0)
)


def label_key(labels: Mapping[str, object]) -> tuple[tuple[str, str], ...]:
    """Canonical hashable form of a label mapping (sorted, stringified)."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(
        self, name: str, labels: tuple[tuple[str, str], ...] = ()
    ) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the count."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "labels", "value")

    def __init__(
        self, name: str, labels: tuple[tuple[str, str], ...] = ()
    ) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


@dataclass(frozen=True)
class HistogramSummary:
    """Frozen summary of one histogram at snapshot time."""

    count: int
    total: float
    minimum: float
    maximum: float
    p50: float
    p95: float
    p99: float

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "HistogramSummary":
        return cls(
            count=int(data["count"]),
            total=float(data["total"]),
            minimum=float(data["min"]),
            maximum=float(data["max"]),
            p50=float(data["p50"]),
            p95=float(data["p95"]),
            p99=float(data["p99"]),
        )


class Histogram:
    """Fixed-bucket histogram with exact count/sum/min/max.

    ``bounds`` are the inclusive upper edges of the buckets; one
    overflow bucket catches everything beyond the last edge.
    """

    __slots__ = (
        "name", "labels", "bounds", "counts",
        "count", "total", "minimum", "maximum", "exemplars",
    )

    def __init__(
        self,
        name: str,
        labels: tuple[tuple[str, str], ...] = (),
        bounds: Iterable[float] | None = None,
    ) -> None:
        self.name = name
        self.labels = labels
        self.bounds = tuple(
            sorted(DEFAULT_BUCKETS if bounds is None else bounds)
        )
        if not self.bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        #: bucket index → ``(value, trace_id)`` of the worst traced
        #: observation in the bucket's current window (see
        #: :meth:`drain_exemplars`).
        self.exemplars: dict[int, tuple[float, str]] = {}

    def record(self, value: float, trace_id: str | None = None) -> None:
        """Record one observation.

        ``trace_id`` (optional) keeps the observation as the bucket's
        exemplar when it is the worst value the bucket has seen this
        window — the breadcrumb that turns "p99 spiked" into a concrete
        trace to pull from the JSONL sink.  Untraced observations pay
        one predicate for the feature, never an allocation.
        """
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        bucket = self._bucket_of(value)
        self.counts[bucket] += 1
        if trace_id is not None:
            worst = self.exemplars.get(bucket)
            if worst is None or value >= worst[0]:
                self.exemplars[bucket] = (value, trace_id)

    def drain_exemplars(self) -> dict[int, tuple[float, str]]:
        """Return and reset the per-bucket exemplars (window roll)."""
        drained = self.exemplars
        self.exemplars = {}
        return drained

    def _bucket_of(self, value: float) -> int:
        # The first bound >= value; NaN compares false with every
        # bound, so it lands in the overflow bucket.
        if value != value:
            return len(self.bounds)
        return bisect_left(self.bounds, value)

    def percentile(self, q: float) -> float:
        """The ``q``-quantile (``q`` in [0, 1]) by bucket interpolation."""
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return float("nan")
        rank = q * self.count
        cumulative = 0.0
        for i, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                lower = self.bounds[i - 1] if i > 0 else min(self.minimum, 0.0)
                upper = (
                    self.bounds[i]
                    if i < len(self.bounds)
                    else self.maximum
                )
                fraction = (rank - cumulative) / bucket_count
                value = lower + (upper - lower) * fraction
                return min(max(value, self.minimum), self.maximum)
            cumulative += bucket_count
        return self.maximum

    def summary(self) -> HistogramSummary:
        return HistogramSummary(
            count=self.count,
            total=self.total,
            minimum=self.minimum if self.count else float("nan"),
            maximum=self.maximum if self.count else float("nan"),
            p50=self.percentile(0.50),
            p95=self.percentile(0.95),
            p99=self.percentile(0.99),
        )


@dataclass(frozen=True)
class MetricsSnapshot:
    """Frozen registry state: plain data, JSON round-trippable."""

    counters: dict[MetricKey, float]
    gauges: dict[MetricKey, float]
    histograms: dict[MetricKey, HistogramSummary]

    # -- lookups -------------------------------------------------------

    def counter_value(self, name: str, **labels: object) -> float:
        """The counter's value, 0.0 when it never fired."""
        return self.counters.get((name, label_key(labels)), 0.0)

    def gauge_value(self, name: str, **labels: object) -> float:
        return self.gauges.get((name, label_key(labels)), 0.0)

    def histogram_summary(
        self, name: str, **labels: object
    ) -> HistogramSummary | None:
        return self.histograms.get((name, label_key(labels)))

    def counters_named(self, name: str) -> dict[tuple[tuple[str, str], ...], float]:
        """All label sets of one counter name, e.g. per-decision counts."""
        return {
            labels: value
            for (counter_name, labels), value in self.counters.items()
            if counter_name == name
        }

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "counters": [
                {"name": name, "labels": dict(labels), "value": value}
                for (name, labels), value in sorted(self.counters.items())
            ],
            "gauges": [
                {"name": name, "labels": dict(labels), "value": value}
                for (name, labels), value in sorted(self.gauges.items())
            ],
            "histograms": [
                {
                    "name": name,
                    "labels": dict(labels),
                    **summary.to_dict(),
                }
                for (name, labels), summary in sorted(
                    self.histograms.items()
                )
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "MetricsSnapshot":
        return cls(
            counters={
                (e["name"], label_key(e["labels"])): float(e["value"])
                for e in data.get("counters", [])
            },
            gauges={
                (e["name"], label_key(e["labels"])): float(e["value"])
                for e in data.get("gauges", [])
            },
            histograms={
                (e["name"], label_key(e["labels"])):
                    HistogramSummary.from_dict(e)
                for e in data.get("histograms", [])
            },
        )


class MetricsRegistry:
    """Get-or-create home of all instruments, keyed by name+labels.

    Lookups are memoized on the raw ``(name, *labels.items())`` tuple,
    so a hot call site pays for the canonical (sorted, stringified)
    :func:`label_key` only on its first call; a kwarg order the memo
    has not seen falls back to that key and finds the same instrument.
    Label values are memo-keyed by equality, so values that compare
    equal but print differently (``1``, ``1.0``, ``True``) under one
    label name share whichever series was touched first.
    """

    def __init__(
        self, default_buckets: Iterable[float] | None = None
    ) -> None:
        self._default_buckets = (
            tuple(default_buckets) if default_buckets is not None else None
        )
        self._counters: dict[MetricKey, Counter] = {}
        self._gauges: dict[MetricKey, Gauge] = {}
        self._histograms: dict[MetricKey, Histogram] = {}
        self._counter_memo: dict[tuple, Counter] = {}
        self._gauge_memo: dict[tuple, Gauge] = {}
        self._histogram_memo: dict[tuple, Histogram] = {}

    @staticmethod
    def _lookup(
        memo: dict,
        instruments: dict,
        make: Callable[[str, tuple[tuple[str, str], ...]], Any],
        name: str,
        labels: dict[str, object],
    ) -> Any:
        memo_key = (name, *labels.items())
        instrument = memo.get(memo_key)
        if instrument is None:
            key = (name, label_key(labels))
            instrument = instruments.get(key)
            if instrument is None:
                instrument = instruments[key] = make(name, key[1])
            memo[memo_key] = instrument
        return instrument

    def counter(self, name: str, **labels: object) -> Counter:
        return self._lookup(
            self._counter_memo, self._counters, Counter, name, labels
        )

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._lookup(
            self._gauge_memo, self._gauges, Gauge, name, labels
        )

    def histogram(
        self,
        name: str,
        bounds: Iterable[float] | None = None,
        **labels: object,
    ) -> Histogram:
        if bounds is None:
            return self._lookup(
                self._histogram_memo,
                self._histograms,
                self._new_histogram,
                name,
                labels,
            )
        key = (name, label_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = Histogram(
                name, key[1], bounds=bounds or self._default_buckets
            )
            self._histograms[key] = instrument
        return instrument

    def _new_histogram(
        self, name: str, labels: tuple[tuple[str, str], ...]
    ) -> Histogram:
        return Histogram(name, labels, bounds=self._default_buckets)

    def snapshot(self) -> MetricsSnapshot:
        """Freeze the current state of every instrument."""
        return MetricsSnapshot(
            counters={
                key: c.value for key, c in self._counters.items()
            },
            gauges={key: g.value for key, g in self._gauges.items()},
            histograms={
                key: h.summary() for key, h in self._histograms.items()
            },
        )
