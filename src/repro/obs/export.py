"""Prometheus text exposition of the metrics registry.

:func:`render_prometheus` turns a live
:class:`~repro.obs.metrics.MetricsRegistry` (or a frozen
:class:`~repro.obs.metrics.MetricsSnapshot`) into the Prometheus text
exposition format, the lingua franca every scraper understands:

* counters are suffixed ``_total``;
* gauges are rendered as-is;
* live histograms export full cumulative ``_bucket{le=...}`` series
  (bounds whose cumulative count does not change are elided — the
  format permits any bucket subset as long as ``le="+Inf"`` closes it),
  plus ``_sum``/``_count``, with OpenMetrics-style trace exemplars
  (``# {trace_id="..."} value``) on buckets that captured one;
* snapshot histograms (which only retain summaries) degrade to the
  summary form: ``{quantile="0.5"}`` samples plus ``_sum``/``_count``.

Metric and label names are sanitized to the ``[a-zA-Z_:][a-zA-Z0-9_:]*``
charset (dots become underscores: ``serve.request_ms`` →
``serve_request_ms``); label values are escaped per the format spec.

:func:`parse_prometheus` is the matching reader used by tests and
``tools/obstop.py`` — it returns every sample as ``(name, labels) →
value`` and raises ``ValueError`` on any malformed line, so a test
parsing the server's ``metrics`` reply genuinely validates the
exposition.  :func:`render_samples` writes parsed (and merged) samples
back as exposition text — the body of a supervised fleet's ``metrics``
reply.  :func:`quantile_from_buckets` recovers percentiles from a
scraped cumulative bucket series (the same in-bucket linear
interpolation the registry itself uses).
"""

from __future__ import annotations

import re
from typing import Mapping, Sequence, Union

from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
)

_NAME_BAD = re.compile(r"[^a-zA-Z0-9_:]")
_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

_SAMPLE_RE = re.compile(
    r"""^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)
    (?:\{(?P<labels>[^}]*)\})?
    \s+(?P<value>[^\s#]+)
    # optional OpenMetrics exemplar: # {labels} value
    (?:\s+\#\s+\{(?P<exemplar>[^}]*)\}\s+(?P<exemplar_value>\S+))?
    \s*$""",
    re.VERBOSE,
)

_LABEL_RE = re.compile(
    r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
)

#: One scraped sample key: ``(name, ((label, value), ...))``.
SampleKey = tuple[str, tuple[tuple[str, str], ...]]

#: ``(name, ((label, value), ...)) -> float`` — one scraped sample.
Samples = dict[SampleKey, float]

#: Bucket exemplars per sample key: ``key -> (value, trace_id)``.
Exemplars = dict[SampleKey, tuple[float, str]]


def sanitize_name(name: str) -> str:
    """Map a registry metric name onto the Prometheus charset."""
    cleaned = _NAME_BAD.sub("_", name)
    if not cleaned or not _NAME_OK.match(cleaned):
        cleaned = "_" + cleaned
    return cleaned


def _escape_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if value != value:
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value)


def _labels_text(
    labels: Sequence[tuple[str, str]], extra: str | None = None
) -> str:
    parts = [
        f'{sanitize_name(key)}="{_escape_value(value)}"'
        for key, value in labels
    ]
    if extra is not None:
        parts.append(extra)
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


def _render_histogram(
    lines: list[str], name: str, labels, hist: Histogram
) -> None:
    cumulative = 0
    for index, bucket_count in enumerate(hist.counts):
        cumulative += bucket_count
        is_overflow = index >= len(hist.bounds)
        if bucket_count == 0 and not is_overflow:
            continue  # the cumulative series is unchanged: elide
        bound = (
            "+Inf" if is_overflow else _format_value(hist.bounds[index])
        )
        le = 'le="' + bound + '"'
        line = (
            f"{name}_bucket{_labels_text(labels, extra=le)}"
            f" {cumulative}"
        )
        exemplar = hist.exemplars.get(index)
        if exemplar is not None:
            value, trace_id = exemplar
            line += (
                f' # {{trace_id="{_escape_value(trace_id)}"}}'
                f" {_format_value(value)}"
            )
        lines.append(line)
    lines.append(
        f"{name}_sum{_labels_text(labels)} {_format_value(hist.total)}"
    )
    lines.append(f"{name}_count{_labels_text(labels)} {hist.count}")


def render_prometheus(
    source: Union[MetricsRegistry, MetricsSnapshot],
) -> str:
    """Render every instrument as Prometheus text exposition."""
    if isinstance(source, MetricsRegistry):
        snapshot = source.snapshot()
        registry: MetricsRegistry | None = source
    else:
        snapshot = source
        registry = None
    lines: list[str] = []

    for (raw_name, labels), value in sorted(snapshot.counters.items()):
        name = sanitize_name(raw_name) + "_total"
        lines.append(f"# TYPE {name} counter")
        lines.append(
            f"{name}{_labels_text(labels)} {_format_value(value)}"
        )

    for (raw_name, labels), value in sorted(snapshot.gauges.items()):
        name = sanitize_name(raw_name)
        lines.append(f"# TYPE {name} gauge")
        lines.append(
            f"{name}{_labels_text(labels)} {_format_value(value)}"
        )

    for (raw_name, labels), summary in sorted(
        snapshot.histograms.items()
    ):
        name = sanitize_name(raw_name)
        live = (
            registry._histograms.get((raw_name, labels))
            if registry is not None
            else None
        )
        if live is not None:
            lines.append(f"# TYPE {name} histogram")
            _render_histogram(lines, name, labels, live)
        else:
            lines.append(f"# TYPE {name} summary")
            for q, value in (
                ("0.5", summary.p50),
                ("0.95", summary.p95),
                ("0.99", summary.p99),
            ):
                quantile = 'quantile="' + q + '"'
                lines.append(
                    f"{name}{_labels_text(labels, extra=quantile)}"
                    f" {_format_value(value)}"
                )
            lines.append(
                f"{name}_sum{_labels_text(labels)} "
                f"{_format_value(summary.total)}"
            )
            lines.append(
                f"{name}_count{_labels_text(labels)} {summary.count}"
            )
    return "\n".join(lines) + "\n"


def parse_exposition(text: str) -> tuple[Samples, Exemplars]:
    """Parse text exposition, keeping OpenMetrics exemplars.

    Returns ``(samples, exemplars)``: the same ``(name, labels) →
    value`` map :func:`parse_prometheus` yields, plus ``(name,
    labels) → (value, trace_id)`` for every bucket line that carried a
    ``# {trace_id="..."} value`` exemplar — the raw material of the
    worst-exemplar merge in :mod:`repro.obs.aggregate`.
    Raises ``ValueError`` on any malformed line.
    """
    samples: Samples = {}
    exemplars: Exemplars = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        match = _SAMPLE_RE.match(stripped)
        if match is None:
            raise ValueError(
                f"line {lineno}: not a valid exposition sample: "
                f"{stripped!r}"
            )
        labels_text = match["labels"] or ""
        labels = tuple(
            (m["key"], m["value"])
            for m in _LABEL_RE.finditer(labels_text)
        )
        raw = match["value"]
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(
                f"line {lineno}: bad sample value {raw!r}"
            ) from None
        key = (match["name"], labels)
        samples[key] = value
        if match["exemplar"] is not None:
            exemplar_labels = dict(
                (m["key"], m["value"])
                for m in _LABEL_RE.finditer(match["exemplar"])
            )
            trace_id = exemplar_labels.get("trace_id")
            if trace_id is not None:
                try:
                    exemplar_value = float(match["exemplar_value"])
                except ValueError:
                    raise ValueError(
                        f"line {lineno}: bad exemplar value "
                        f"{match['exemplar_value']!r}"
                    ) from None
                exemplars[key] = (exemplar_value, trace_id)
    return samples, exemplars


def render_samples(
    samples: Samples, exemplars: "Exemplars | None" = None
) -> str:
    """Render parsed samples back as text exposition.

    The inverse of :func:`parse_exposition`: one line per sample,
    grouped by name, each bucket series in ascending ``le`` order, with
    its exemplar (if any) appended.  Label values and trace ids are
    written as parsed — still in their escaped wire form.  Instrument
    types are not carried by ``Samples``, so no ``# TYPE`` comments are
    written.
    """

    def order(key: SampleKey) -> tuple:
        name, labels = key
        le = [float(value) for label, value in labels if label == "le"]
        rest = [pair for pair in labels if pair[0] != "le"]
        return (name, rest, le)

    exemplars = exemplars or {}
    lines: list[str] = []
    for key in sorted(samples, key=order):
        name, labels = key
        text = ",".join(f'{label}="{value}"' for label, value in labels)
        line = f"{name}{{{text}}}" if text else name
        line += f" {_format_value(samples[key])}"
        exemplar = exemplars.get(key)
        if exemplar is not None:
            value, trace_id = exemplar
            line += f' # {{trace_id="{trace_id}"}} {_format_value(value)}'
        lines.append(line)
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> Samples:
    """Parse text exposition back into ``(name, labels) → value``.

    Raises ``ValueError`` on any line that is neither a comment, blank,
    nor a well-formed sample — the strictness the exposition tests
    lean on.  Exemplars are validated but dropped; use
    :func:`parse_exposition` to keep them.
    """
    samples, _exemplars = parse_exposition(text)
    return samples


def quantile_from_buckets(
    buckets: Mapping[float, float], count: float, q: float
) -> float:
    """Percentile from a scraped cumulative ``le → count`` series.

    ``buckets`` maps upper bounds (``+Inf`` included as ``inf``) to
    cumulative counts.  Mirrors the registry's in-bucket linear
    interpolation, so a dashboard recovers the same p50/p99 the server
    itself would report.
    """
    if count <= 0:
        return float("nan")
    rank = q * count
    previous_bound = 0.0
    previous_cum = 0.0
    for bound in sorted(buckets):
        cumulative = buckets[bound]
        if cumulative >= rank:
            in_bucket = cumulative - previous_cum
            if in_bucket <= 0 or bound == float("inf"):
                return previous_bound
            fraction = (rank - previous_cum) / in_bucket
            return previous_bound + (bound - previous_bound) * fraction
        previous_bound = bound if bound != float("inf") else previous_bound
        previous_cum = cumulative
    return previous_bound
