"""Merge the scrapes of one supervised fleet into one exposition.

A :class:`~repro.serve.supervisor.WorkerSupervisor` answers the
``metrics`` op for its whole fleet: it pulls each worker's exposition
over the connection it already holds and merges them, together with
its own registry, into one sample set.  This module is that merge,
operating purely on parsed Prometheus samples
(:func:`repro.obs.export.parse_exposition`):

* **counters** (``_total``) and histogram components (``_bucket`` /
  ``_sum`` / ``_count``) *sum* across workers.  Cumulative bucket
  series are merged as step functions — a worker elides bounds whose
  cumulative count did not change, so the merged value at each bound
  is the sum of every worker's cumulative count *at* that bound, not
  a naive key-wise sum;
* **gauges** (and summary ``quantile`` samples, which cannot be
  combined) keep per-worker identity under an added ``worker`` label —
  except the frontend's own, which keep their labels as they are;
* **exemplars** keep the worst observation per bucket across the
  fleet (the trace id most worth pulling).

The module imports nothing from ``repro.serve``.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.obs.export import Exemplars, SampleKey, Samples


def merge_rule(
    name: str, labels: Sequence[tuple[str, str]]
) -> str:
    """Classify one sample: ``"sum"``, ``"bucket"``, or ``"worker"``.

    The exposition format does not carry instrument types past the
    ``# TYPE`` comments (which a minimal scrape may drop), so the
    classification leans on the naming conventions the renderer
    guarantees: counters end in ``_total``, histogram series in
    ``_bucket``/``_sum``/``_count``; ``quantile``-labelled summary
    samples and everything else (gauges) keep per-worker identity.
    """
    keys = [key for key, _value in labels]
    if "quantile" in keys:
        return "worker"
    if name.endswith("_bucket") and "le" in keys:
        return "bucket"
    if name.endswith(("_total", "_sum", "_count")):
        return "sum"
    return "worker"


def _cumulative_at(
    series: Sequence[tuple[float, float]], bound: float
) -> float:
    """Step-function read of an elided cumulative bucket series.

    ``series`` is ``(bound, cumulative)`` sorted ascending; the value
    at an un-rendered bound equals the largest rendered bound at or
    below it (0 before the first) — exactly the elision rule of
    :func:`repro.obs.export.render_prometheus`.
    """
    value = 0.0
    for series_bound, cumulative in series:
        if series_bound > bound:
            break
        value = cumulative
    return value


def _merged_labels(
    labels: Sequence[tuple[str, str]],
) -> tuple[tuple[str, str], ...]:
    """Labels as a merged key carries them: sorted, with ``le`` last
    (where :func:`repro.obs.export.render_prometheus` writes it)."""
    rest = sorted(pair for pair in labels if pair[0] != "le")
    return tuple(rest) + tuple(pair for pair in labels if pair[0] == "le")


def merge_samples(per_worker: Mapping[str, Samples]) -> Samples:
    """Merge N workers' scrapes into one fleet sample set.

    Summed series come back under their (sorted) original labels;
    per-worker series gain a ``("worker", <worker>)`` label, except
    those of the worker named ``""`` (the frontend's own registry),
    which keep their labels unchanged.  The merged output of two
    workers equals what one registry serving the combined workload
    would expose (the property the aggregate tests pin for counters
    and histogram buckets).
    """
    merged: Samples = {}
    sums: dict[SampleKey, float] = {}
    # (name, base labels) -> worker -> [(bound, cum)], le kept as the
    # original string so merged keys match a native exposition.
    buckets: dict[
        SampleKey, dict[str, list[tuple[float, float, str]]]
    ] = {}
    for worker in sorted(per_worker):
        identity = (("worker", worker),) if worker else ()
        for (name, labels), value in per_worker[worker].items():
            rule = merge_rule(name, labels)
            if rule == "sum":
                key = (name, _merged_labels(labels))
                sums[key] = sums.get(key, 0.0) + value
            elif rule == "bucket":
                *base, le_pair = _merged_labels(labels)
                le = le_pair[1]
                buckets.setdefault((name, tuple(base)), {}).setdefault(
                    worker, []
                ).append((float(le), value, le))
            else:
                merged[(name, _merged_labels(labels + identity))] = value
    merged.update(sums)
    for (name, base), by_worker in buckets.items():
        series: dict[str, list[tuple[float, float]]] = {}
        le_text: dict[float, str] = {}
        for worker, entries in by_worker.items():
            entries.sort()
            series[worker] = [
                (bound, cum) for bound, cum, _le in entries
            ]
            for bound, _cum, le in entries:
                le_text[bound] = le
        for bound in sorted(le_text):
            total = sum(
                _cumulative_at(worker_series, bound)
                for worker_series in series.values()
            )
            key = (name, base + (("le", le_text[bound]),))
            merged[key] = total
    return merged


def merge_exemplars(
    per_worker: Mapping[str, Exemplars],
) -> Exemplars:
    """Keep the fleet-wide worst exemplar per bucket series.

    Keys are normalised as :func:`merge_samples` normalises bucket
    keys (sorted labels, ``le`` last), so each exemplar lines up with
    its merged bucket; on a value tie the lexically first trace id
    wins, keeping the merge order-independent.
    """
    merged: Exemplars = {}
    for worker in sorted(per_worker):
        for (name, labels), (value, trace_id) in (
            per_worker[worker].items()
        ):
            key = (name, _merged_labels(labels))
            kept = merged.get(key)
            if (
                kept is None
                or value > kept[0]
                or (value == kept[0] and trace_id < kept[1])
            ):
                merged[key] = (value, trace_id)
    return merged
