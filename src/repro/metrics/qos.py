"""Quality-of-service metrics.

Generalization trades service quality for anonymity: the coarser the
``⟨Area, TimeInterval⟩`` an SP receives, the less useful its answer.  We
summarize a run by the spatial and temporal extents of forwarded
contexts and by the *disruption rate* — the fraction of requests the
strategy could not serve safely (suppressed) plus, reported separately,
the unlinking frequency ("number of possible interruptions of the
service", Section 6.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.engine.context import AnonymizerEvent, Decision


@dataclass(frozen=True)
class QoSSummary:
    """Scalar quality-of-service summary of one run."""

    requests: int
    mean_area_m2: float
    mean_width_m: float
    mean_duration_s: float
    p95_width_m: float
    suppression_rate: float
    unlink_rate: float
    at_risk_rate: float

    def row(self) -> list[float]:
        """The summary as a benchmark-table row."""
        return [
            self.requests,
            self.mean_area_m2,
            self.mean_width_m,
            self.mean_duration_s,
            self.p95_width_m,
            self.suppression_rate,
            self.unlink_rate,
            self.at_risk_rate,
        ]


def _percentile(values: list[float], fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(
        len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1)
    )
    return ordered[index]


def qos_summary(
    events: Sequence[AnonymizerEvent], generalized_only: bool = True
) -> QoSSummary:
    """Summarize context sizes and disruption over an audit trail.

    With ``generalized_only`` (default) the size statistics cover only
    requests that went through Algorithm 1 — the interesting population;
    rates are always over all events.
    """
    sized = [
        e
        for e in events
        if (e.lbqid_name is not None or not generalized_only)
        and e.forwarded
    ]
    widths = [
        max(e.request.context.rect.width, e.request.context.rect.height)
        for e in sized
    ]
    areas = [e.request.context.rect.area for e in sized]
    durations = [e.request.context.interval.duration for e in sized]
    total = len(events)

    def rate(decision: Decision) -> float:
        if total == 0:
            return 0.0
        return sum(1 for e in events if e.decision is decision) / total

    def mean(values: list[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    return QoSSummary(
        requests=total,
        mean_area_m2=mean(areas),
        mean_width_m=mean(widths),
        mean_duration_s=mean(durations),
        p95_width_m=_percentile(widths, 0.95),
        suppression_rate=rate(Decision.SUPPRESSED),
        unlink_rate=rate(Decision.UNLINKED),
        at_risk_rate=rate(Decision.AT_RISK_FORWARDED)
        + rate(Decision.SUPPRESSED),
    )
