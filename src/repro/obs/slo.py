"""Streaming privacy-SLO monitoring over the telemetry event stream.

The Trusted Server is an *online* decision pipeline, yet Historical
k-anonymity (Definition 8), unlinking churn, QoS cost, and attack
exposure are normally checked post-hoc by replaying the audit trail.
This module closes that gap: :class:`PrivacyMonitor` is a
:class:`~repro.obs.sinks.TelemetrySink` that subscribes to the
engine's per-decision events (``type="ts.decision"``, published via
:meth:`Telemetry.event`) and maintains *while the pipeline runs*:

* **k-attainment** — the fraction of Θ-link-connected request groups
  (one per ``(user, pseudonym, LBQID)``, the scope of the paper's
  guarantee) currently meeting their required k, via an incremental
  form of :func:`repro.metrics.anonymity.historical_k_per_user`:
  contexts accumulate per group as requests stream in, and candidate
  anonymity sets are filtered incrementally while the PHL store is
  unchanged, recomputed when it grew (LT-consistency is monotone in
  the history, so cached intersections would undercount);
* **unlink churn** — pseudonym rotations per minute over the window
  (Section 6.2's "number of possible interruptions of the service");
* **QoS cost** — mean generalized area/duration over the window (the
  Section 6.2 tolerance budget actually being spent);
* **attack exposure** — an incremental
  :class:`~repro.attack.reidentification.HomeIdentificationAttack`-style
  claim rate: the fraction of pseudonyms whose home-hours requests
  revisit one anchor cell often enough to support a phone-book claim
  (optionally checked against a home oracle).

On top sit declarative :class:`SloRule`\\ s — ``"k_attainment >= 0.95
over 2h"``, ``"unlink_rate <= 0.2/min"`` — evaluated on window
roll-over.  Breaches and recoveries are emitted as structured
``slo_alert`` events through the telemetry fan-out (ring buffer, JSONL,
console — the :class:`~repro.obs.sinks.ConsoleSink` renders them as
warnings) and surfaced by ``SimulationReport.summary()``.

Layering: like the rest of ``repro.obs`` this module must not import
the pipeline packages it observes (``repro.core``, ``repro.attack``,
…); it consumes plain event dicts and duck-types the PHL store
(``.histories``, ``.version``).  The only upward imports are the
value-type layers ``repro.geometry`` and ``repro.granularity``.
"""

from __future__ import annotations

import re
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from repro.geometry.region import Interval, Rect, STBox
from repro.granularity.timeline import DAY, HOUR, MINUTE
from repro.obs.sinks import TelemetrySink

#: Hours-of-day windows in which a request is presumed home-anchored
#: (mirrors ``repro.attack.reidentification.HOME_HOURS``).
HOME_HOURS: tuple[tuple[float, float], ...] = ((5.0, 8.5), (17.5, 24.0))

_OPS: dict[str, Callable[[float, float], bool]] = {
    "<=": lambda value, threshold: value <= threshold,
    ">=": lambda value, threshold: value >= threshold,
    "<": lambda value, threshold: value < threshold,
    ">": lambda value, threshold: value > threshold,
    "==": lambda value, threshold: value == threshold,
}

_WINDOW_UNITS = {
    "s": 1.0,
    "sec": 1.0,
    "m": MINUTE,
    "min": MINUTE,
    "h": HOUR,
    "d": DAY,
}

#: Rate thresholds are normalized to the monitor's per-minute basis.
_RATE_UNITS = {"/s": 60.0, "/sec": 60.0, "/min": 1.0, "/h": 1.0 / 60.0}

_RULE_RE = re.compile(
    r"""^\s*
    (?P<metric>[a-zA-Z_][a-zA-Z0-9_.]*)\s*
    (?P<op><=|>=|==|<|>)\s*
    (?P<threshold>[-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)\s*
    (?P<rate>/s|/sec|/min|/h)?
    (?:\s+over\s+(?P<window>\d+(?:\.\d+)?)\s*(?P<unit>s|sec|min|m|h|d))?
    \s*$""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class SloRule:
    """One declarative service-level objective over a monitor metric.

    ``window_s`` overrides the monitor's default sliding window for
    this rule only; ``None`` inherits it.  Build from text with
    :func:`parse_slo` — ``"k_attainment >= 0.95 over 2h"``.
    """

    metric: str
    op: str
    threshold: float
    window_s: float | None = None

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(
                f"unknown comparison {self.op!r}; use one of "
                f"{sorted(_OPS)}"
            )
        if self.window_s is not None and self.window_s <= 0:
            raise ValueError(
                f"rule window must be positive, got {self.window_s}"
            )

    @property
    def name(self) -> str:
        text = f"{self.metric} {self.op} {self.threshold:g}"
        if self.window_s is not None:
            text += f" over {self.window_s:g}s"
        return text

    def check(self, value: float) -> bool:
        """Whether ``value`` satisfies the objective (NaN never does)."""
        if value != value:
            return False
        return _OPS[self.op](value, self.threshold)


def parse_slo(text: str) -> SloRule:
    """Parse ``"metric <op> threshold [/unit] [over N unit]"``.

    Rate suffixes (``/s``, ``/min``, ``/h``) convert the threshold to
    the monitor's per-minute basis, so ``"unlink_rate <= 0.2/min"`` and
    ``"unlink_rate <= 12/h"`` mean the same objective.
    """
    match = _RULE_RE.match(text)
    if match is None:
        raise ValueError(
            f"cannot parse SLO rule {text!r}; expected e.g. "
            "'k_attainment >= 0.95 over 2h' or 'unlink_rate <= 0.2/min'"
        )
    threshold = float(match["threshold"])
    if match["rate"]:
        threshold *= _RATE_UNITS[match["rate"]]
    window_s = None
    if match["window"]:
        window_s = float(match["window"]) * _WINDOW_UNITS[match["unit"]]
    return SloRule(
        metric=match["metric"],
        op=match["op"],
        threshold=threshold,
        window_s=window_s,
    )


@dataclass(frozen=True)
class SloAlert:
    """One SLO state transition (breach or recovery).

    ``exemplar_trace_ids`` — on a breach, the distributed trace ids of
    the most recent decisions inside the violated window (when the
    serving stack propagated them), so "k_attainment breached" comes
    with concrete request trees to pull from the JSONL sink.
    """

    rule: str
    metric: str
    state: str  # "breach" | "recovered"
    value: float
    threshold: float
    t: float
    exemplar_trace_ids: tuple[str, ...] = ()

    def to_event(self) -> dict:
        return {
            "type": "slo_alert",
            "rule": self.rule,
            "metric": self.metric,
            "state": self.state,
            "value": self.value,
            "threshold": self.threshold,
            "t": self.t,
            "exemplar_trace_ids": list(self.exemplar_trace_ids),
        }


@dataclass
class SloStatus:
    """Last evaluated state of one rule."""

    rule: SloRule
    value: float = float("nan")
    ok: bool = True
    breaches: int = 0
    evaluations: int = 0


@dataclass
class _GroupState:
    """Incremental Definition 8 state of one (user, pseudonym, LBQID)
    request group."""

    user_id: int
    required_k: int
    contexts: list[STBox] = field(default_factory=list)
    #: Users other than ``user_id`` whose PHL was LT-consistent with
    #: ``contexts[:filtered]`` at store version ``store_version``.
    candidates: list[int] | None = None
    filtered: int = 0
    store_version: int = -1


def _context_box(bounds: Sequence[float]) -> STBox:
    x_min, y_min, x_max, y_max, t_start, t_end = bounds
    return STBox(Rect(x_min, y_min, x_max, y_max), Interval(t_start, t_end))


def _in_home_hours(t: float) -> bool:
    offset = t % DAY
    return any(lo * HOUR <= offset <= hi * HOUR for lo, hi in HOME_HOURS)


class PrivacyMonitor(TelemetrySink):
    """Online privacy auditor: a sink over the engine event stream.

    Attach to an enabled telemetry pipeline with :meth:`attach` (or
    pass it as one of the ``sinks`` when building :class:`Telemetry`
    by hand and call ``monitor.bind(telemetry)``).  Estimates are
    maintained per event; rules are evaluated every ``eval_every_s``
    of *simulation* time (default: the window length — tumbling
    roll-over), and each evaluation publishes ``slo.*`` gauges so the
    estimates appear in metric snapshots and rendered summaries.

    ``store`` is duck-typed: any object with a ``histories`` mapping
    of user id → PHL (supporting ``lt_consistent_with``) and a
    monotone ``version`` counter works; ``None`` disables the
    historical-k estimate (it reports NaN).
    """

    def __init__(
        self,
        store=None,
        rules: Iterable[SloRule | str] = (),
        window_s: float = 2 * HOUR,
        eval_every_s: float | None = None,
        default_k: int = 2,
        homes: Mapping[int, object] | None = None,
        claim_radius: float = 150.0,
        min_home_requests: int = 2,
        anchor_grid: float = 50.0,
    ) -> None:
        if window_s <= 0:
            raise ValueError(f"window_s must be positive, got {window_s}")
        self.store = store
        self.rules = tuple(
            parse_slo(rule) if isinstance(rule, str) else rule
            for rule in rules
        )
        self.window_s = window_s
        self.eval_every_s = (
            window_s if eval_every_s is None else eval_every_s
        )
        if self.eval_every_s <= 0:
            raise ValueError(
                f"eval_every_s must be positive, got {self.eval_every_s}"
            )
        self.default_k = default_k
        self.homes = dict(homes) if homes else None
        self.claim_radius = claim_radius
        self.min_home_requests = min_home_requests
        self.anchor_grid = anchor_grid

        #: Longest window any rule (or the default) needs; deques are
        #: pruned to it so narrower rule windows can still be computed.
        self._max_window = max(
            [window_s]
            + [r.window_s for r in self.rules if r.window_s is not None]
        )
        self.status: dict[str, SloStatus] = {
            rule.name: SloStatus(rule) for rule in self.rules
        }
        self.alerts: list[SloAlert] = []
        self.events_seen = 0
        self._telemetry = None
        self._now = float("-inf")
        self._next_eval: float | None = None

        # Sliding-window state, all keyed by simulation time.
        self._decisions: deque[tuple[float, str]] = deque()
        self._unlinks: deque[float] = deque()
        self._qos: deque[tuple[float, float, float]] = deque()
        self._group_activity: deque[tuple[float, tuple]] = deque()
        #: Trace ids of recent traced decisions — alert exemplars.
        self._trace_log: deque[tuple[float, str]] = deque()

        # All-time state.
        self.decision_totals: Counter[str] = Counter()
        self.unlink_total = 0
        self.lbqids_matched = 0
        self._groups: dict[tuple, _GroupState] = {}
        self._pseudonyms_seen: set[str] = set()
        #: pseudonym → Counter of home-hours anchor cells.
        self._home_cells: dict[str, Counter] = {}
        #: pseudonym → per-cell running centroid sums (x, y, n).
        self._cell_sums: dict[tuple[str, tuple[int, int]], list[float]] = {}

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def attach(self, telemetry) -> "PrivacyMonitor":
        """Subscribe to ``telemetry``'s fan-out and alert through it."""
        telemetry.attach_sink(self)
        return self.bind(telemetry)

    def bind(self, telemetry) -> "PrivacyMonitor":
        """Use ``telemetry`` for outgoing alerts and ``slo.*`` gauges
        without (re-)attaching this monitor as a sink."""
        self._telemetry = telemetry
        return self

    # ------------------------------------------------------------------
    # sink interface
    # ------------------------------------------------------------------

    def emit(self, event: Mapping[str, object]) -> None:
        if event.get("type") == "ts.decision":
            self._ingest_decision(event)
        elif event.get("type") == "monitor.lbqid_matched":
            self.lbqids_matched += 1

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------

    def _ingest_decision(self, event: Mapping[str, object]) -> None:
        t = float(event["t"])
        decision = str(event["decision"])
        forwarded = bool(event["forwarded"])
        lbqid = event.get("lbqid")
        self.events_seen += 1
        self._now = max(self._now, t)
        if self._next_eval is None:
            self._next_eval = t + self.eval_every_s

        self._decisions.append((t, decision))
        trace_id = event.get("trace_id")
        if trace_id is not None:
            self._trace_log.append((t, str(trace_id)))
        self.decision_totals[decision] += 1
        if event.get("rotated"):
            self._unlinks.append(t)
            self.unlink_total += 1

        context = event.get("context")
        if forwarded and context is not None:
            box = _context_box(context)
            if lbqid is not None:
                self._qos.append(
                    (t, box.rect.area, box.interval.duration)
                )
                self._ingest_group(event, box, t)
            self._ingest_risk(str(event["pseudonym"]), box)

        self._prune(self._now)
        while self._next_eval is not None and self._now >= self._next_eval:
            self.evaluate(self._next_eval)
            self._next_eval += self.eval_every_s

    def _ingest_group(
        self, event: Mapping[str, object], box: STBox, t: float
    ) -> None:
        key = (
            int(event["user_id"]),
            str(event["pseudonym"]),
            str(event["lbqid"]),
        )
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = _GroupState(
                user_id=key[0],
                required_k=int(event.get("required_k") or self.default_k),
            )
        else:
            required_k = event.get("required_k")
            if required_k is not None:
                group.required_k = int(required_k)
        group.contexts.append(box)
        self._group_activity.append((t, key))

    def _ingest_risk(self, pseudonym: str, box: STBox) -> None:
        self._pseudonyms_seen.add(pseudonym)
        if not _in_home_hours(box.interval.center):
            return
        center = box.rect.center
        cell = (
            round(center.x / self.anchor_grid),
            round(center.y / self.anchor_grid),
        )
        cells = self._home_cells.get(pseudonym)
        if cells is None:
            cells = self._home_cells[pseudonym] = Counter()
        cells[cell] += 1
        sums = self._cell_sums.get((pseudonym, cell))
        if sums is None:
            self._cell_sums[(pseudonym, cell)] = [center.x, center.y, 1.0]
        else:
            sums[0] += center.x
            sums[1] += center.y
            sums[2] += 1.0

    def _prune(self, now: float) -> None:
        horizon = now - self._max_window
        while self._unlinks and self._unlinks[0] < horizon:
            self._unlinks.popleft()
        for dq in (
            self._decisions,
            self._qos,
            self._group_activity,
            self._trace_log,
        ):
            while dq and dq[0][0] < horizon:
                dq.popleft()

    # ------------------------------------------------------------------
    # estimates
    # ------------------------------------------------------------------

    def achieved_k(self, key: tuple) -> int:
        """Current Definition 8 anonymity of one request group.

        ``1 +`` the number of *other* users LT-consistent with every
        context the group has forwarded so far.  Candidate sets are
        filtered incrementally while the store is unchanged and
        recomputed after it grew (consistency is monotone in the PHL,
        so a user excluded early may qualify later).
        """
        group = self._groups[key]
        if self.store is None:
            raise ValueError("PrivacyMonitor has no PHL store attached")
        histories = self.store.histories
        version = getattr(self.store, "version", None)
        stale = version is None or group.store_version != version
        if group.candidates is None or stale:
            # Stores may offer a vectorized all-users consistency scan
            # (``TrajectoryStore.lt_consistent_users``); fall back to
            # the per-history loop for plain mappings.  Both return
            # candidate ids in history-ingest order.
            fast = getattr(self.store, "lt_consistent_users", None)
            if callable(fast):
                group.candidates = fast(
                    group.contexts, exclude_user=group.user_id
                )
            else:
                group.candidates = [
                    user_id
                    for user_id, history in histories.items()
                    if user_id != group.user_id
                    and history.lt_consistent_with(group.contexts)
                ]
        elif group.filtered < len(group.contexts):
            fresh = group.contexts[group.filtered:]
            group.candidates = [
                user_id
                for user_id in group.candidates
                if histories[user_id].lt_consistent_with(fresh)
            ]
        group.filtered = len(group.contexts)
        if version is not None:
            group.store_version = version
        return 1 + len(group.candidates)

    def historical_k_per_user(self) -> dict[int, int]:
        """Worst-case achieved k per user over all groups seen so far.

        Matches the post-hoc
        :func:`repro.metrics.anonymity.historical_k_per_user` tally
        (default grouping, ``hk_only=False``) when evaluated against
        the same store.
        """
        worst: dict[int, int] = {}
        for key in self._groups:
            achieved = self.achieved_k(key)
            user_id = self._groups[key].user_id
            if user_id not in worst or achieved < worst[user_id]:
                worst[user_id] = achieved
        return worst

    def k_attainment(self, window_s: float | None = None) -> float:
        """Fraction of recently-active groups meeting their required k.

        Vacuously 1.0 with no active groups (nothing is at risk).
        """
        active = self._active_groups(window_s)
        if not active:
            return 1.0
        met = sum(
            1
            for key in active
            if self.achieved_k(key) >= self._groups[key].required_k
        )
        return met / len(active)

    def unlink_rate(self, window_s: float | None = None) -> float:
        """Pseudonym rotations per minute over the window."""
        window = self._window(window_s)
        count = sum(1 for t in self._unlinks if t >= self._now - window)
        return count / (window / MINUTE)

    def mean_area_m2(self, window_s: float | None = None) -> float:
        """Mean generalized context area over the window (NaN if none)."""
        return self._qos_mean(1, window_s)

    def mean_duration_s(self, window_s: float | None = None) -> float:
        """Mean generalized context duration over the window."""
        return self._qos_mean(2, window_s)

    def suppression_rate(self, window_s: float | None = None) -> float:
        """Fraction of windowed requests suppressed."""
        return self._decision_rate({"suppressed"}, window_s)

    def at_risk_rate(self, window_s: float | None = None) -> float:
        """Fraction of windowed requests whose user was notified of
        identification risk (suppressed or forwarded anyway)."""
        return self._decision_rate(
            {"suppressed", "at_risk_forwarded"}, window_s
        )

    def risk_claim_rate(self, window_s: float | None = None) -> float:
        """Fraction of pseudonyms a phone-book attacker could claim.

        A pseudonym is claimable once some home-hours anchor cell has
        accumulated ``min_home_requests`` requests — the
        :class:`HomeIdentificationAttack` precondition — and, when a
        home oracle was provided, the cell's centroid lies within
        ``claim_radius`` of some home.
        """
        if not self._pseudonyms_seen:
            return 0.0
        return len(self.claimable_pseudonyms()) / len(self._pseudonyms_seen)

    def claimable_pseudonyms(self) -> set[str]:
        """Pseudonyms currently exposed to the home-anchor attack."""
        claimable = set()
        for pseudonym, cells in self._home_cells.items():
            cell, count = cells.most_common(1)[0]
            if count < self.min_home_requests:
                continue
            if self.homes is not None:
                x_sum, y_sum, n = self._cell_sums[(pseudonym, cell)]
                if not self._near_home(x_sum / n, y_sum / n):
                    continue
            claimable.add(pseudonym)
        return claimable

    def _near_home(self, x: float, y: float) -> bool:
        radius_sq = self.claim_radius**2
        return any(
            (home.x - x) ** 2 + (home.y - y) ** 2 <= radius_sq
            for home in self.homes.values()
        )

    def estimates(self, window_s: float | None = None) -> dict[str, float]:
        """All window estimates as one name → value mapping."""
        values = {
            "k_attainment": (
                self.k_attainment(window_s)
                if self.store is not None
                else float("nan")
            ),
            "unlink_rate": self.unlink_rate(window_s),
            "mean_area_m2": self.mean_area_m2(window_s),
            "mean_duration_s": self.mean_duration_s(window_s),
            "suppression_rate": self.suppression_rate(window_s),
            "at_risk_rate": self.at_risk_rate(window_s),
            "risk_claim_rate": self.risk_claim_rate(window_s),
        }
        return values

    #: The metric names rules may reference.
    METRICS = (
        "k_attainment",
        "unlink_rate",
        "mean_area_m2",
        "mean_duration_s",
        "suppression_rate",
        "at_risk_rate",
        "risk_claim_rate",
    )

    def metric_value(
        self, metric: str, window_s: float | None = None
    ) -> float:
        """One named estimate (the lookup the rules use)."""
        if metric not in self.METRICS:
            raise ValueError(
                f"unknown SLO metric {metric!r}; one of "
                f"{sorted(self.METRICS)}"
            )
        return getattr(self, metric)(window_s)

    # ------------------------------------------------------------------
    # rule evaluation
    # ------------------------------------------------------------------

    def evaluate(self, now: float | None = None) -> list[SloAlert]:
        """Evaluate every rule; emit alerts on state transitions.

        Called automatically on window roll-over; call directly for a
        final end-of-run evaluation.  Returns the alerts raised by
        *this* evaluation.  An explicit ``now`` advances event time, so
        the rule windows (and breach exemplars) are anchored at ``now``
        — events older than a window genuinely fall out of it.
        """
        if now is None:
            now = self._now
        else:
            self._now = max(self._now, now)
        raised: list[SloAlert] = []
        for rule in self.rules:
            status = self.status[rule.name]
            value = self.metric_value(rule.metric, rule.window_s)
            ok = rule.check(value)
            status.evaluations += 1
            status.value = value
            if not ok:
                status.breaches += 1
            if ok != status.ok:
                alert = SloAlert(
                    rule=rule.name,
                    metric=rule.metric,
                    state="recovered" if ok else "breach",
                    value=value,
                    threshold=rule.threshold,
                    t=now,
                    exemplar_trace_ids=(
                        ()
                        if ok
                        else self._windowed_traces(rule.window_s)
                    ),
                )
                self.alerts.append(alert)
                raised.append(alert)
            status.ok = ok
        self._publish(now, raised)
        return raised

    def _publish(self, now: float, raised: list[SloAlert]) -> None:
        """Fan alerts out through the pipeline, export ``slo.*`` gauges."""
        telemetry = self._telemetry
        if telemetry is None or not telemetry.enabled:
            return
        for name, value in self.estimates().items():
            if value == value:  # skip NaN gauges
                telemetry.gauge(f"slo.{name}", value)
        for alert in raised:
            telemetry.count("slo.alerts", state=alert.state)
            for sink in telemetry.sinks:
                if sink is not self:
                    sink.emit(alert.to_event())

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def summary_lines(self) -> list[str]:
        """Fixed-width SLO status block for report summaries."""
        lines = ["== privacy SLOs =="]
        if not self.rules:
            lines.append("(no rules configured)")
        width = max((len(name) for name in self.status), default=0)
        for name, status in self.status.items():
            state = "ok" if status.ok else "BREACH"
            lines.append(
                f"  {name.ljust(width)}  {state:7s} "
                f"value={status.value:.4g} "
                f"breaches={status.breaches}/{status.evaluations}"
            )
        if self.alerts:
            lines.append(f"  alerts: {len(self.alerts)}")
            for alert in self.alerts[-5:]:
                lines.append(
                    f"    t={alert.t:.0f} {alert.state}: {alert.rule} "
                    f"(value={alert.value:.4g})"
                )
        return lines

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _window(self, window_s: float | None) -> float:
        return self.window_s if window_s is None else window_s

    def _windowed_traces(
        self, window_s: float | None, limit: int = 5
    ) -> tuple[str, ...]:
        """Most recent distinct trace ids inside the window (≤ limit)."""
        horizon = self._now - self._window(window_s)
        picked: list[str] = []
        for t, trace_id in reversed(self._trace_log):
            if t < horizon:
                break
            if trace_id not in picked:
                picked.append(trace_id)
            if len(picked) >= limit:
                break
        return tuple(picked)

    def _active_groups(self, window_s: float | None) -> set[tuple]:
        horizon = self._now - self._window(window_s)
        return {key for t, key in self._group_activity if t >= horizon}

    def _qos_mean(self, index: int, window_s: float | None) -> float:
        horizon = self._now - self._window(window_s)
        values = [entry[index] for entry in self._qos if entry[0] >= horizon]
        if not values:
            return float("nan")
        return sum(values) / len(values)

    def _decision_rate(
        self, decisions: set[str], window_s: float | None
    ) -> float:
        horizon = self._now - self._window(window_s)
        total = hits = 0
        for t, decision in self._decisions:
            if t < horizon:
                continue
            total += 1
            if decision in decisions:
                hits += 1
        return hits / total if total else 0.0
