"""Low-overhead sampling wall/CPU profiler with stage attribution.

:class:`SamplingProfiler` runs a daemon thread that wakes every
``interval_s`` and grabs the target thread's current stack via
``sys._current_frames()``.  Each tick accumulates three weights onto
the sampled stack: one *sample*, the wall-clock delta since the last
tick, and the process-CPU delta (``time.process_time()``) since the
last tick — the classic wall/CPU sampling pair, so sleeping stacks
show up in wall time but not CPU time.

Attribution: contextvars cannot be read from another thread, so the
profiled thread publishes what it is doing through a shared
:class:`ActivitySlot` — three plain attribute writes
(``in_request``/``stage``/``trace_id``) the engine performs only while
``telemetry.profiling`` is True.  The sampler reads the slot at each
tick and tags the stack with the active engine stage (``"(other)"``
for in-request time outside any stage, ``"(idle)"`` otherwise) and the
active wire trace id.  Because every in-request sample lands in
exactly one of ``{stage..., "(other)"}``, the per-stage self-time
table sums to 100% of sampled request time *by construction*.

Output formats:

* :meth:`ProfileReport.collapsed_lines` — Brendan-Gregg collapsed
  stacks (``frame;frame;... weight``, root first, hottest first),
  ready for ``flamegraph.pl`` or speedscope; stage-attributed stacks
  get a synthetic ``stage:<name>`` leaf frame;
* :meth:`ProfileReport.stage_table` / :func:`render_stage_table` —
  the per-stage self-time rows;
* :meth:`ProfileReport.to_dict` / :func:`report_from_dict` — the JSON
  form the ``profile`` protocol op ships over the wire.

Everything here is stdlib-only apart from the slot
(:mod:`repro.obs.activity`) — :mod:`repro.obs.config` wires the
profiler into the :class:`~repro.obs.config.Telemetry` facade, not the
other way around, and loads this module only when a profiler starts.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from types import CodeType
from typing import Iterable, Mapping

from repro.obs.activity import ActivitySlot

#: Activity labels for samples outside any engine stage.
OTHER_LABEL = "(other)"
IDLE_LABEL = "(idle)"


@dataclass(frozen=True)
class CollapsedStack:
    """One aggregated stack: frames root-first plus its weights."""

    frames: tuple[str, ...]
    #: Engine stage label (``"(idle)"`` / ``"(other)"`` / stage name).
    stage: str
    samples: int
    wall_s: float
    cpu_s: float


@dataclass(frozen=True)
class StageRow:
    """One per-stage self-time row of a profile report."""

    stage: str
    samples: int
    wall_s: float
    cpu_s: float
    #: Share of sampled *request* time; None for the idle row.
    share_pct: float | None


@dataclass(frozen=True)
class TraceRow:
    """Sampled weight attributed to one wire trace id."""

    trace_id: str
    samples: int
    wall_s: float


def _frame_label(code: CodeType) -> str:
    qualname = getattr(code, "co_qualname", code.co_name)
    return f"{Path(code.co_filename).stem}.{qualname}"


class SamplingProfiler:
    """Background sampler over one target thread (see module doc).

    ``slot`` is the :class:`ActivitySlot` the profiled thread writes
    (pass the telemetry's slot for stage/trace attribution, or None
    for plain stack profiling).  ``start()`` targets the *calling*
    thread unless ``target_thread_id`` says otherwise.

    The CPU weight is the process-CPU delta between ticks attributed
    to the sampled stack — exact for a single busy thread (the serving
    daemon's dispatch loop), an approximation when other threads burn
    CPU concurrently.

    While the capture runs, the interpreter's thread switch interval
    is clamped to half the sampling interval (restored on
    :meth:`stop`).  Without this the sampler thread wins the GIL
    almost exclusively when the target thread *blocks* — so every
    sample of a server handling sub-millisecond requests would land
    in ``"(idle)"`` and the stage table would be empty.  Half keeps
    at least one forced handover inside every sample period while
    staying as close to the interpreter default as the sampling rate
    allows — at 10 ms sampling the clamp is a no-op, so continuous
    production profiling perturbs nothing but the sampler thread
    itself.
    """

    def __init__(
        self,
        slot: ActivitySlot | None = None,
        interval_s: float = 0.005,
        max_depth: int = 48,
        target_thread_id: int | None = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(
                f"interval_s must be positive, got {interval_s}"
            )
        if max_depth < 1:
            raise ValueError(
                f"max_depth must be >= 1, got {max_depth}"
            )
        self.slot = slot
        self.interval_s = interval_s
        self.max_depth = max_depth
        self._target = target_thread_id
        self._thread: threading.Thread | None = None
        self._stop_event = threading.Event()
        self._lock = threading.Lock()
        self._started = False
        #: (code objects root-first, activity label) -> [n, wall, cpu]
        self._stacks: dict[
            tuple[tuple[CodeType, ...], str], list[float]
        ] = {}
        #: trace_id -> [samples, wall_s]
        self._traces: dict[str, list[float]] = {}
        self._samples = 0
        self._started_at = 0.0
        self._stopped_at: float | None = None
        self._saved_switch_interval: float | None = None

    # -- lifecycle -----------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    @property
    def sample_count(self) -> int:
        return self._samples

    @property
    def duration_s(self) -> float:
        if not self._started:
            return 0.0
        end = (
            self._stopped_at
            if self._stopped_at is not None
            else time.perf_counter()
        )
        return end - self._started_at

    def start(self) -> "SamplingProfiler":
        """Spawn the sampler; profiles the calling thread by default."""
        if self._started:
            raise RuntimeError(
                "profiler already started; build a new one per capture"
            )
        self._started = True
        if self._target is None:
            self._target = threading.get_ident()
        self._started_at = time.perf_counter()
        # See the class docstring: without a short switch interval the
        # GIL is handed over at blocking calls only, starving the
        # sampler of mid-request ticks.
        self._saved_switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(
            min(
                self._saved_switch_interval,
                max(self.interval_s / 2.0, 1e-4),
            )
        )
        self._thread = threading.Thread(
            target=self._loop, name="repro-obs-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "ProfileReport":
        """Stop sampling and return the report.  Idempotent."""
        if self._thread is not None:
            self._stop_event.set()
            self._thread.join()
            self._thread = None
            self._stopped_at = time.perf_counter()
        if self._saved_switch_interval is not None:
            sys.setswitchinterval(self._saved_switch_interval)
            self._saved_switch_interval = None
        return self.report()

    # -- the sampler thread --------------------------------------------

    def _loop(self) -> None:
        slot = self.slot
        target = self._target
        max_depth = self.max_depth
        last_wall = time.perf_counter()
        last_cpu = time.process_time()
        while not self._stop_event.wait(self.interval_s):
            now_wall = time.perf_counter()
            now_cpu = time.process_time()
            wall_d = now_wall - last_wall
            cpu_d = now_cpu - last_cpu
            last_wall, last_cpu = now_wall, now_cpu
            frame = sys._current_frames().get(target)
            if frame is None:
                continue
            if slot is not None and slot.in_request:
                label = slot.stage or OTHER_LABEL
                trace_id = slot.trace_id
            else:
                label = IDLE_LABEL
                trace_id = None
            codes: list[CodeType] = []
            depth = 0
            while frame is not None and depth < max_depth:
                codes.append(frame.f_code)
                frame = frame.f_back
                depth += 1
            key = (tuple(reversed(codes)), label)
            with self._lock:
                self._samples += 1
                record = self._stacks.get(key)
                if record is None:
                    self._stacks[key] = [1.0, wall_d, cpu_d]
                else:
                    record[0] += 1.0
                    record[1] += wall_d
                    record[2] += cpu_d
                if trace_id is not None:
                    trace = self._traces.get(trace_id)
                    if trace is None:
                        self._traces[trace_id] = [1.0, wall_d]
                    else:
                        trace[0] += 1.0
                        trace[1] += wall_d

    # -- reporting -----------------------------------------------------

    def report(self, max_traces: int = 64) -> "ProfileReport":
        """Freeze the accumulated samples (safe while running)."""
        with self._lock:
            raw_stacks = {
                key: tuple(value)
                for key, value in self._stacks.items()
            }
            raw_traces = {
                trace_id: tuple(value)
                for trace_id, value in self._traces.items()
            }
            samples = self._samples
        stacks = tuple(
            sorted(
                (
                    CollapsedStack(
                        frames=tuple(
                            _frame_label(code) for code in codes
                        ),
                        stage=label,
                        samples=int(n),
                        wall_s=wall,
                        cpu_s=cpu,
                    )
                    for (codes, label), (n, wall, cpu) in (
                        raw_stacks.items()
                    )
                ),
                key=lambda s: (-s.samples, s.frames, s.stage),
            )
        )
        traces = tuple(
            sorted(
                (
                    TraceRow(
                        trace_id=trace_id,
                        samples=int(n),
                        wall_s=wall,
                    )
                    for trace_id, (n, wall) in raw_traces.items()
                ),
                key=lambda t: (-t.samples, t.trace_id),
            )[:max_traces]
        )
        return ProfileReport(
            interval_s=self.interval_s,
            duration_s=self.duration_s,
            samples=samples,
            stacks=stacks,
            traces=traces,
        )


@dataclass(frozen=True)
class ProfileReport:
    """One frozen profiling capture (in-flight or final)."""

    interval_s: float
    duration_s: float
    #: Ticks that actually captured a frame of the target thread.
    samples: int
    stacks: tuple[CollapsedStack, ...]
    traces: tuple[TraceRow, ...] = ()

    @property
    def request_samples(self) -> int:
        """Samples taken while a request was being processed."""
        return sum(
            s.samples for s in self.stacks if s.stage != IDLE_LABEL
        )

    def collapsed_lines(
        self, weight: str = "samples", limit: int | None = None
    ) -> list[str]:
        """Brendan-Gregg collapsed stacks, hottest first.

        ``weight`` selects the per-line count: ``"samples"`` (tick
        count), ``"wall"``, or ``"cpu"`` (both in microseconds).
        Stage-attributed stacks end in a synthetic ``stage:<name>``
        frame, so a flame graph shows where each stage's self-time
        goes; idle stacks carry no synthetic frame.
        """
        if weight not in ("samples", "wall", "cpu"):
            raise ValueError(
                f"weight must be samples|wall|cpu, got {weight!r}"
            )

        def measure(stack: CollapsedStack) -> int:
            if weight == "samples":
                return stack.samples
            if weight == "wall":
                return int(round(stack.wall_s * 1e6))
            return int(round(stack.cpu_s * 1e6))

        lines: list[str] = []
        ranked = sorted(
            self.stacks, key=lambda s: (-measure(s), s.frames, s.stage)
        )
        if limit is not None:
            ranked = ranked[: max(0, limit)]
        for stack in ranked:
            count = measure(stack)
            if count <= 0:
                continue
            frames = list(stack.frames)
            if stack.stage != IDLE_LABEL:
                frames.append(f"stage:{stack.stage}")
            lines.append(";".join(frames) + f" {count}")
        return lines

    def collapsed(
        self, weight: str = "samples", limit: int | None = None
    ) -> str:
        return "\n".join(self.collapsed_lines(weight, limit))

    def stage_table(self) -> list[StageRow]:
        """Per-stage self-time rows; shares sum to 100% of request time.

        Rows cover every activity label seen in-request (stages plus
        ``"(other)"``), ordered by wall time descending, followed by
        one ``"(idle)"`` row (``share_pct=None``) when idle samples
        exist.  Shares are fractions of total sampled request wall
        time, so they sum to exactly 100 whenever any request sample
        was taken.
        """
        acc: dict[str, list[float]] = {}
        for stack in self.stacks:
            record = acc.setdefault(stack.stage, [0.0, 0.0, 0.0])
            record[0] += stack.samples
            record[1] += stack.wall_s
            record[2] += stack.cpu_s
        idle = acc.pop(IDLE_LABEL, None)
        request_wall = sum(record[1] for record in acc.values())
        rows = [
            StageRow(
                stage=stage,
                samples=int(record[0]),
                wall_s=record[1],
                cpu_s=record[2],
                share_pct=(
                    100.0 * record[1] / request_wall
                    if request_wall > 0
                    else 0.0
                ),
            )
            for stage, record in acc.items()
        ]
        rows.sort(key=lambda r: (-r.wall_s, r.stage))
        if idle is not None:
            rows.append(
                StageRow(
                    stage=IDLE_LABEL,
                    samples=int(idle[0]),
                    wall_s=idle[1],
                    cpu_s=idle[2],
                    share_pct=None,
                )
            )
        return rows

    def to_dict(self) -> dict:
        """JSON form (the ``profile`` op's ``stages`` body)."""
        rows = self.stage_table()
        return {
            "interval_s": self.interval_s,
            "duration_s": self.duration_s,
            "samples": self.samples,
            "request_samples": self.request_samples,
            "rows": [
                {
                    "stage": row.stage,
                    "samples": row.samples,
                    "wall_s": row.wall_s,
                    "cpu_s": row.cpu_s,
                    "share_pct": row.share_pct,
                }
                for row in rows
            ],
            "stacks": [
                {
                    "frames": list(stack.frames),
                    "stage": stack.stage,
                    "samples": stack.samples,
                    "wall_s": stack.wall_s,
                    "cpu_s": stack.cpu_s,
                }
                for stack in self.stacks
            ],
            "traces": [
                {
                    "trace_id": row.trace_id,
                    "samples": row.samples,
                    "wall_s": row.wall_s,
                }
                for row in self.traces
            ],
        }


def report_from_dict(payload: Mapping) -> ProfileReport:
    """Rebuild a :class:`ProfileReport` from :meth:`~ProfileReport.
    to_dict` output (the CLI side of the ``profile`` op)."""
    return ProfileReport(
        interval_s=float(payload["interval_s"]),
        duration_s=float(payload["duration_s"]),
        samples=int(payload["samples"]),
        stacks=tuple(
            CollapsedStack(
                frames=tuple(stack["frames"]),
                stage=str(stack["stage"]),
                samples=int(stack["samples"]),
                wall_s=float(stack["wall_s"]),
                cpu_s=float(stack["cpu_s"]),
            )
            for stack in payload.get("stacks", [])
        ),
        traces=tuple(
            TraceRow(
                trace_id=str(row["trace_id"]),
                samples=int(row["samples"]),
                wall_s=float(row["wall_s"]),
            )
            for row in payload.get("traces", [])
        ),
    )


def render_stage_table(rows: Iterable[StageRow]) -> list[str]:
    """Fixed-width text rendering of a stage self-time table."""
    lines = ["stage            samples   wall ms    cpu ms   share"]
    for row in rows:
        share = (
            f"{row.share_pct:5.1f}%"
            if row.share_pct is not None
            else "     -"
        )
        lines.append(
            f"  {row.stage:<14} {row.samples:7d}  "
            f"{row.wall_s * 1000.0:8.1f}  {row.cpu_s * 1000.0:8.1f}  "
            f"{share}"
        )
    return lines
