"""Distributed trace context and nestable spans over the TS pipeline.

A :class:`Tracer` mints :class:`Span`\\ s carrying a full trace context
— ``trace_id`` (one per causal request tree), ``span_id`` (one per
span), and ``parent_id`` (the causal edge) — and propagates the active
span through a :class:`contextvars.ContextVar`, so parent/child links
survive ``await`` points and task hops: a span opened inside an asyncio
task parents under whatever span was active when the task was created.
Remote parents cross process/wire boundaries as a compact
:class:`TraceContext` (``"<trace_id>-<span_id>"`` on the wire), letting
the serving frontend reconstruct one causal tree per TCP request from
any JSONL sink by ``trace_id`` alone.

Spans are timed with :func:`time.perf_counter` (monotonic,
sub-microsecond), never the wall clock, so durations are immune to
clock adjustments.  Finished spans are emitted to the tracer's sinks as
plain dicts (the JSONL sink writes them verbatim); nothing is retained
on the tracer itself, keeping long simulations O(1) in memory unless a
ring buffer sink is attached.

Head sampling: :meth:`Tracer.sample` rolls the tracer's seeded RNG
against ``sample_rate`` — trace *minting* points (the serve client)
call it once per request and simply omit the wire context for unsampled
requests, so every downstream component stays zero-cost for them.

No-sink fast path: with no sink attached a finished span record is
undeliverable, so hot paths may skip span construction entirely and
keep only the trace *identity* flowing — :meth:`Tracer.activate` makes
a wire :class:`TraceContext` the task's active trace without opening a
span, which is all that exemplar recording, decision events, and the
serving introspection ring need.  Attaching a sink restores full span
recording at the next operation; nothing is renegotiated.
"""

from __future__ import annotations

import itertools
import random
import re
import time
from contextvars import ContextVar, Token
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

_TRACER_IDS = itertools.count()

_WIRE_RE = re.compile(r"^[0-9a-f]{16}-[0-9a-f]{16}$")

_HEX16 = frozenset("0123456789abcdef")


@dataclass(frozen=True)
class TraceContext:
    """The propagated identity of one causal position in a trace.

    ``trace_id`` names the whole tree; ``span_id`` names the node new
    children should parent under.  The wire form is the 33-character
    ``"<trace_id>-<span_id>"`` (16 lowercase hex chars each).
    """

    trace_id: str
    span_id: str

    def to_wire(self) -> str:
        return f"{self.trace_id}-{self.span_id}"

    @classmethod
    def from_wire(cls, text: str) -> "TraceContext":
        """Parse a wire context; raises ``ValueError`` on any damage."""
        # Hot path (one call per traced frame): a length/charset check
        # beats the regex by ~1us; _WIRE_RE stays the format's spec.
        if len(text) != 33 or text[16] != "-":
            raise ValueError(
                f"malformed trace context {text!r}; expected "
                "'<16 hex>-<16 hex>'"
            )
        trace_id = text[:16]
        span_id = text[17:]
        if not (
            _HEX16.issuperset(trace_id) and _HEX16.issuperset(span_id)
        ):
            raise ValueError(
                f"malformed trace context {text!r}; expected "
                "'<16 hex>-<16 hex>'"
            )
        return cls(trace_id=trace_id, span_id=span_id)


@dataclass(frozen=True)
class SpanRecord:
    """One finished span, as handed to the sinks."""

    name: str
    start: float
    end: float
    depth: int
    parent: str | None
    attributes: Mapping[str, object] = field(default_factory=dict)
    trace_id: str | None = None
    span_id: str | None = None
    parent_id: str | None = None

    @property
    def duration(self) -> float:
        """Seconds between enter and exit."""
        return self.end - self.start

    @property
    def duration_ms(self) -> float:
        return (self.end - self.start) * 1000.0

    def to_dict(self) -> dict:
        return {
            "type": "span",
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration_ms": self.duration_ms,
            "depth": self.depth,
            "parent": self.parent,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SpanRecord":
        return cls(
            name=str(data["name"]),
            start=float(data["start"]),
            end=float(data["end"]),
            depth=int(data["depth"]),
            parent=data.get("parent"),
            attributes=dict(data.get("attributes", {})),
            trace_id=data.get("trace_id"),
            span_id=data.get("span_id"),
            parent_id=data.get("parent_id"),
        )


class Span:
    """An open span; use via :meth:`Tracer.span` (context manager) or
    :meth:`Tracer.start_span` (detached — finish with :meth:`end`)."""

    __slots__ = (
        "tracer", "name", "attributes", "depth", "parent", "start",
        "end_time", "trace_id", "span_id", "parent_id", "remote",
        "_token", "_record",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attributes: dict,
        depth: int,
        parent: str | None,
        start: float,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        remote: bool,
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.attributes = attributes
        self.depth = depth
        self.parent = parent
        self.start = start
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        #: True when this span descends from a wire-propagated
        #: :class:`TraceContext` — the cross-boundary traces the serving
        #: stack reconstructs (local-only spans stay ``False``).
        self.remote = remote
        self._token: "Token | None" = None
        #: perf_counter exit time, set on end (None while open).
        self.end_time: float | None = None
        self._record: SpanRecord | None = None

    @property
    def context(self) -> TraceContext:
        """This span's propagable identity (for wire/child linking)."""
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)

    @property
    def record(self) -> SpanRecord | None:
        """The finished :class:`SpanRecord` (None while the span is
        open).  Built lazily — the hot path never allocates it."""
        if self._record is None and self.end_time is not None:
            self._record = SpanRecord(
                name=self.name,
                start=self.start,
                end=self.end_time,
                depth=self.depth,
                parent=self.parent,
                attributes=self.attributes,
                trace_id=self.trace_id,
                span_id=self.span_id,
                parent_id=self.parent_id,
            )
        return self._record

    def annotate(self, **attributes: object) -> "Span":
        """Attach attributes to the span (e.g. the decision taken)."""
        self.attributes.update(attributes)
        return self

    def end(self) -> "Span":
        """Finish the span (idempotent); the record flows to the sinks."""
        if self.end_time is None:
            self.tracer._end(self)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        self.end()


class Tracer:
    """Factory of context-linked spans; finished spans flow to sinks.

    ``sample_rate`` drives head sampling at trace mint points (see
    module doc); ``seed`` makes span/trace ids reproducible;
    ``common_attributes`` (e.g. ``{"worker": "w0", "shard": "2"}``)
    are stamped onto every emitted record — the slot the sharded
    serving arc fills without any schema change.
    """

    def __init__(
        self,
        sinks: Iterable = (),
        clock: Callable[[], float] = time.perf_counter,
        sample_rate: float = 1.0,
        seed: int | None = None,
        common_attributes: Mapping[str, object] | None = None,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must be in [0, 1], got {sample_rate}"
            )
        self.sinks = tuple(sinks)
        self.clock = clock
        self.sample_rate = sample_rate
        self.common_attributes = dict(common_attributes or {})
        self._rng = random.Random(seed)
        # Holds the active Span, or a bare TraceContext when a wire
        # trace was activated identity-only (the no-sink fast path).
        self._current: "ContextVar[Span | TraceContext | None]" = (
            ContextVar(
                f"repro.obs.span.{next(_TRACER_IDS)}", default=None
            )
        )
        #: Total spans finished over the tracer's lifetime.
        self.finished = 0

    # -- context -------------------------------------------------------

    def current(self) -> Span | None:
        """The span active in the calling task's context, if any.

        Identity-only activations (:meth:`activate`) are not spans and
        return ``None`` here; read them via :meth:`active_trace`.
        """
        span = self._current.get()
        return span if isinstance(span, Span) else None

    def active_trace(self) -> TraceContext | None:
        """The wire-propagated trace this task is inside, if any.

        ``None`` both when no span is open and when the open span is a
        purely local one — exemplar recording keys off this, so local
        simulation spans never pay for trace bookkeeping.
        """
        span = self._current.get()
        if span is None:
            return None
        if isinstance(span, TraceContext):
            return span
        if not span.remote:
            return None
        return TraceContext(trace_id=span.trace_id, span_id=span.span_id)

    def active_trace_id(self) -> str | None:
        """Just the active wire trace's id (exemplar hot path).

        Same nullability as :meth:`active_trace`, without constructing
        a :class:`TraceContext` per call.
        """
        span = self._current.get()
        if span is None:
            return None
        if isinstance(span, TraceContext):
            return span.trace_id
        return span.trace_id if span.remote else None

    @property
    def depth(self) -> int:
        """Number of open spans on the calling task's context chain."""
        span = self._current.get()
        if not isinstance(span, Span):
            return 0
        return span.depth + 1

    def activate(self, context: TraceContext) -> "Token":
        """Make a wire context the task's active trace with no span.

        The no-sink serving fast path: span records could never be
        delivered, but :meth:`active_trace` consumers — histogram
        exemplars, ``ts.decision`` events, the introspection ring —
        still see the propagated identity.  Spans opened while the
        activation is current graft under it exactly as under a
        ``parent=context`` argument.  Balance with :meth:`deactivate`.
        """
        return self._current.set(context)

    def deactivate(self, token: "Token") -> None:
        """Undo one :meth:`activate` (restores the prior context)."""
        self._current.reset(token)

    def sample(self) -> bool:
        """Head-sampling roll for a new trace (True = record it)."""
        if self.sample_rate >= 1.0:
            return True
        if self.sample_rate <= 0.0:
            return False
        return self._rng.random() < self.sample_rate

    def new_id(self) -> str:
        """A fresh 16-hex-char span/trace id."""
        return f"{self._rng.getrandbits(64):016x}"

    def new_wire(self) -> str:
        """A fresh wire context (``"<trace_id>-<span_id>"``) in one
        RNG roll — the no-sink mint fast path."""
        bits = self._rng.getrandbits(128)
        return f"{bits >> 64:016x}-{bits & 0xFFFFFFFFFFFFFFFF:016x}"

    # -- span lifecycle ------------------------------------------------

    def span(
        self,
        name: str,
        parent: TraceContext | None = None,
        **attributes: object,
    ) -> Span:
        """Open a span and make it current; close via ``with`` or
        :meth:`Span.end`.  ``parent`` grafts it under a remote
        (wire-propagated) context instead of the task-local one."""
        span = self._make(name, parent, attributes)
        span._token = self._current.set(span)
        return span

    def start_span(
        self,
        name: str,
        parent: TraceContext | None = None,
        **attributes: object,
    ) -> Span:
        """Open a *detached* span: linked into the tree but never made
        current, so it can outlive the calling task (e.g. a queue-wait
        span ended by the dispatcher).  Finish with :meth:`Span.end`."""
        return self._make(name, parent, attributes)

    def _make(
        self,
        name: str,
        parent: TraceContext | None,
        attributes: dict,
    ) -> Span:
        current = self._current.get()
        if parent is None and isinstance(current, TraceContext):
            # An identity-only activation parents exactly like an
            # explicit remote graft.
            parent = current
        if parent is not None:
            trace_id = parent.trace_id
            parent_id: str | None = parent.span_id
            parent_name = None
            depth = 0
            remote = True
        elif isinstance(current, Span):
            trace_id = current.trace_id
            parent_id = current.span_id
            parent_name = current.name
            depth = current.depth + 1
            remote = current.remote
        else:
            trace_id = self.new_id()
            parent_id = None
            parent_name = None
            depth = 0
            remote = False
        return Span(
            tracer=self,
            name=name,
            attributes=attributes,
            depth=depth,
            parent=parent_name,
            start=self.clock(),
            trace_id=trace_id,
            span_id=self.new_id(),
            parent_id=parent_id,
            remote=remote,
        )

    def emit_span(
        self,
        name: str,
        start: float,
        end: float,
        parent: "Span | TraceContext",
        **attributes: object,
    ) -> None:
        """Emit one already-timed *leaf* span without the full
        :class:`Span` machinery (no object, no contextvar churn).

        The serving hot path uses this for spans that never parent
        other spans — admission, queue wait, engine stages — where the
        caller already holds the start/end clocks.  ``parent`` is
        either the enclosing :class:`Span` (local nesting) or a wire
        :class:`TraceContext` (remote graft).  With no sinks attached
        this is nearly free.
        """
        self.finished += 1
        if not self.sinks:
            return
        if isinstance(parent, Span):
            trace_id = parent.trace_id
            parent_id = parent.span_id
            parent_name: str | None = parent.name
            depth = parent.depth + 1
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
            parent_name = None
            depth = 0
        if self.common_attributes:
            attributes = {**self.common_attributes, **attributes}
        event = {
            "type": "span",
            "name": name,
            "start": start,
            "end": end,
            "duration_ms": (end - start) * 1000.0,
            "depth": depth,
            "parent": parent_name,
            "trace_id": trace_id,
            "span_id": self.new_id(),
            "parent_id": parent_id,
            "attributes": attributes,
        }
        for sink in self.sinks:
            sink.emit(event)

    def _end(self, span: Span) -> None:
        end = self.clock()
        if span._token is not None:
            # Restores the context to whatever preceded this span, so a
            # child whose __exit__ was skipped by an exception cannot
            # wedge the chain.
            self._current.reset(span._token)
            span._token = None
        if self.common_attributes:
            span.attributes = {
                **self.common_attributes, **span.attributes
            }
        span.end_time = end
        self.finished += 1
        if self.sinks:
            # Emit the event dict directly — the frozen SpanRecord is
            # only materialized if someone reads ``span.record``.
            event = {
                "type": "span",
                "name": span.name,
                "start": span.start,
                "end": end,
                "duration_ms": (end - span.start) * 1000.0,
                "depth": span.depth,
                "parent": span.parent,
                "trace_id": span.trace_id,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "attributes": dict(span.attributes),
            }
            for sink in self.sinks:
                sink.emit(event)
