"""The newline-delimited-JSON wire protocol of the serving frontend.

One frame per line: a JSON object carrying an ``op`` discriminator plus
the fields of the matching dataclass below.  The codec is deliberately
strict — this is the trust boundary of a long-running daemon:

* frames longer than ``max_bytes`` raise ``frame_too_large`` *before*
  parsing (and :func:`encode_frame` refuses to produce them);
* non-JSON, non-object, and non-finite-number payloads raise
  ``bad_json`` / ``bad_frame`` (``NaN``/``Infinity`` literals are
  rejected — they would not survive a strict peer);
* missing, mistyped, or *unknown* fields raise ``bad_field``; unknown
  ``op`` values raise ``unknown_op``;
* error messages echo at most :data:`ECHO_CHARS` characters of client
  text, so the reply to a frame under the size cap fits under it too.

Every failure is a :class:`ProtocolError`, never a stray exception —
the connection handler turns it into an :class:`ErrorReply` and keeps
the connection alive (NDJSON re-synchronizes at the next newline), so a
malformed frame can never take the daemon down.

Versioning: the first frame of a connection must be :class:`Hello`
carrying ``version``; the server answers :class:`Welcome` or a
``bad_version`` error.  The codec itself is version-1 and
:data:`PROTOCOL_VERSION` is bumped with any incompatible layout change.

Requests and replies use disjoint registries
(:func:`decode_request` / :func:`decode_reply`), so a confused peer
echoing a reply at the server is a protocol error, not a dispatch bug.

This is the only codec: every hop — client ↔ daemon, supervisor ↔
worker, HTTP bodies, the loopback transport — crosses it.  It stays
fast by doing its reflection once: :func:`_frame` builds each frame
class's field table at registration, the decoder walks that table, and
the encoder serializes the instance ``__dict__`` with a prebuilt JSON
encoder instead of a ``dataclasses.asdict`` deep copy.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Callable, ClassVar, Mapping, TypeVar

#: Bumped on any incompatible change to the frame layout.
PROTOCOL_VERSION = 1

#: Default per-frame size limit (bytes, including the newline).
MAX_FRAME_BYTES = 64 * 1024


class ProtocolError(Exception):
    """A frame violated the wire protocol.

    ``code`` is the machine-readable discriminator that travels back to
    the peer inside an :class:`ErrorReply`.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


#: ``(name, validator, default)`` of one frame field; ``default`` is
#: ``dataclasses.MISSING`` for a required field.
_Field = tuple[str, Callable[[object, str], object], object]


class Frame:
    """Base class of all wire frames.

    :func:`_frame` sets ``op`` and ``_schema``, the decoder's field
    table in declaration order.
    """

    op: ClassVar[str] = ""
    _schema: ClassVar[tuple[_Field, ...]] = ()


_Fr = TypeVar("_Fr", bound=Frame)


def clone_frame(frame: _Fr, **fields: object) -> _Fr:
    """Copy a frozen frame with ``fields`` replaced.

    Equivalent to ``dataclasses.replace(frame, **fields)`` but ~15x
    cheaper — the serving paths stamp ids, seqs, and trace contexts
    once per operation, and ``replace`` re-drives the whole generated
    ``__init__``.
    """
    clone = object.__new__(type(frame))
    clone.__dict__.update(frame.__dict__)
    clone.__dict__.update(fields)
    return clone


# ---------------------------------------------------------------------
# field validators
# ---------------------------------------------------------------------


def _reject_constant(value: str) -> float:
    raise ProtocolError(
        "bad_json", f"non-finite JSON number {value!r} is not allowed"
    )


def _check_int(value: object, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(
            "bad_field", f"field {name!r} must be an integer"
        )
    return value


def _check_float(value: object, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(
            "bad_field", f"field {name!r} must be a number"
        )
    return float(value)


def _check_str(value: object, name: str) -> str:
    if not isinstance(value, str):
        raise ProtocolError(
            "bad_field", f"field {name!r} must be a string"
        )
    return value


def _check_bool(value: object, name: str) -> bool:
    if not isinstance(value, bool):
        raise ProtocolError(
            "bad_field", f"field {name!r} must be a boolean"
        )
    return value


def _check_box(value: object, name: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or len(value) != 6:
        raise ProtocolError(
            "bad_field", f"field {name!r} must be a 6-number box"
        )
    return tuple(_check_float(item, name) for item in value)


def _optional(
    check: Callable[[object, str], object],
) -> Callable[[object, str], object]:
    def checked(value: object, name: str) -> object:
        if value is None:
            return None
        return check(value, name)

    return checked


#: Validator per annotation string (modules use PEP 563 annotations, so
#: ``dataclasses.fields(...)[i].type`` is the literal source text).
_VALIDATORS: dict[str, Callable[[object, str], object]] = {
    "int": _check_int,
    "float": _check_float,
    "str": _check_str,
    "bool": _check_bool,
    "int | None": _optional(_check_int),
    "float | None": _optional(_check_float),
    "str | None": _optional(_check_str),
    "tuple[float, ...] | None": _optional(_check_box),
}


#: Longest prefix of client-supplied text an error message echoes: a
#: frame under the size cap must never earn a reply over it (``json``
#: escapes each non-ASCII character to up to 12 bytes).
ECHO_CHARS = 200


def clip_echo(text: str) -> str:
    """``text`` cut to :data:`ECHO_CHARS` characters for an error echo."""
    if len(text) <= ECHO_CHARS:
        return text
    return text[:ECHO_CHARS] + "..."


_F = TypeVar("_F", bound=type)

#: op -> frame class, one registry per direction.
REQUEST_TYPES: dict[str, type] = {}
REPLY_TYPES: dict[str, type] = {}


def _frame(op: str, registry: dict[str, type]) -> Callable[[_F], _F]:
    """Register a frame dataclass under ``op`` and build its schema.

    The decoder walks ``cls._schema`` instead of reflecting over
    ``dataclasses.fields`` on every frame, and installs the validated
    values as the instance ``__dict__`` — frames are frozen dataclasses
    without slots, ``__post_init__``, or default factories, so that is
    field-for-field what the generated ``__init__`` would store.
    """

    def register(cls: _F) -> _F:
        schema = []
        for field in dataclasses.fields(cls):
            schema.append(
                (field.name, _VALIDATORS[str(field.type)], field.default)
            )
        cls.op = op  # type: ignore[attr-defined]
        cls._schema = tuple(schema)  # type: ignore[attr-defined]
        registry[op] = cls
        return cls

    return register


# ---------------------------------------------------------------------
# client -> server
# ---------------------------------------------------------------------


@_frame("hello", REQUEST_TYPES)
@dataclasses.dataclass(frozen=True)
class Hello(Frame):
    """Connection opener; must be the first frame on the wire.

    ``trace`` asks the server to accept and echo distributed trace
    contexts on this connection; the server's :class:`Welcome` answers
    with the negotiated value (``False`` when its telemetry is off), so
    both peers know whether ``trace`` fields carry meaning.  Old peers
    simply omit the field — the codec default keeps them compatible.

    ``token`` is the bearer credential judged by the transport's
    :class:`~repro.serve.gate.ConnectionGate` before the server ever
    sees the hello; ungated deployments ignore it, and old peers omit
    it.  It rides the hello (not a transport header) so TCP, TLS, and
    HTTP authenticate through the exact same frame.
    """

    version: int = PROTOCOL_VERSION
    client: str = "client"
    trace: bool = False
    token: str | None = None


@_frame("update", REQUEST_TYPES)
@dataclasses.dataclass(frozen=True)
class LocationUpdate(Frame):
    """A location update that is not a service request (Section 6.1).

    ``trace`` is the optional wire trace context
    (``"<trace_id>-<span_id>"``, see
    :class:`repro.obs.tracing.TraceContext`) linking this frame into
    the sender's causal tree; only meaningful after trace negotiation.

    ``seq`` is the shard router's per-shard write-ahead sequence
    number.  The supervisor stamps it on frames it forwards to shard
    workers so a worker restored from its WAL can recognize (and
    answer from its reply cache) an operation it already applied
    before a crash.  Only a worker honours it; every public frontend
    ignores a client-set ``seq`` and allocates its own.
    """

    id: int
    user_id: int
    x: float
    y: float
    t: float
    trace: str | None = None
    seq: int | None = None


@_frame("request", REQUEST_TYPES)
@dataclasses.dataclass(frozen=True)
class ServiceRequest(Frame):
    """A service request at an exact ``⟨x, y, t⟩``.

    ``trace`` — optional wire trace context, and ``seq`` — optional
    router-stamped shard sequence number, both as on
    :class:`LocationUpdate`.
    """

    id: int
    user_id: int
    x: float
    y: float
    t: float
    service: str = "default"
    trace: str | None = None
    seq: int | None = None


@_frame("stats", REQUEST_TYPES)
@dataclasses.dataclass(frozen=True)
class StatsRequest(Frame):
    """Ask the server for its live serving counters."""

    id: int


@_frame("drain", REQUEST_TYPES)
@dataclasses.dataclass(frozen=True)
class DrainRequest(Frame):
    """Ask the server to drain: stop admitting, flush, final audit."""

    id: int


@_frame("metrics", REQUEST_TYPES)
@dataclasses.dataclass(frozen=True)
class MetricsRequest(Frame):
    """Ask for the full metrics registry in an exposition format.

    ``format`` currently accepts only ``"prometheus"`` (text
    exposition); anything else earns a ``bad_field`` error, keeping the
    field free for future formats.
    """

    id: int
    format: str = "prometheus"


@_frame("health", REQUEST_TYPES)
@dataclasses.dataclass(frozen=True)
class HealthRequest(Frame):
    """One-frame liveness/readiness probe."""

    id: int


@_frame("traces", REQUEST_TYPES)
@dataclasses.dataclass(frozen=True)
class TracesRequest(Frame):
    """Ask for the server's ring of recently completed traces.

    ``limit`` caps how many (most recent first); the server clamps it
    to its own buffer size.
    """

    id: int
    limit: int = 20


@_frame("profile", REQUEST_TYPES)
@dataclasses.dataclass(frozen=True)
class ProfileRequest(Frame):
    """Control or inspect the server's sampling profiler.

    ``action`` is one of ``"start"`` (begin a capture at
    ``interval_ms`` between samples), ``"stop"``, ``"status"``,
    ``"collapsed"`` (fetch Brendan-Gregg collapsed stacks, hottest
    first, truncated to ``limit`` stacks and to the frame size
    budget), or ``"stages"`` (the per-stage self-time table as JSON).
    Lifecycle violations (start while running, stop while idle) earn
    an :class:`ErrorReply` with ``code="profiler_state"``.
    """

    id: int
    action: str = "status"
    interval_ms: float = 5.0
    limit: int = 200


# ---------------------------------------------------------------------
# server -> client
# ---------------------------------------------------------------------


@_frame("welcome", REPLY_TYPES)
@dataclasses.dataclass(frozen=True)
class Welcome(Frame):
    """Successful hello: negotiated version plus admission limits."""

    version: int
    server: str
    session: str
    max_inflight: int
    max_queue_depth: int
    trace: bool = False


@_frame("ack", REPLY_TYPES)
@dataclasses.dataclass(frozen=True)
class UpdateAck(Frame):
    """A location update was ingested.

    ``trace`` echoes the request's wire trace context, so the client
    can close its send span against the right tree.
    """

    id: int
    trace: str | None = None


@_frame("decision", REPLY_TYPES)
@dataclasses.dataclass(frozen=True)
class DecisionReply(Frame):
    """The Trusted Server's decision on one service request.

    ``context`` is the forwarded ``(x_min, y_min, x_max, y_max,
    t_start, t_end)`` box (for a suppressed request: the context that
    *would* have been sent).  ``msgid`` is the TS-side message id.
    """

    id: int
    msgid: int
    pseudonym: str
    decision: str
    forwarded: bool
    context: tuple[float, ...] | None = None
    lbqid: str | None = None
    step: int | None = None
    required_k: int | None = None
    rotated: bool = False
    trace: str | None = None


@_frame("error", REPLY_TYPES)
@dataclasses.dataclass(frozen=True)
class ErrorReply(Frame):
    """Anything that is not a successful reply.

    ``id`` echoes the offending request when known (``None`` for
    connection-level framing errors).  ``retry_after`` (seconds) is set
    on load-shedding replies (``code="overloaded"``) — the one error a
    well-behaved client should back off and retry.
    """

    id: int | None
    code: str
    message: str
    retry_after: float | None = None
    trace: str | None = None

    @property
    def is_shed(self) -> bool:
        return self.code == "overloaded"


@_frame("stats_reply", REPLY_TYPES)
@dataclasses.dataclass(frozen=True)
class StatsReply(Frame):
    """Live serving counters (one gauge sample, not a stream)."""

    id: int
    accepted: int
    served: int
    shed: int
    rejected: int
    protocol_errors: int
    queue_depth: int
    sessions: int


@_frame("drained", REPLY_TYPES)
@dataclasses.dataclass(frozen=True)
class DrainReply(Frame):
    """Drain finished: totals at the moment the queue emptied."""

    id: int
    served: int
    shed: int
    rejected: int
    pending: int


@_frame("metrics_reply", REPLY_TYPES)
@dataclasses.dataclass(frozen=True)
class MetricsReply(Frame):
    """The metrics registry rendered in the requested format.

    ``body`` is the complete exposition text (Prometheus text format
    for ``format="prometheus"``) — scrape-ready as-is.
    """

    id: int
    format: str
    body: str


@_frame("health_reply", REPLY_TYPES)
@dataclasses.dataclass(frozen=True)
class HealthReply(Frame):
    """Liveness/readiness snapshot.

    ``status`` is ``"ok"``, ``"draining"``, or ``"degraded"`` (an SLO
    window is currently in breach); ``slo_ok`` is False only when a
    privacy monitor reports an active breach, and ``breaches`` counts
    alerts raised since start.
    """

    id: int
    status: str
    uptime_s: float
    queue_depth: int
    sessions: int
    served: int
    shed: int
    slo_ok: bool
    breaches: int


@_frame("traces_reply", REPLY_TYPES)
@dataclasses.dataclass(frozen=True)
class TracesReply(Frame):
    """Recently completed request traces, most recent first.

    ``body`` is a JSON array of ``{trace_id, op, decision, queue_ms,
    total_ms, shed}`` objects — kept as an opaque string so the frame
    codec stays flat and strict.
    """

    id: int
    body: str


@_frame("profile_reply", REPLY_TYPES)
@dataclasses.dataclass(frozen=True)
class ProfileReply(Frame):
    """Profiler state after a ``profile`` op.

    ``state`` is ``"idle"`` (never started), ``"running"``, or
    ``"stopped"``; ``samples``/``duration_s`` describe the current (or
    final) capture.  ``body`` is empty except for ``collapsed``
    (newline-joined collapsed stacks, hottest first, truncated to the
    frame budget) and ``stages`` (the report's JSON stage table).
    """

    id: int
    state: str
    samples: int
    duration_s: float
    body: str = ""


# ---------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------

#: Built once: ``json.dumps``/``json.loads`` with non-default options
#: construct a fresh encoder/decoder on every call.
_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def encode_frame(frame: Frame, max_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Serialize one frame to its wire line (JSON + newline).

    The payload is ``op`` followed by the fields in declaration order.
    Frame fields are flat scalars and tuples, so the instance
    ``__dict__`` serializes exactly as a ``dataclasses.asdict`` deep
    copy would.
    """
    data = _ENCODER.encode({"op": frame.op, **frame.__dict__}).encode(
        "utf-8"
    )
    if len(data) + 1 > max_bytes:
        raise ProtocolError(
            "frame_too_large",
            f"frame of {len(data) + 1} bytes exceeds the "
            f"{max_bytes}-byte limit",
        )
    return data + b"\n"


def _decode(
    line: bytes, registry: Mapping[str, type], max_bytes: int
) -> Frame:
    if len(line) > max_bytes:
        raise ProtocolError(
            "frame_too_large",
            f"frame of {len(line)} bytes exceeds the "
            f"{max_bytes}-byte limit",
        )
    try:
        # What ``json.loads`` does with bytes, minus its per-call
        # decoder construction.
        text = (
            line.decode(json.detect_encoding(line), "surrogatepass")
            if isinstance(line, (bytes, bytearray))
            else line
        )
        payload = _DECODER.decode(text)
    except ProtocolError:
        raise
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError("bad_json", f"malformed JSON frame: {exc}")
    if not isinstance(payload, dict):
        raise ProtocolError(
            "bad_frame", "frame must be a JSON object"
        )
    op = payload.pop("op", None)
    if not isinstance(op, str):
        raise ProtocolError("bad_frame", "frame is missing its 'op'")
    cls: "type[Frame] | None" = registry.get(op)
    if cls is None:
        raise ProtocolError("unknown_op", f"unknown op {clip_echo(op)!r}")
    values: dict[str, object] = {}
    missing = dataclasses.MISSING
    for name, validate, default in cls._schema:
        value = payload.pop(name, missing)
        if value is not missing:
            values[name] = validate(value, name)
        elif default is missing:
            raise ProtocolError(
                "bad_field",
                f"op {op!r} is missing required field {name!r}",
            )
        else:
            values[name] = default
    if payload:
        unknown = clip_echo(", ".join(sorted(payload)))
        raise ProtocolError(
            "bad_field", f"op {op!r} got unknown fields: {unknown}"
        )
    frame = object.__new__(cls)
    frame.__dict__.update(values)
    return frame


def decode_request(
    line: bytes, max_bytes: int = MAX_FRAME_BYTES
) -> Frame:
    """Decode one client→server line; raises :class:`ProtocolError`."""
    return _decode(line, REQUEST_TYPES, max_bytes)


def decode_reply(line: bytes, max_bytes: int = MAX_FRAME_BYTES) -> Frame:
    """Decode one server→client line; raises :class:`ProtocolError`."""
    return _decode(line, REPLY_TYPES, max_bytes)
