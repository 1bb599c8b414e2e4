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
  ``op`` values raise ``unknown_op``.

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


class Frame:
    """Base class of all wire frames; ``op`` is set by :func:`_frame`."""

    op: ClassVar[str] = ""


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


_F = TypeVar("_F", bound=type)

#: op -> frame class, one registry per direction.
REQUEST_TYPES: dict[str, type] = {}
REPLY_TYPES: dict[str, type] = {}


def _frame(op: str, registry: dict[str, type]) -> Callable[[_F], _F]:
    def register(cls: _F) -> _F:
        cls.op = op  # type: ignore[attr-defined]
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


def encode_frame(frame: Frame, max_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Serialize one frame to its wire line (JSON + newline)."""
    payload: dict[str, object] = {"op": frame.op}
    payload.update(dataclasses.asdict(frame))  # type: ignore[call-overload]
    data = json.dumps(
        payload, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")
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
        payload = json.loads(line, parse_constant=_reject_constant)
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
    cls = registry.get(op)
    if cls is None:
        raise ProtocolError("unknown_op", f"unknown op {op!r}")
    kwargs: dict[str, object] = {}
    for field in dataclasses.fields(cls):
        if field.name in payload:
            validate = _VALIDATORS[str(field.type)]
            kwargs[field.name] = validate(
                payload.pop(field.name), field.name
            )
        elif field.default is dataclasses.MISSING:
            raise ProtocolError(
                "bad_field",
                f"op {op!r} is missing required field {field.name!r}",
            )
    if payload:
        unknown = ", ".join(sorted(payload))
        raise ProtocolError(
            "bad_field", f"op {op!r} got unknown fields: {unknown}"
        )
    return cls(**kwargs)


def decode_request(
    line: bytes, max_bytes: int = MAX_FRAME_BYTES
) -> Frame:
    """Decode one client→server line; raises :class:`ProtocolError`."""
    return _decode(line, REQUEST_TYPES, max_bytes)


def decode_reply(line: bytes, max_bytes: int = MAX_FRAME_BYTES) -> Frame:
    """Decode one server→client line; raises :class:`ProtocolError`."""
    return _decode(line, REPLY_TYPES, max_bytes)


# ---------------------------------------------------------------------
# fast codec (in-process firehose)
# ---------------------------------------------------------------------
#
# ``encode_frame``/``_decode`` pay for their strictness:
# ``dataclasses.asdict`` deep-copies every frame and the decoder walks
# ``dataclasses.fields`` with a per-field validator — together ~90 µs
# per frame round trip, several times the engine's own per-request
# cost.  The in-process firehose (``ShardRouter.serve_line(s)``, which
# benchmark E18 drives) takes NDJSON lines straight into the shard
# sequencers, so it uses the hand-rolled fast path below for the five
# hot frame types and falls back to the strict codec for everything
# else (control ops, and any input the fast decoder cannot take at
# face value — the fallback also re-raises the proper
# :class:`ProtocolError`).  Every socket hop — client ↔ daemon and
# supervisor ↔ worker alike — keeps the strict codec.


#: Memoized ``json.dumps`` for short string fields (services,
#: pseudonyms, decisions, LBQID names draw from small vocabularies, so
#: the quoting/escaping work is the same few strings over and over).
_JSTR_CACHE: dict[str, str] = {}


def _jstr(value: str) -> str:
    quoted = _JSTR_CACHE.get(value)
    if quoted is None:
        if len(_JSTR_CACHE) > 4096:
            _JSTR_CACHE.clear()
        quoted = _JSTR_CACHE[value] = json.dumps(value)
    return quoted


def _fast_encode_update(f: LocationUpdate) -> str:
    head = (
        f'{{"op":"update","id":{f.id},"user_id":{f.user_id},'
        f'"x":{f.x!r},"y":{f.y!r},"t":{f.t!r}'
    )
    if f.trace is not None:
        head += f',"trace":"{f.trace}"'
    if f.seq is not None:
        head += f',"seq":{f.seq}'
    return head + "}"


def _fast_encode_request(f: ServiceRequest) -> str:
    head = (
        f'{{"op":"request","id":{f.id},"user_id":{f.user_id},'
        f'"x":{f.x!r},"y":{f.y!r},"t":{f.t!r},'
        f'"service":{_jstr(f.service)}'
    )
    if f.trace is not None:
        head += f',"trace":"{f.trace}"'
    if f.seq is not None:
        head += f',"seq":{f.seq}'
    return head + "}"


def _fast_encode_ack(f: UpdateAck) -> str:
    if f.trace is None:
        return f'{{"op":"ack","id":{f.id}}}'
    return f'{{"op":"ack","id":{f.id},"trace":"{f.trace}"}}'


def _fast_encode_decision(f: DecisionReply) -> str:
    context = (
        "null" if f.context is None
        else "[" + ",".join(repr(v) for v in f.context) + "]"
    )
    return (
        f'{{"op":"decision","id":{f.id},"msgid":{f.msgid},'
        f'"pseudonym":{_jstr(f.pseudonym)},'
        f'"decision":{_jstr(f.decision)},'
        f'"forwarded":{"true" if f.forwarded else "false"},'
        f'"context":{context},'
        f'"lbqid":{"null" if f.lbqid is None else _jstr(f.lbqid)},'
        f'"step":{"null" if f.step is None else f.step},'
        f'"required_k":'
        f'{"null" if f.required_k is None else f.required_k},'
        f'"rotated":{"true" if f.rotated else "false"},'
        f'"trace":{"null" if f.trace is None else _jstr(f.trace)}}}'
    )


def _fast_encode_error(f: ErrorReply) -> str:
    return (
        f'{{"op":"error","id":{"null" if f.id is None else f.id},'
        f'"code":{json.dumps(f.code)},'
        f'"message":{json.dumps(f.message)},'
        f'"retry_after":'
        f'{"null" if f.retry_after is None else repr(f.retry_after)},'
        f'"trace":{json.dumps(f.trace)}}}'
    )


_FAST_ENCODERS: dict[type, Callable[[Frame], str]] = {
    LocationUpdate: _fast_encode_update,  # type: ignore[dict-item]
    ServiceRequest: _fast_encode_request,  # type: ignore[dict-item]
    UpdateAck: _fast_encode_ack,  # type: ignore[dict-item]
    DecisionReply: _fast_encode_decision,  # type: ignore[dict-item]
    ErrorReply: _fast_encode_error,  # type: ignore[dict-item]
}


def encode_frame_fast(
    frame: Frame, max_bytes: int = MAX_FRAME_BYTES
) -> bytes:
    """:func:`encode_frame` without the ``asdict`` deep copy.

    Identical wire bytes modulo JSON field order (the strict decoder
    accepts either); only for frames produced by this process — the
    hand-rolled serializers assume finite numbers, which everything in
    the engine guarantees by construction.
    """
    encoder = _FAST_ENCODERS.get(type(frame))
    if encoder is None:
        return encode_frame(frame, max_bytes)
    data = encoder(frame).encode("utf-8")
    if len(data) + 1 > max_bytes:
        raise ProtocolError(
            "frame_too_large",
            f"frame of {len(data) + 1} bytes exceeds the "
            f"{max_bytes}-byte limit",
        )
    return data + b"\n"


#: Canonical prefixes emitted by the fast encoders above — the
#: positional decoder recognizes exactly these shapes.
_CANON_UPDATE = b'{"op":"update","id":'
_CANON_REQUEST = b'{"op":"request","id":'


def _decode_positional(line: bytes) -> "Frame | None":
    """Positionally parse a line the fast *encoders* produced.

    The router→worker hop re-encodes every hot frame with
    :func:`_fast_encode_update` / :func:`_fast_encode_request`, whose
    field order and spelling are fixed — so the common case (no trace,
    no seq, escape-free service name) parses with byte splits instead
    of a JSON scanner.  Returns ``None`` for anything else (optional
    fields present, unexpected shape, non-canonical spelling); callers
    fall through to the JSON path, so this is purely an accelerator
    and never changes what decodes successfully.
    """
    try:
        if line.startswith(_CANON_UPDATE):
            parts = line[20 : line.rindex(b"}")].split(b',"')
            if len(parts) != 5:
                return None
            frame = object.__new__(LocationUpdate)
            object.__setattr__(
                frame,
                "__dict__",
                {
                    "id": int(parts[0]),
                    "user_id": int(parts[1][9:]),
                    "x": float(parts[2][3:]),
                    "y": float(parts[3][3:]),
                    "t": float(parts[4][3:]),
                    "trace": None,
                    "seq": None,
                },
            )
            return frame
        if line.startswith(_CANON_REQUEST):
            parts = line[21 : line.rindex(b"}")].split(b',"')
            if len(parts) != 6 or not parts[5].startswith(
                b'service":"'
            ):
                return None
            service = parts[5][10:]
            if (
                not service.endswith(b'"')
                or b'"' in service[:-1]
                or b"\\" in service
            ):
                return None
            frame = object.__new__(ServiceRequest)
            object.__setattr__(
                frame,
                "__dict__",
                {
                    "id": int(parts[0]),
                    "user_id": int(parts[1][9:]),
                    "x": float(parts[2][3:]),
                    "y": float(parts[3][3:]),
                    "t": float(parts[4][3:]),
                    "service": service[:-1].decode("utf-8"),
                    "trace": None,
                    "seq": None,
                },
            )
            return frame
    except ValueError:
        return None
    return None


def _decode_fast(
    line: bytes, registry: Mapping[str, type], max_bytes: int
) -> Frame:
    if len(line) > max_bytes:
        raise ProtocolError(
            "frame_too_large",
            f"frame of {len(line)} bytes exceeds the "
            f"{max_bytes}-byte limit",
        )
    if registry is REQUEST_TYPES and type(line) is bytes:
        frame = _decode_positional(line)
        if frame is not None:
            return frame
    try:
        # bytes input would route json.loads through its pure-python
        # encoding sniffer; one C-level decode avoids that per frame.
        payload = json.loads(
            line.decode("utf-8")
            if isinstance(line, (bytes, bytearray))
            else line
        )
        op = payload["op"] if registry is REQUEST_TYPES else None
        # The hot frames are built by installing a complete ``__dict__``
        # on a bare instance — a frozen dataclass without slots stores
        # its fields there, and one ``object.__setattr__`` of the whole
        # dict skips the per-field frozen-``__setattr__`` dance of the
        # generated ``__init__`` (frames carry no ``__post_init__``
        # validation to lose; plain ``frame.__dict__ = ...`` would
        # itself trip the frozen guard).
        if op == "update":
            frame = object.__new__(LocationUpdate)
            object.__setattr__(
                frame,
                "__dict__",
                {
                    "id": payload["id"],
                    "user_id": payload["user_id"],
                    "x": payload["x"],
                    "y": payload["y"],
                    "t": payload["t"],
                    "trace": payload.get("trace"),
                    "seq": payload.get("seq"),
                },
            )
            return frame
        if op == "request":
            frame = object.__new__(ServiceRequest)
            object.__setattr__(
                frame,
                "__dict__",
                {
                    "id": payload["id"],
                    "user_id": payload["user_id"],
                    "x": payload["x"],
                    "y": payload["y"],
                    "t": payload["t"],
                    "service": payload.get("service", "default"),
                    "trace": payload.get("trace"),
                    "seq": payload.get("seq"),
                },
            )
            return frame
        op = payload["op"] if registry is REPLY_TYPES else None
        if op == "decision":
            context = payload.get("context")
            return DecisionReply(
                id=payload["id"],
                msgid=payload["msgid"],
                pseudonym=payload["pseudonym"],
                decision=payload["decision"],
                forwarded=payload["forwarded"],
                context=None if context is None else tuple(context),
                lbqid=payload.get("lbqid"),
                step=payload.get("step"),
                required_k=payload.get("required_k"),
                rotated=payload.get("rotated", False),
                trace=payload.get("trace"),
            )
        if op == "ack":
            return UpdateAck(
                id=payload["id"], trace=payload.get("trace")
            )
    except ProtocolError:
        raise
    except Exception:
        pass  # malformed or surprising: strict path for the real error
    return _decode(line, registry, max_bytes)


def decode_request_fast(
    line: bytes, max_bytes: int = MAX_FRAME_BYTES
) -> Frame:
    """Fast-path :func:`decode_request` for the in-process firehose.

    Hot frames (``update``/``request``) skip the reflective field walk;
    everything else — including anything malformed — re-enters the
    strict decoder, so error codes and unknown-field rejection are
    unchanged for inputs the fast path does not recognize.  Use only
    where the input is trusted (lines the fast encoder produced).
    """
    return _decode_fast(line, REQUEST_TYPES, max_bytes)


def decode_reply_fast(
    line: bytes, max_bytes: int = MAX_FRAME_BYTES
) -> Frame:
    """Fast-path :func:`decode_reply` for firehose reply lines."""
    return _decode_fast(line, REPLY_TYPES, max_bytes)
