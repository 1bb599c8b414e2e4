"""Property-based tests of the wire codec.

Invariants a long-running daemon lives or dies by:

* **round-trip identity** — every encodable frame decodes back to an
  equal frame (the wire loses nothing);
* **canonical bytes** — :func:`encode_frame` writes exactly what
  ``json.dumps`` of ``op`` plus ``dataclasses.asdict`` would, for
  built and decoded frames alike;
* **total strictness** — whatever bytes arrive (random garbage,
  truncated frames, shape-shifted JSON), the decoder either returns a
  frame or raises :class:`ProtocolError`.  No other exception type may
  escape, because the connection handlers turn exactly that type into
  an error reply and anything else would take the daemon down;
* **answerable rejections** — the error reply to any rejected frame
  under the size cap fits under the cap too, however much client text
  its message echoes.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.serve.protocol import (
    DecisionReply,
    DrainReply,
    DrainRequest,
    ErrorReply,
    Frame,
    MAX_FRAME_BYTES,
    Hello,
    LocationUpdate,
    ProtocolError,
    ServiceRequest,
    StatsReply,
    StatsRequest,
    UpdateAck,
    Welcome,
    decode_reply,
    decode_request,
    encode_frame,
)

ids = st.integers(min_value=0, max_value=2**53)
counts = st.integers(min_value=0, max_value=2**32)
finite = st.floats(allow_nan=False, allow_infinity=False)
texts = st.text(max_size=40)
boxes = st.tuples(finite, finite, finite, finite, finite, finite)

request_frames = st.one_of(
    st.builds(Hello, version=st.integers(0, 1000), client=texts),
    st.builds(
        LocationUpdate, id=ids, user_id=ids, x=finite, y=finite, t=finite
    ),
    st.builds(
        ServiceRequest,
        id=ids,
        user_id=ids,
        x=finite,
        y=finite,
        t=finite,
        service=texts,
    ),
    st.builds(StatsRequest, id=ids),
    st.builds(DrainRequest, id=ids),
)

reply_frames = st.one_of(
    st.builds(
        Welcome,
        version=st.integers(0, 1000),
        server=texts,
        session=texts,
        max_inflight=counts,
        max_queue_depth=counts,
    ),
    st.builds(UpdateAck, id=ids),
    st.builds(
        DecisionReply,
        id=ids,
        msgid=ids,
        pseudonym=texts,
        decision=texts,
        forwarded=st.booleans(),
        context=st.none() | boxes,
        lbqid=st.none() | texts,
        step=st.none() | counts,
        required_k=st.none() | counts,
        rotated=st.booleans(),
    ),
    st.builds(
        ErrorReply,
        id=st.none() | ids,
        code=texts,
        message=texts,
        retry_after=st.none()
        | st.floats(
            min_value=0.0, allow_nan=False, allow_infinity=False
        ),
    ),
    st.builds(
        StatsReply,
        id=ids,
        accepted=counts,
        served=counts,
        shed=counts,
        rejected=counts,
        protocol_errors=counts,
        queue_depth=counts,
        sessions=counts,
    ),
    st.builds(
        DrainReply,
        id=ids,
        served=counts,
        shed=counts,
        rejected=counts,
        pending=counts,
    ),
)


@given(request_frames)
def test_request_round_trip_identity(frame: Frame):
    assert decode_request(encode_frame(frame)) == frame


@given(reply_frames)
def test_reply_round_trip_identity(frame: Frame):
    assert decode_reply(encode_frame(frame)) == frame


def reference_encoding(frame: Frame) -> bytes:
    payload = {"op": frame.op, **dataclasses.asdict(frame)}
    return (
        json.dumps(payload, separators=(",", ":"), allow_nan=False).encode()
        + b"\n"
    )


@given(request_frames)
def test_request_encoding_is_canonical(frame: Frame):
    line = encode_frame(frame)
    assert line == reference_encoding(frame)
    assert encode_frame(decode_request(line)) == line


@given(reply_frames)
def test_reply_encoding_is_canonical(frame: Frame):
    line = encode_frame(frame)
    assert line == reference_encoding(frame)
    assert encode_frame(decode_reply(line)) == line


@given(request_frames | reply_frames, st.data())
def test_truncated_frames_raise_protocol_error(frame: Frame, data):
    """Any cut into the JSON body must fail loudly, never misparse."""
    line = encode_frame(frame)
    # Cutting only the trailing newline still leaves a complete JSON
    # document, so truncate strictly inside the body.
    cut = data.draw(st.integers(min_value=0, max_value=len(line) - 2))
    with pytest.raises(ProtocolError):
        decode_request(line[:cut])
    with pytest.raises(ProtocolError):
        decode_reply(line[:cut])


@settings(max_examples=300)
@given(st.binary(max_size=200))
def test_garbage_bytes_never_escape_protocol_error(blob: bytes):
    for decode in (decode_request, decode_reply):
        try:
            result = decode(blob + b"\n")
        except ProtocolError:
            continue
        assert isinstance(result, Frame)


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | finite
    | texts,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(texts, children, max_size=4),
    max_leaves=10,
)


@settings(max_examples=300)
@given(
    st.dictionaries(texts, json_values, max_size=6),
    st.none() | st.sampled_from(["hello", "update", "request", "stats"]),
)
def test_shapeshifted_json_never_escapes_protocol_error(payload, op):
    """Valid JSON with arbitrary shape: decode or ProtocolError."""
    if op is not None:
        payload = {**payload, "op": op}
    line = json.dumps(payload).encode("utf-8") + b"\n"
    try:
        result = decode_request(line)
    except ProtocolError:
        return
    assert isinstance(result, Frame)


#: 40 kB of UTF-8 that ``json`` escapes to 120 kB: echoed whole, it
#: would push an error reply over the 64 KiB cap.
LONG_OP = json.dumps({"op": "\u00e9" * 20000}, ensure_ascii=False)
MANY_UNKNOWN_FIELDS = json.dumps(
    {"op": "stats", "id": 1, **{f"\u00e9{i}": 0 for i in range(4000)}},
    ensure_ascii=False,
)
ops = st.sampled_from(["hello", "update", "request", "stats", "error"])


@settings(max_examples=300)
@example(line=LONG_OP.encode() + b"\n")
@example(line=MANY_UNKNOWN_FIELDS.encode() + b"\n")
@given(
    line=st.binary(max_size=200)
    | st.builds(
        lambda payload, op: json.dumps(
            {**payload, "op": op}, ensure_ascii=False
        ).encode()
        + b"\n",
        st.dictionaries(st.text(max_size=300), json_values, max_size=6),
        ops | st.text(max_size=600),
    )
)
def test_rejection_reply_fits_the_frame_cap(line: bytes):
    """A rejected frame under the cap always earns a sendable reply."""
    assert len(line) <= MAX_FRAME_BYTES
    for decode in (decode_request, decode_reply):
        try:
            decode(line)
        except ProtocolError as exc:
            reply = ErrorReply(id=None, code=exc.code, message=exc.message)
            assert len(encode_frame(reply)) <= MAX_FRAME_BYTES
