"""TCP transport tests: real sockets, framing damage, handshakes."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.serve.client import ServeClient, ServeClientError
from repro.serve.protocol import (
    DecisionReply,
    ErrorReply,
    Hello,
    StatsReply,
    StatsRequest,
    UpdateAck,
    decode_reply,
    encode_frame,
)
from repro.serve.server import ServeConfig, TrustedServer
from repro.serve.transports import TcpTransport


def first_request(workload):
    return next(i for i in workload.timeline if i.is_request)


def first_update(workload):
    return next(i for i in workload.timeline if not i.is_request)


async def _serving(engine, config=None):
    server = TrustedServer(engine, config)
    transport = TcpTransport(server)
    host, port = await transport.start()
    return server, transport, host, port


def test_tcp_end_to_end(engine, workload):
    async def run():
        server, transport, host, port = await _serving(engine)
        client = await ServeClient.connect(host, port, client="e2e")
        assert client.welcome.session == "s1"
        assert client.welcome.max_inflight == server.config.max_inflight
        update = first_update(workload)
        ack = await client.update(
            update.user_id,
            update.location.x,
            update.location.y,
            update.location.t,
        )
        assert isinstance(ack, UpdateAck)
        request = first_request(workload)
        decision = await client.request(
            request.user_id,
            request.location.x,
            request.location.y,
            request.location.t,
            service=request.service,
        )
        assert isinstance(decision, DecisionReply)
        stats = await client.stats()
        assert stats.served == 2 and stats.sessions == 1
        drained = await client.drain()
        assert drained.pending == 0 and drained.served == 2
        assert client.pending == 0
        await client.close()
        await transport.stop()
        await server.close()

    asyncio.run(run())


def test_hello_must_come_first(engine):
    async def run():
        server, transport, host, port = await _serving(engine)
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(encode_frame(StatsRequest(id=5)))
        await writer.drain()
        reply = decode_reply(await reader.readline())
        assert isinstance(reply, ErrorReply)
        assert reply.code == "hello_required"
        assert reply.id == 5
        # The connection survives: hello now, then get served.
        writer.write(encode_frame(Hello(client="late")))
        writer.write(encode_frame(StatsRequest(id=6)))
        await writer.drain()
        welcome = decode_reply(await reader.readline())
        stats = decode_reply(await reader.readline())
        assert isinstance(stats, StatsReply) and stats.id == 6
        assert welcome.op == "welcome"
        assert server.protocol_errors == 1
        writer.close()
        await transport.stop()
        await server.close()

    asyncio.run(run())


def test_bad_version_handshake_closes(engine):
    async def run():
        server, transport, host, port = await _serving(engine)
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(encode_frame(Hello(version=99)))
        await writer.drain()
        reply = decode_reply(await reader.readline())
        assert isinstance(reply, ErrorReply)
        assert reply.code == "bad_version"
        assert await reader.readline() == b""  # server hung up
        writer.close()
        await transport.stop()
        await server.close()

    asyncio.run(run())


def test_client_connect_raises_on_bad_version(engine, monkeypatch):
    async def run():
        server, transport, host, port = await _serving(engine)
        monkeypatch.setattr(
            "repro.serve.server.PROTOCOL_VERSION", 2
        )
        try:
            await ServeClient.connect(host, port)
            raise AssertionError("handshake should have failed")
        except ServeClientError:
            pass
        await transport.stop()
        await server.close()

    asyncio.run(run())


def test_garbage_line_answers_and_recovers(engine):
    async def run():
        server, transport, host, port = await _serving(engine)
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(encode_frame(Hello()))
        await writer.drain()
        assert decode_reply(await reader.readline()).op == "welcome"
        writer.write(b"this is { not json\n")
        await writer.drain()
        reply = decode_reply(await reader.readline())
        assert isinstance(reply, ErrorReply)
        assert reply.code == "bad_json" and reply.id is None
        # NDJSON resynchronizes at the newline: still in business.
        writer.write(encode_frame(StatsRequest(id=1)))
        await writer.drain()
        stats = decode_reply(await reader.readline())
        assert isinstance(stats, StatsReply)
        assert stats.protocol_errors == 1
        writer.close()
        await transport.stop()
        await server.close()

    asyncio.run(run())


#: 40 kB of UTF-8 under the 64 KiB cap; ``json`` escapes it to 120 kB,
#: so an error message echoing it whole would not fit a reply frame.
LONG_TEXT = "\u00e9" * 20000

#: Frames whose error reply echoes client text, with the reply's code.
LONG_TEXT_FRAMES = {
    "unknown_op": ({"op": LONG_TEXT}, "unknown_op"),
    "unknown_field": ({"op": "stats", "id": 1, LONG_TEXT: 1}, "bad_field"),
    "metrics_format": (
        {"op": "metrics", "id": 1, "format": LONG_TEXT},
        "bad_field",
    ),
    "profile_action": (
        {"op": "profile", "id": 1, "action": LONG_TEXT},
        "bad_field",
    ),
    "trace_context": (
        {
            "op": "update", "id": 1, "user_id": 1,
            "x": 0.0, "y": 0.0, "t": 0.0, "trace": LONG_TEXT,
        },
        "bad_field",
    ),
}


def long_text_line(payload: dict) -> bytes:
    return json.dumps(payload, ensure_ascii=False).encode() + b"\n"


@pytest.mark.parametrize("case", sorted(LONG_TEXT_FRAMES))
def test_long_client_text_is_answered_and_connection_survives(
    telemetry_engine, case
):
    """An error echoing client text fits the frame cap (see protocol)."""
    payload, code = LONG_TEXT_FRAMES[case]

    async def run():
        server, transport, host, port = await _serving(telemetry_engine)
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(encode_frame(Hello(trace=True)))
        await writer.drain()
        assert decode_reply(await reader.readline()).op == "welcome"
        writer.write(long_text_line(payload))
        writer.write(encode_frame(StatsRequest(id=2)))
        await writer.drain()
        reply = decode_reply(await reader.readline())
        assert isinstance(reply, ErrorReply), reply
        assert reply.code == code
        stats = decode_reply(await reader.readline())
        assert isinstance(stats, StatsReply) and stats.id == 2
        writer.close()
        await transport.stop()
        await server.close()

    asyncio.run(run())


def test_oversized_frame_closes_connection(engine):
    async def run():
        config = ServeConfig(max_frame_bytes=512)
        server, transport, host, port = await _serving(engine, config)
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(encode_frame(Hello(), 512))
        await writer.drain()
        assert decode_reply(await reader.readline()).op == "welcome"
        writer.write(b"x" * 2048 + b"\n")
        await writer.drain()
        reply = decode_reply(await reader.readline())
        assert isinstance(reply, ErrorReply)
        assert reply.code == "frame_too_large"
        assert await reader.readline() == b""  # no resync point: closed
        assert server.protocol_errors == 1
        writer.close()
        await transport.stop()
        await server.close()

    asyncio.run(run())


def test_pipelined_requests_one_connection(engine, workload):
    async def run():
        server, transport, host, port = await _serving(engine)
        client = await ServeClient.connect(host, port)
        items = [i for i in workload.timeline if i.is_request][:10]
        futures = [
            client.post_request(
                item.user_id,
                item.location.x,
                item.location.y,
                item.location.t,
                service=item.service,
            )
            for item in items
        ]
        replies = await asyncio.gather(*futures)
        assert all(isinstance(r, DecisionReply) for r in replies)
        # FIFO queue + pipelined ids: replies correlate 1:1 and the
        # msgids are strictly increasing in send order.
        msgids = [r.msgid for r in replies]
        assert msgids == sorted(msgids)
        await client.close()
        await transport.stop()
        await server.close()

    asyncio.run(run())
