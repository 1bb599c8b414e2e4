"""HTTP transport tests: the NDJSON codec behind ``POST /v1/frame``."""

from __future__ import annotations

import asyncio

import pytest

from repro.serve.client import ServeClientError
from repro.serve.gate import ConnectionGate, GateConfig
from repro.serve.http import HttpServeClient, HttpTransport, _read_response
from repro.serve.protocol import (
    DecisionReply,
    ErrorReply,
    Hello,
    StatsRequest,
    UpdateAck,
    decode_reply,
    encode_frame,
)
from repro.serve.server import TrustedServer
from tests.serve.test_tcp import LONG_TEXT_FRAMES, long_text_line

TOKEN = "http-test-token"


def first_request(workload):
    return next(i for i in workload.timeline if i.is_request)


def first_update(workload):
    return next(i for i in workload.timeline if not i.is_request)


async def _serving(engine, gate=None):
    server = TrustedServer(engine)
    transport = HttpTransport(server, gate=gate)
    host, port = await transport.start()
    return server, transport, host, port


async def _raw_exchange(host, port, payload: bytes):
    """One raw request on a fresh socket; returns the raw response."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(payload)
    await writer.drain()
    writer.write_eof()
    response = await reader.read()
    writer.close()
    return response


def _post(body: bytes, length: "int | None" = None) -> bytes:
    content_length = len(body) if length is None else length
    return (
        f"POST /v1/frame HTTP/1.1\r\n"
        f"Content-Length: {content_length}\r\n"
        "\r\n"
    ).encode("ascii") + body


def test_http_end_to_end(engine, workload):
    async def run():
        server, transport, host, port = await _serving(engine)
        client = await HttpServeClient.connect(host, port, client="e2e")
        assert client.welcome.session == "s1"
        update = first_update(workload)
        ack = await client.post(
            _update_frame(client, update)
        )
        assert isinstance(ack, UpdateAck)
        request = first_request(workload)
        decision = await client.post(_request_frame(client, request))
        assert isinstance(decision, DecisionReply)
        stats = await client.stats()
        assert stats.served == 2 and stats.sessions == 1
        drained = await client.drain()
        assert drained.pending == 0
        health = await client.health()
        assert health.status in ("ok", "draining")
        await client.close()
        await transport.stop()
        await server.close()

    asyncio.run(run())


def _update_frame(client, item):
    from repro.serve.protocol import LocationUpdate

    return LocationUpdate(
        id=client.next_id(),
        user_id=item.user_id,
        x=item.location.x,
        y=item.location.y,
        t=item.location.t,
    )


def _request_frame(client, item):
    from repro.serve.protocol import ServiceRequest

    return ServiceRequest(
        id=client.next_id(),
        user_id=item.user_id,
        x=item.location.x,
        y=item.location.y,
        t=item.location.t,
        service=item.service or "default",
    )


def test_http_batch_pipelines_in_order(engine, workload):
    async def run():
        server, transport, host, port = await _serving(engine)
        client = await HttpServeClient.connect(host, port)
        items = [i for i in workload.timeline if i.is_request][:10]
        futures = [
            client.post(_request_frame(client, item)) for item in items
        ]
        replies = await asyncio.gather(*futures)
        assert all(isinstance(r, DecisionReply) for r in replies)
        # Same FIFO property the TCP pipelining test pins: send order
        # is serve order, across POST batch boundaries.
        msgids = [r.msgid for r in replies]
        assert msgids == sorted(msgids)
        await client.close()
        await transport.stop()
        await server.close()

    asyncio.run(run())


def test_http_transport_refusals(engine):
    """Transport misuse earns an HTTP status and a closed connection."""

    async def run():
        server, transport, host, port = await _serving(engine)

        response = await _raw_exchange(
            host, port, b"GET /v1/frame HTTP/1.1\r\n\r\n"
        )
        assert response.startswith(b"HTTP/1.1 405 ")

        response = await _raw_exchange(
            host,
            port,
            (
                b"POST /other HTTP/1.1\r\n"
                b"Content-Length: 0\r\n\r\n"
            ),
        )
        assert response.startswith(b"HTTP/1.1 404 ")

        response = await _raw_exchange(
            host, port, b"POST /v1/frame HTTP/1.1\r\n\r\n"
        )
        assert response.startswith(b"HTTP/1.1 411 ")

        response = await _raw_exchange(
            host,
            port,
            (
                b"POST /v1/frame HTTP/1.1\r\n"
                b"Content-Length: nope\r\n\r\n"
            ),
        )
        assert response.startswith(b"HTTP/1.1 400 ")

        oversized = transport.max_body_bytes + 1
        response = await _raw_exchange(
            host, port, _post(b"", length=oversized)
        )
        assert response.startswith(b"HTTP/1.1 413 ")

        # Transport refusals are protocol errors, not served ops.
        assert server.served == 0
        assert server.protocol_errors == 5
        await transport.stop()
        await server.close()

    asyncio.run(run())


def test_http_hello_required_and_bad_line_resync(engine):
    """Application outcomes ride 200 bodies, one line per line."""

    async def run():
        server, transport, host, port = await _serving(engine)
        body = (
            encode_frame(StatsRequest(id=7))  # pre-hello: refused
            + b"this is { not json\n"  # undecodable: refused
            + encode_frame(Hello(client="late"))
            + encode_frame(StatsRequest(id=8))  # now served
        )
        response = await _raw_exchange(host, port, _post(body))
        assert response.startswith(b"HTTP/1.1 200 ")
        _head, _sep, reply_body = response.partition(b"\r\n\r\n")
        lines = [ln for ln in reply_body.split(b"\n") if ln.strip()]
        assert len(lines) == 4
        first = decode_reply(lines[0] + b"\n")
        assert isinstance(first, ErrorReply)
        assert first.code == "hello_required" and first.id == 7
        second = decode_reply(lines[1] + b"\n")
        assert isinstance(second, ErrorReply)
        assert second.code == "bad_json"
        assert decode_reply(lines[2] + b"\n").op == "welcome"
        stats = decode_reply(lines[3] + b"\n")
        assert stats.op == "stats_reply" and stats.id == 8
        await transport.stop()
        await server.close()

    asyncio.run(run())


def test_http_gate_bad_token_closes_after_typed_line(engine):
    async def run():
        gate = ConnectionGate(GateConfig(tokens=(TOKEN,)))
        server, transport, host, port = await _serving(
            engine, gate=gate
        )
        with pytest.raises(ServeClientError) as exc_info:
            await HttpServeClient.connect(
                host, port, token="not-the-token"
            )
        rejection = exc_info.value.reply
        assert isinstance(rejection, ErrorReply)
        assert rejection.code == "bad_token"
        assert gate.rejected == {"bad_token": 1}
        assert server.served == 0

        client = await HttpServeClient.connect(host, port, token=TOKEN)
        assert gate.admitted_connections == 1
        stats = await client.stats()
        assert stats.op == "stats_reply"
        await client.close()
        await transport.stop()
        await server.close()

    asyncio.run(run())


def test_http_gate_rate_limit_before_sequencer(engine, workload):
    async def run():
        gate = ConnectionGate(
            GateConfig(tokens=(TOKEN,), rate_limit=5.0, burst=2.0)
        )
        server, transport, host, port = await _serving(
            engine, gate=gate
        )
        client = await HttpServeClient.connect(host, port, token=TOKEN)
        update = first_update(workload)
        replies = await asyncio.gather(
            *(
                client.post(_update_frame(client, update))
                for _ in range(8)
            )
        )
        limited = [
            r
            for r in replies
            if isinstance(r, ErrorReply) and r.code == "rate_limited"
        ]
        acked = [r for r in replies if isinstance(r, UpdateAck)]
        assert limited and acked
        assert all((r.retry_after or 0.0) > 0.0 for r in limited)
        assert server.served == len(acked) == gate.admitted_ops
        assert gate.rejected["rate_limited"] == len(limited)
        await client.close()
        await transport.stop()
        await server.close()

    asyncio.run(run())


def test_http_gate_ticket_released_on_disconnect(engine):
    async def run():
        gate = ConnectionGate(
            GateConfig(tokens=(TOKEN,), max_connections=1)
        )
        server, transport, host, port = await _serving(
            engine, gate=gate
        )
        first = await HttpServeClient.connect(host, port, token=TOKEN)
        with pytest.raises(ServeClientError) as exc_info:
            await HttpServeClient.connect(host, port, token=TOKEN)
        assert exc_info.value.reply is not None
        assert exc_info.value.reply.code == "connection_limit"
        await first.close()
        # The slot frees once the handler unwinds; poll briefly.
        for _ in range(50):
            if gate.connections == 0:
                break
            await asyncio.sleep(0.01)
        second = await HttpServeClient.connect(host, port, token=TOKEN)
        await second.close()
        await transport.stop()
        await server.close()

    asyncio.run(run())


@pytest.mark.parametrize("case", sorted(LONG_TEXT_FRAMES))
def test_http_long_client_text_is_answered_and_connection_survives(
    telemetry_engine, case
):
    """An error echoing client text fits the frame cap, and the
    keep-alive connection serves the next POST."""
    payload, code = LONG_TEXT_FRAMES[case]

    async def run():
        server = TrustedServer(telemetry_engine)
        transport = HttpTransport(server)
        host, port = await transport.start()
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(
            _post(encode_frame(Hello(trace=True)) + long_text_line(payload))
        )
        await writer.drain()
        status, body = await _read_response(reader, 1 << 20)
        assert status == 200
        welcome, reply = (decode_reply(ln + b"\n") for ln in body.splitlines())
        assert welcome.op == "welcome"
        assert isinstance(reply, ErrorReply) and reply.code == code
        writer.write(_post(encode_frame(StatsRequest(id=2))))
        await writer.drain()
        status, body = await _read_response(reader, 1 << 20)
        assert status == 200
        assert decode_reply(body).id == 2
        writer.close()
        await transport.stop()
        await server.close()

    asyncio.run(run())
