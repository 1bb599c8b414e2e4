"""One connection protocol under every transport.

TCP, HTTP and loopback all run :class:`FrameConnection`, so the same
script must earn the same replies and the same server tallies on each
of them.  The last tests pin the two documented differences, both of
which follow from HTTP's length-delimited bodies.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.serve.client import ServeClientError
from repro.serve.gate import ConnectionGate, GateConfig
from repro.serve.http import HttpTransport, dial
from repro.serve.protocol import (
    ErrorReply,
    Hello,
    StatsRequest,
    UpdateAck,
    clone_frame,
    decode_reply,
    encode_frame,
)
from repro.serve.server import ServeConfig, TrustedServer
from repro.serve.transports import LoopbackTransport, TcpTransport
from tests.serve.test_http import _post, _raw_exchange
from tests.serve.test_server import request_frames, update_frame

TRANSPORTS = pytest.mark.parametrize("kind", ["tcp", "http", "loopback"])
TOKEN = "parity-token"


async def _frontend(kind, server, gate=None):
    """Serve ``server`` over ``kind``; returns ``(connect, stop)``.

    ``connect`` dials the transport's own client with one signature,
    so a script reads the same for all three.
    """
    if kind == "loopback":
        await server.start()
        loopback = LoopbackTransport(server, gate=gate)

        async def connect(client="parity", token=None, trace=False):
            return loopback.connect(client, trace=trace, token=token)

        async def stop():
            pass

        return connect, stop
    transport_class = HttpTransport if kind == "http" else TcpTransport
    transport = transport_class(server, gate=gate)
    host, port = await transport.start()

    async def connect(client="parity", token=None, trace=False):
        return await dial(
            host,
            port,
            transport=kind,
            client=client,
            token=token,
            trace=trace,
            telemetry=server.telemetry,
        )

    return connect, transport.stop


def _tallies(stats):
    return stats.accepted, stats.protocol_errors, stats.sessions


def _outcome(reply):
    return reply.code if isinstance(reply, ErrorReply) else reply.op


@TRANSPORTS
def test_wrong_token_is_refused_and_leaves_no_session(engine, kind):
    async def run():
        server = TrustedServer(engine)
        gate = ConnectionGate(GateConfig(tokens=(TOKEN,)))
        connect, stop = await _frontend(kind, server, gate)
        with pytest.raises(ServeClientError) as refused:
            await connect(token="not-the-token")
        client = await connect(token=TOKEN)
        stats = await client.stats()
        await client.close()
        await stop()
        await server.close()
        return refused.value.reply, stats, gate

    rejection, stats, gate = asyncio.run(run())
    assert isinstance(rejection, ErrorReply)
    assert rejection.code == "bad_token"
    assert _tallies(stats) == (0, 0, 1)
    assert gate.rejected == {"bad_token": 1}
    assert gate.connections == 0


@TRANSPORTS
def test_refused_rehello_closes_the_connection(engine, kind):
    async def run():
        server = TrustedServer(engine)
        connect, stop = await _frontend(kind, server)
        client = await connect()
        reply = await client.send(Hello(client="again", version=99))
        with pytest.raises(ConnectionError):
            await client.stats()
        await client.close()
        other = await connect()
        stats = await other.stats()
        await other.close()
        await stop()
        await server.close()
        return reply, stats

    reply, stats = asyncio.run(run())
    assert isinstance(reply, ErrorReply)
    assert reply.code == "bad_version" and reply.id is None
    assert _tallies(stats) == (0, 0, 1)


@TRANSPORTS
def test_burst_past_the_bucket_is_rate_limited(engine, workload, kind):
    burst, capacity = 6, 3

    async def run():
        server = TrustedServer(engine)
        # A frozen clock never refills: exactly `capacity` ops pass.
        gate = ConnectionGate(
            GateConfig(rate_limit=1.0, burst=float(capacity)),
            clock=lambda: 0.0,
        )
        connect, stop = await _frontend(kind, server, gate)
        client = await connect()
        replies = await asyncio.gather(
            *(
                client.post(update_frame(workload, frame_id=n))
                for n in range(1, burst + 1)
            )
        )
        stats = await client.stats()
        await client.close()
        await stop()
        await server.close()
        return replies, stats

    replies, stats = asyncio.run(run())
    assert [_outcome(r) for r in replies] == (
        ["ack"] * capacity + ["rate_limited"] * (burst - capacity)
    )
    assert all(
        r.retry_after > 0 for r in replies if isinstance(r, ErrorReply)
    )
    assert all(isinstance(r, UpdateAck) for r in replies[:capacity])
    assert _tallies(stats) == (capacity, 0, 1)


@TRANSPORTS
def test_traced_reply_echoes_its_context(telemetry_engine, workload, kind):
    async def run():
        server = TrustedServer(telemetry_engine)
        connect, stop = await _frontend(kind, server)
        client = await connect(trace=True)
        sent, minted = request_frames(workload, 2)
        wire = server.telemetry.tracer.new_wire()
        echoed = await client.send(clone_frame(sent, trace=wire))
        stamped = await client.send(minted)
        stats = await client.stats()
        await client.close()
        await stop()
        await server.close()
        return client, wire, echoed, stamped, stats

    client, wire, echoed, stamped, stats = asyncio.run(run())
    assert client.welcome.trace and client.trace_enabled
    assert echoed.op == "decision" and echoed.trace == wire
    # The client minted a context in post; the reply carries it back.
    assert stamped.op == "decision" and stamped.trace is not None
    assert stamped.trace != wire
    assert _tallies(stats) == (2, 0, 1)


# -- the two documented differences -------------------------------------


def test_http_answers_an_oversized_line_and_carries_on(engine):
    """A body is length-delimited, so the next line is a safe restart.

    TCP closes the connection instead (see
    ``test_tcp.test_oversized_frame_closes_connection``).
    """

    async def run():
        server = TrustedServer(engine, ServeConfig(max_frame_bytes=512))
        transport = HttpTransport(server)
        host, port = await transport.start()
        body = (
            encode_frame(Hello(), 512)
            + b"x" * 2048
            + b"\n"
            + encode_frame(StatsRequest(id=2), 512)
        )
        response = await _raw_exchange(host, port, _post(body))
        await transport.stop()
        await server.close()
        return response

    response = asyncio.run(run())
    _head, _sep, reply_body = response.partition(b"\r\n\r\n")
    replies = [
        decode_reply(line + b"\n")
        for line in reply_body.split(b"\n")
        if line.strip()
    ]
    assert [_outcome(r) for r in replies] == [
        "welcome",
        "frame_too_large",
        "stats_reply",
    ]
    assert replies[2].protocol_errors == 1


@pytest.mark.parametrize("kind", ["tcp", "http"])
def test_control_ops_run_in_a_task_on_tcp_in_line_order_on_http(
    engine, workload, kind
):
    """A ``stats`` behind a queued op overtakes it on TCP only."""

    async def run():
        server = TrustedServer(engine)
        connect, stop = await _frontend(kind, server)
        client = await connect()
        sequencer = server.sequencers[0]
        await sequencer.stop()  # hold the update in the queue
        order = []
        update = client.post(
            update_frame(workload, frame_id=client.next_id())
        )
        stats = client.post(StatsRequest(id=client.next_id()))
        for future in (update, stats):
            future.add_done_callback(
                lambda f: order.append(f.result().op)
            )
        await asyncio.sleep(0.05)
        sequencer.start()
        await asyncio.gather(update, stats)
        await client.close()
        await stop()
        await server.close()
        return order

    expected = {
        "tcp": ["stats_reply", "ack"],
        "http": ["ack", "stats_reply"],
    }
    assert asyncio.run(run()) == expected[kind]
