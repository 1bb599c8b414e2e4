"""TCP transport tests: real sockets, framing damage, handshakes."""

from __future__ import annotations

import asyncio
import json
import socket
import struct

import pytest

from repro.obs.config import TelemetryConfig
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.protocol import (
    DecisionReply,
    ErrorReply,
    Hello,
    LocationUpdate,
    ServiceRequest,
    StatsReply,
    StatsRequest,
    UpdateAck,
    decode_reply,
    encode_frame,
)
from repro.serve.server import ServeConfig, ShardRuntime, TrustedServer
from repro.serve.shard import ShardRouter
from repro.serve.transports import TcpConnection, TcpTransport
from repro.serve.wal import ShardWal


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


# -- the task-free data plane ------------------------------------------


def request_lines(workload, count, start_id=1):
    """``count`` service requests as wire lines (timeline order, cycled)."""
    items = [i for i in workload.timeline if i.is_request]
    return [
        encode_frame(
            ServiceRequest(
                id=start_id + n,
                user_id=item.user_id,
                x=item.location.x,
                y=item.location.y,
                t=item.location.t,
                service=item.service,
            )
        )
        for n, item in (
            (n, items[n % len(items)]) for n in range(count)
        )
    ]


async def _greeted(host, port, sock=None):
    if sock is None:
        reader, writer = await asyncio.open_connection(host, port)
    else:
        reader, writer = await asyncio.open_connection(sock=sock)
    writer.write(encode_frame(Hello()))
    await writer.drain()
    assert decode_reply(await reader.readline()).op == "welcome"
    return reader, writer


async def _until(predicate, timeout_s=10.0):
    deadline = asyncio.get_running_loop().time() + timeout_s
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "timed out"
        await asyncio.sleep(0.01)


def test_each_reply_leaves_before_the_next_op_executes(
    engine, workload, monkeypatch
):
    """Two ops drained in one batch: op 1 is answered before op 2 runs."""
    log = []
    server = TrustedServer(engine)
    sequencer = server.sequencers[0]
    execute, respond = ShardRuntime.execute, TcpConnection.respond

    def logged_execute(self, frame, seq=None):
        log.append(("execute", frame.id, sequencer.queue_depth))
        return execute(self, frame, seq)

    def logged_respond(self, reply):
        log.append(("respond", reply.id))
        respond(self, reply)

    monkeypatch.setattr(ShardRuntime, "execute", logged_execute)
    monkeypatch.setattr(TcpConnection, "respond", logged_respond)

    async def run():
        transport = TcpTransport(server)
        host, port = await transport.start()
        reader, writer = await _greeted(host, port)
        writer.write(b"".join(request_lines(workload, 2)))
        await writer.drain()
        replies = [decode_reply(await reader.readline()) for _ in range(2)]
        assert [r.id for r in replies] == [1, 2]
        writer.close()
        await transport.stop()
        await server.close()

    asyncio.run(run())
    # Op 2 was still queued behind op 1 (one batch), yet op 1's reply
    # reached the transport before op 2 executed.
    assert log == [
        ("execute", 1, 1),
        ("respond", 1),
        ("execute", 2, 0),
        ("respond", 2),
    ]


def test_pipelined_burst_creates_no_task_per_op(engine, workload):
    """Servable ops are admitted and answered without tasks."""
    burst = 50

    def greet(host, port):
        sock = socket.create_connection((host, port), timeout=10)
        lines = sock.makefile("rb")
        sock.sendall(encode_frame(Hello()))
        assert decode_reply(lines.readline()).op == "welcome"
        return sock, lines

    def send_burst(sock, lines):
        sock.sendall(b"".join(request_lines(workload, burst)))
        return [decode_reply(lines.readline()) for _ in range(burst)]

    async def run():
        server, transport, host, port = await _serving(engine)
        loop = asyncio.get_running_loop()
        sock, lines = await loop.run_in_executor(None, greet, host, port)
        tasks, futures = [], []
        create_task, create_future = loop.create_task, loop.create_future

        def counting_task(coro, **kwargs):
            tasks.append(coro)
            return create_task(coro, **kwargs)

        def counting_future():
            futures.append(None)
            return create_future()

        loop.create_task = counting_task
        loop.create_future = counting_future
        try:
            # The client runs in a thread, so the loop's own counts
            # are the server's (plus the one executor future).
            replies = await loop.run_in_executor(
                None, send_burst, sock, lines
            )
        finally:
            del loop.create_task, loop.create_future
            lines.close()
            sock.close()
        assert [r.id for r in replies] == list(range(1, burst + 1))
        assert all(isinstance(r, DecisionReply) for r in replies)
        assert tasks == []
        # The dispatcher's idle waits are per wake-up, not per op.
        assert len(futures) < burst // 5
        await transport.stop()
        await server.close()

    asyncio.run(run())


def test_slow_reader_is_paused_then_served(engine, workload, monkeypatch):
    """A client that sends without reading stops being read; it gets
    every reply once it reads, and ``max_inflight`` still sheds it."""
    paused = []
    pause_writing = TcpConnection.pause_writing

    def recording_pause(self):
        pause_writing(self)
        paused.append(self._transport.is_reading())

    monkeypatch.setattr(TcpConnection, "pause_writing", recording_pause)
    burst = 400

    async def run():
        config = ServeConfig(max_inflight=32, max_queue_depth=100_000)
        server, transport, host, port = await _serving(engine, config)
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 2048)
        sock.connect((host, port))
        sock.setblocking(False)
        reader, writer = await _greeted(host, port, sock=sock)
        (connection,) = transport._connections
        connection._transport.get_extra_info("socket").setsockopt(
            socket.SOL_SOCKET, socket.SO_SNDBUF, 2048
        )
        connection._transport.set_write_buffer_limits(high=0)
        for line in request_lines(workload, burst):
            writer.write(line)
        await writer.drain()
        await _until(lambda: paused)
        assert paused[0] is False  # reading stopped with writing
        replies = [
            decode_reply(await reader.readline()) for _ in range(burst)
        ]
        assert sorted(r.id for r in replies) == list(range(1, burst + 1))
        shed = [r for r in replies if isinstance(r, ErrorReply)]
        assert shed and all(r.code == "overloaded" for r in shed)
        assert len(shed) + server.served == burst
        # Reading resumed once the client caught up.
        writer.write(encode_frame(StatsRequest(id=burst + 1)))
        stats = decode_reply(await reader.readline())
        assert isinstance(stats, StatsReply) and stats.id == burst + 1
        writer.close()
        await transport.stop()
        await server.close()

    asyncio.run(run())


def test_mid_burst_disconnect_executes_and_logs_queued_ops(
    workload, workload_config, tmp_path
):
    """Ops queued when the client vanished still execute and reach the
    WAL; their replies are dropped quietly and the session closes."""
    burst = 40

    async def run():
        router = ShardRouter(
            workload,
            workload_config,
            n_shards=1,
            telemetry=TelemetryConfig(enabled=True),
            data_dir=tmp_path,
        )
        transport = TcpTransport(router)
        host, port = await transport.start()
        errors = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: errors.append(context)
        )
        connections = router.telemetry.metrics.gauge("serve.connections")
        before = connections.value
        reader, writer = await _greeted(host, port)
        assert connections.value == before + 1
        sequencer = router.sequencers[0]
        await sequencer.stop()  # hold the burst in the queue
        writer.write(b"".join(request_lines(workload, burst)))
        await writer.drain()
        await _until(lambda: sequencer.queue_depth == burst)
        # Disconnect with a reset: nothing more is read or written.
        writer.get_extra_info("socket").setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        writer.transport.abort()
        await _until(lambda: not transport._connections)
        assert connections.value == before
        sequencer.start()
        drained = await router.drain()
        assert drained.served == burst and drained.pending == 0
        assert sequencer.runtime.applied_seq == burst - 1
        await transport.stop()
        await router.close()
        return errors

    assert asyncio.run(run()) == []
    records = list(ShardWal.recover(tmp_path / "shard-000"))
    assert [record["s"] for record in records] == list(range(burst))


def test_post_refuses_an_id_already_pending(engine, workload):
    """A second frame under a pending id must not orphan the first.

    Before the check, the second future replaced the first in the
    pending table, so the first never resolved and this test timed
    out waiting for it.
    """

    async def run():
        server, transport, host, port = await _serving(engine)
        client = await ServeClient.connect(host, port, client="dup-id")
        update = first_update(workload)
        frame = LocationUpdate(
            id=7,
            user_id=update.user_id,
            x=update.location.x,
            y=update.location.y,
            t=update.location.t,
        )
        first = client.post(frame)
        try:
            client.post(frame)
        except ServeClientError:
            refused = True
        else:
            refused = False
        try:
            reply = await asyncio.wait_for(first, timeout=10)
        finally:
            await client.close()
            await transport.stop()
            await server.close()
        assert isinstance(reply, UpdateAck) and reply.id == 7
        assert refused

    asyncio.run(run())
