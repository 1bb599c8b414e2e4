"""Bounded exponential-backoff retry of load-shed operations."""

from __future__ import annotations

import asyncio

from repro.engine.pipeline import BatchItem
from repro.serve.client import ServeClient
from repro.serve.loadgen import (
    LoadReport,
    _retry_shed,
    build_engine,
)
from repro.serve.protocol import (
    DecisionReply,
    ErrorReply,
    UpdateAck,
)
from repro.serve.server import ServeConfig, TrustedServer
from repro.serve.transports import LoopbackTransport

from tests.serve.test_server import request_frames


class _DrainOnlyWriter:
    async def drain(self) -> None:
        return None


def scripted_client() -> ServeClient:
    """A ServeClient shell exposing only the retry loop under test."""
    client = ServeClient.__new__(ServeClient)
    client._writer = _DrainOnlyWriter()
    # The retry loop snapshots the connection generation and, on
    # transport loss, consults the reconnect budget; mirror a client
    # constructed without one (reconnect=0).
    client._generation = 0
    client._connect_args = None
    return client


def shed(retry_after: float) -> ErrorReply:
    return ErrorReply(
        id=1, code="overloaded", message="shed", retry_after=retry_after
    )


def run_retry(replies, retries, base=0.05, cap=5.0):
    """Drive _send_with_retry over a scripted reply sequence."""
    client = scripted_client()
    sends = 0
    sleeps: list[float] = []

    async def run():
        nonlocal sends
        loop = asyncio.get_running_loop()

        def send():
            nonlocal sends
            future = loop.create_future()
            future.set_result(replies[sends])
            sends += 1
            return future

        real_sleep = asyncio.sleep

        async def fake_sleep(delay):
            sleeps.append(delay)
            await real_sleep(0)

        asyncio.sleep = fake_sleep
        try:
            return await client._send_with_retry(send, retries, base, cap)
        finally:
            asyncio.sleep = real_sleep

    return asyncio.run(run()), sends, sleeps


def test_retry_sheds_then_succeeds():
    ok = UpdateAck(id=1)
    reply, sends, sleeps = run_retry([shed(0.02), shed(0.0), ok], 3)
    assert reply is ok
    assert sends == 3
    # attempt 0: max(hint=0.02, 0.05·2^0) = 0.05
    # attempt 1: max(hint=0.0,  0.05·2^1) = 0.10
    assert sleeps == [0.05, 0.1]


def test_retry_honors_larger_retry_after_hint():
    ok = UpdateAck(id=1)
    reply, _sends, sleeps = run_retry([shed(0.75), ok], 1)
    assert reply is ok
    assert sleeps == [0.75]


def test_retry_backoff_is_capped():
    ok = UpdateAck(id=1)
    _reply, _sends, sleeps = run_retry([shed(100.0), ok], 2, cap=0.2)
    assert sleeps == [0.2]


def test_retries_exhausted_returns_last_shed():
    last = shed(0.01)
    reply, sends, sleeps = run_retry([shed(0.01), shed(0.01), last], 2)
    assert reply is last
    assert sends == 3 and len(sleeps) == 2


def test_zero_retries_returns_shed_immediately():
    first = shed(0.5)
    reply, sends, sleeps = run_retry([first], 0)
    assert reply is first
    assert sends == 1 and sleeps == []


def test_non_shed_errors_are_never_retried():
    draining = ErrorReply(id=1, code="draining", message="no")
    reply, sends, _sleeps = run_retry([draining, UpdateAck(id=1)], 3)
    assert reply is draining
    assert sends == 1


def test_loadgen_retry_recovers_real_shed(workload, workload_config):
    """A genuinely shed request succeeds on loadgen's retry pass.

    Determinism: with the dispatcher not yet started, a depth-1 queue
    admits exactly one request and sheds the next; starting the server
    drains the queue, so the retry is admitted.
    """
    engine = build_engine(workload, workload_config)

    async def run():
        server = TrustedServer(engine, ServeConfig(max_queue_depth=1))
        conn = LoopbackTransport(server).connect()
        first, second = request_frames(workload, 2)
        items = [
            BatchItem(
                user_id=f.user_id,
                location=type(
                    workload.timeline[0].location
                )(f.x, f.y, f.t),
                service=f.service,
            )
            for f in (first, second)
        ]
        f1 = conn.post(first)
        f2 = conn.post(second)
        for _ in range(10):  # let both submits reach admission
            await asyncio.sleep(0)
        assert f2.done()
        shed_reply = f2.result()
        assert isinstance(shed_reply, ErrorReply) and shed_reply.is_shed
        assert shed_reply.retry_after is not None
        await server.start()  # the queue drains; f1 resolves
        replies = [await f1, shed_reply]
        report = LoadReport()
        await _retry_shed(
            [(items[0], conn), (items[1], conn)],
            replies,
            retries=2,
            report=report,
            backoff_base_s=0.0,
        )
        await server.close()
        return replies, report

    replies, report = asyncio.run(run())
    assert isinstance(replies[0], DecisionReply)
    assert isinstance(replies[1], DecisionReply)  # recovered
    assert report.retried == 1
    assert report.recovered == 1
