"""The ``profile`` protocol op: lifecycle, errors, engine attribution."""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.obs.profile import IDLE_LABEL, OTHER_LABEL
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.protocol import ErrorReply, ProfileReply, ProfileRequest
from repro.serve.server import ServeConfig, TrustedServer
from repro.serve.transports import LoopbackTransport, TcpTransport

from tests.serve.test_introspection import telemetry_server
from tests.serve.test_server import request_frames


class TestLifecycle:
    def test_start_status_stop_capture(self, workload, workload_config):
        server = telemetry_server(workload, workload_config)

        async def run():
            await server.start()
            conn = LoopbackTransport(server).connect()
            idle = await conn.send(ProfileRequest(id=1))
            started = await conn.send(
                ProfileRequest(id=2, action="start", interval_ms=1.0)
            )
            running = await conn.send(
                ProfileRequest(id=3, action="status")
            )
            for frame in request_frames(workload, 6):
                await conn.send(frame)
            await asyncio.sleep(0.05)
            stopped = await conn.send(
                ProfileRequest(id=4, action="stop")
            )
            collapsed = await conn.send(
                ProfileRequest(id=5, action="collapsed")
            )
            stages = await conn.send(
                ProfileRequest(id=6, action="stages")
            )
            await server.close()
            return idle, started, running, stopped, collapsed, stages

        idle, started, running, stopped, collapsed, stages = (
            asyncio.run(run())
        )
        assert isinstance(idle, ProfileReply)
        assert idle.state == "idle" and idle.samples == 0
        assert isinstance(started, ProfileReply)
        assert started.state == "running"
        assert isinstance(running, ProfileReply)
        assert running.state == "running"
        assert isinstance(stopped, ProfileReply)
        assert stopped.state == "stopped"
        assert stopped.samples > 0
        assert stopped.duration_s > 0.0
        # The capture remains queryable after stop.
        assert isinstance(collapsed, ProfileReply)
        assert collapsed.state == "stopped"
        for line in collapsed.body.splitlines():
            frames, _space, count = line.rpartition(" ")
            assert frames and int(count) > 0
        assert isinstance(stages, ProfileReply)
        payload = json.loads(stages.body)
        assert payload["samples"] == stopped.samples
        assert "stacks" not in payload  # table only; stacks via collapsed
        assert {row["stage"] for row in payload["rows"]}

    def test_restart_after_stop(self, workload, workload_config):
        server = telemetry_server(workload, workload_config)

        async def run():
            await server.start()
            conn = LoopbackTransport(server).connect()
            for _ in range(2):
                first = await conn.send(
                    ProfileRequest(
                        id=1, action="start", interval_ms=1.0
                    )
                )
                assert isinstance(first, ProfileReply)
                await asyncio.sleep(0.02)
                await conn.send(ProfileRequest(id=2, action="stop"))
            await server.close()

        asyncio.run(run())


class TestErrors:
    def test_state_and_field_errors(self, workload, workload_config):
        server = telemetry_server(workload, workload_config)

        async def run():
            await server.start()
            conn = LoopbackTransport(server).connect()
            stop_idle = await conn.send(
                ProfileRequest(id=1, action="stop")
            )
            peek_idle = await conn.send(
                ProfileRequest(id=2, action="collapsed")
            )
            bad_interval = await conn.send(
                ProfileRequest(id=3, action="start", interval_ms=0.0)
            )
            await conn.send(
                ProfileRequest(id=4, action="start", interval_ms=1.0)
            )
            double = await conn.send(
                ProfileRequest(id=5, action="start", interval_ms=1.0)
            )
            unknown = await conn.send(
                ProfileRequest(id=6, action="flame")
            )
            # Stop the capture started above: a sampler thread left
            # running walks this thread's frames for the rest of the
            # session, which CPython 3.11 can crash on.
            await conn.send(ProfileRequest(id=7, action="stop"))
            await server.close()
            return stop_idle, peek_idle, bad_interval, double, unknown

        stop_idle, peek_idle, bad_interval, double, unknown = (
            asyncio.run(run())
        )
        assert isinstance(stop_idle, ErrorReply)
        assert stop_idle.code == "profiler_state"
        assert isinstance(peek_idle, ErrorReply)
        assert peek_idle.code == "profiler_state"
        assert isinstance(bad_interval, ErrorReply)
        assert bad_interval.code == "bad_field"
        assert isinstance(double, ErrorReply)
        assert double.code == "profiler_state"
        assert isinstance(unknown, ErrorReply)
        assert unknown.code == "bad_field"
        assert "flame" in unknown.message

    def test_requires_telemetry(self, engine):
        server = TrustedServer(engine)  # telemetry disabled

        async def run():
            await server.start()
            conn = LoopbackTransport(server).connect()
            reply = await conn.send(
                ProfileRequest(id=1, action="start")
            )
            await server.close()
            return reply

        reply = asyncio.run(run())
        assert isinstance(reply, ErrorReply)
        assert reply.code == "no_telemetry"


class TestEngineAttribution:
    def test_samples_attribute_to_engine_stages(
        self, workload, workload_config
    ):
        """Driven requests show up under real stage labels, and the
        stage shares account for all sampled request time."""
        server = telemetry_server(workload, workload_config)

        async def run():
            await server.start()
            conn = LoopbackTransport(server).connect()
            await conn.send(
                ProfileRequest(id=1, action="start", interval_ms=0.5)
            )
            payload = None
            deadline = time.monotonic() + 5.0
            frames = request_frames(workload, 120)
            while time.monotonic() < deadline:
                for frame in frames:
                    await conn.send(frame)
                stages = await conn.send(
                    ProfileRequest(id=2, action="stages")
                )
                assert isinstance(stages, ProfileReply)
                candidate = json.loads(stages.body)
                if candidate["request_samples"] >= 5:
                    payload = candidate
                    break
            await conn.send(ProfileRequest(id=3, action="stop"))
            await server.close()
            return payload

        payload = asyncio.run(run())
        assert payload is not None, "no request samples within deadline"
        stage_names = {s.name for s in server.engine.stages}
        labels = {row["stage"] for row in payload["rows"]}
        assert labels <= stage_names | {OTHER_LABEL, IDLE_LABEL}
        assert labels & (stage_names | {OTHER_LABEL})
        shares = [
            row["share_pct"]
            for row in payload["rows"]
            if row["share_pct"] is not None
        ]
        assert sum(shares) == pytest.approx(100.0)


class TestClientOverTcp:
    def test_client_profile_roundtrip(self, workload, workload_config):
        server = telemetry_server(workload, workload_config)

        async def run():
            await server.start()
            transport = TcpTransport(server)
            host, port = await transport.start()
            client = await ServeClient.connect(
                host, port, client="profile-test"
            )
            started = await client.profile(
                action="start", interval_ms=1.0
            )
            for frame in request_frames(workload, 4):
                await client.request(
                    frame.user_id,
                    frame.x,
                    frame.y,
                    frame.t,
                    frame.service,
                )
            await asyncio.sleep(0.03)
            stopped = await client.profile(action="stop")
            collapsed = await client.profile(action="collapsed")
            try:
                await client.profile(action="stop")  # nothing running
            except ServeClientError as exc:
                error = exc
            else:
                error = None
            await client.close()
            await transport.stop()
            await server.close()
            return started, stopped, collapsed, error

        started, stopped, collapsed, error = asyncio.run(run())
        assert started.state == "running"
        assert stopped.state == "stopped" and stopped.samples > 0
        assert isinstance(collapsed, ProfileReply)
        assert collapsed.body
        assert error is not None
        assert "profiler_state" in str(error)
