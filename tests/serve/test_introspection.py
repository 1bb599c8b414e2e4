"""The live introspection surface: metrics, health, traces, obstop."""

from __future__ import annotations

import asyncio
import importlib.util
import json
from pathlib import Path

import pytest

from repro.obs.config import TelemetryConfig
from repro.obs.export import parse_prometheus
from repro.serve.client import ServeClient
from repro.serve.loadgen import build_engine
from repro.serve.protocol import (
    ErrorReply,
    HealthReply,
    HealthRequest,
    MetricsReply,
    MetricsRequest,
    TracesReply,
    TracesRequest,
)
from repro.serve.server import (
    ServeConfig,
    TrustedServer,
    render_metrics_reply,
)
from repro.serve.transports import LoopbackTransport, TcpTransport

from tests.serve.test_server import request_frames, update_frame

_OBSTOP_PATH = (
    Path(__file__).resolve().parents[2] / "tools" / "obstop.py"
)


def load_obstop():
    spec = importlib.util.spec_from_file_location("obstop", _OBSTOP_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def telemetry_server(workload, workload_config, **serve_kwargs):
    engine = build_engine(
        workload, workload_config, TelemetryConfig(enabled=True)
    )
    return TrustedServer(engine, ServeConfig(**serve_kwargs))


def test_metrics_op_returns_valid_exposition(workload, workload_config):
    """Acceptance: the ``metrics`` reply parses as Prometheus text."""
    server = telemetry_server(workload, workload_config)

    async def run():
        await server.start()
        conn = LoopbackTransport(server).connect()
        for frame in request_frames(workload, 3):
            await conn.send(frame)
        await conn.send(update_frame(workload, frame_id=99))
        reply = await conn.send(MetricsRequest(id=50))
        await server.close()
        return reply

    reply = asyncio.run(run())
    assert isinstance(reply, MetricsReply)
    assert reply.format == "prometheus"
    samples = parse_prometheus(reply.body)  # strict: raises on damage
    assert samples[
        ("serve_served_total", (("kind", "request"),))
    ] == 3.0
    assert samples[("serve_served_total", (("kind", "update"),))] == 1.0
    assert ("serve_request_ms_count", ()) in samples
    assert ("engine_stage_ms_count", (("stage", "audit"),)) in samples
    # Histogram buckets close with +Inf, as the format requires.
    assert ("serve_request_ms_bucket", (("le", "+Inf"),)) in samples


def test_metrics_op_rejects_unknown_format_and_no_telemetry(
    workload, workload_config, engine
):
    server = telemetry_server(workload, workload_config)
    bare = TrustedServer(engine)  # no telemetry

    async def run():
        await server.start()
        await bare.start()
        conn = LoopbackTransport(server).connect()
        bad_format = await conn.send(
            MetricsRequest(id=1, format="protobuf")
        )
        bare_conn = LoopbackTransport(bare).connect()
        disabled = await bare_conn.send(MetricsRequest(id=2))
        await server.close()
        await bare.close()
        return bad_format, disabled

    bad_format, disabled = asyncio.run(run())
    assert isinstance(bad_format, ErrorReply)
    assert bad_format.code == "bad_field"
    assert isinstance(disabled, ErrorReply)
    assert disabled.code == "no_telemetry"


def test_metrics_body_over_the_frame_budget_is_refused():
    """The exposition must fit one frame: the registry's own body and a
    supplied one (a supervisor's merged scrape) pass one guard."""
    telemetry = TelemetryConfig(enabled=True).build()
    telemetry.count("serve.served", kind="request")
    frame = MetricsRequest(id=7)
    assert isinstance(
        render_metrics_reply(telemetry, 4096, frame), MetricsReply
    )
    for reply in (
        render_metrics_reply(telemetry, 300, frame),
        render_metrics_reply(telemetry, 4096, frame, body="x" * 4096),
    ):
        assert isinstance(reply, ErrorReply)
        assert reply.code == "frame_too_large"


def test_obstop_dials_one_daemon():
    """obstop has one mode: the daemon at ``--port`` (a supervised
    fleet's frontend serves the whole fleet's scrape)."""
    obstop = load_obstop()
    assert obstop.parse_args(["--port", "7411"]).port == 7411
    for argv in ([], ["--target", "127.0.0.1:7411"]):
        with pytest.raises(SystemExit):
            obstop.parse_args(argv)


def test_health_op_reports_lifecycle(workload, workload_config):
    server = telemetry_server(workload, workload_config)

    async def run():
        await server.start()
        conn = LoopbackTransport(server).connect()
        (frame,) = request_frames(workload, 1)
        await conn.send(frame)
        healthy = await conn.send(HealthRequest(id=1))
        await server.drain()
        draining = await conn.send(HealthRequest(id=2))
        await server.close()
        return healthy, draining

    healthy, draining = asyncio.run(run())
    assert isinstance(healthy, HealthReply)
    assert healthy.status == "ok"
    assert healthy.uptime_s >= 0.0
    assert healthy.served == 1
    assert healthy.slo_ok is True and healthy.breaches == 0
    assert draining.status == "draining"


def test_traces_op_lists_recent_traced_requests(
    workload, workload_config
):
    server = telemetry_server(workload, workload_config)

    async def run():
        await server.start()
        conn = LoopbackTransport(server).connect(trace=True)
        for frame in request_frames(workload, 5):
            await conn.send(frame)
        full = await conn.send(TracesRequest(id=1, limit=20))
        limited = await conn.send(TracesRequest(id=2, limit=2))
        await server.close()
        return full, limited

    full, limited = asyncio.run(run())
    assert isinstance(full, TracesReply)
    entries = json.loads(full.body)
    assert len(entries) == 5
    for entry in entries:
        assert set(entry) == {
            "trace_id", "op", "decision", "queue_ms", "total_ms", "shed",
        }
        assert len(entry["trace_id"]) == 16
        assert entry["op"] == "request"
        assert entry["shed"] is False
        assert entry["total_ms"] >= entry["queue_ms"] >= 0.0
    # Most recent first, and the limit clamps.
    assert json.loads(limited.body) == entries[:2]


def test_obstop_collect_and_render_over_tcp(workload, workload_config):
    obstop = load_obstop()
    server = telemetry_server(workload, workload_config)

    async def run():
        await server.start()
        transport = TcpTransport(server)
        host, port = await transport.start()
        client = await ServeClient.connect(
            host,
            port,
            client="obstop-test",
            telemetry=server.telemetry,
            trace=True,
        )
        for frame in request_frames(workload, 4):
            await client.request(
                frame.user_id, frame.x, frame.y, frame.t, frame.service
            )
        snap = await obstop.collect(client, trace_limit=8)
        await client.close()
        await transport.stop()
        await server.close()
        return snap

    snap = asyncio.run(run())
    assert snap["status"] == "ok"
    assert snap["served"] == 4
    assert snap["traces"] and len(snap["traces"]) <= 8
    rows = obstop.stage_latencies(snap["samples"])
    stages = [stage for stage, _p50, _p99, _count in rows]
    assert "audit" in stages
    assert stages == sorted(
        stages, key=lambda s: obstop.STAGE_ORDER.index(s)
    )
    for _stage, p50, p99, count in rows:
        assert count >= 1
        assert 0.0 <= p50 <= p99
    lines = obstop.render_dashboard(snap, host="127.0.0.1", port=1)
    text = "\n".join(lines)
    assert "status ok" in text
    assert "served 4" in text
    assert "slo ok" in text
    assert "slowest recent traces:" in text
    assert all(len(line) <= 100 for line in lines)
    # A second poll computes a delta-based rate without error.
    lines2 = obstop.render_dashboard(
        dict(snap, t=snap["t"] + 1.0, served=snap["served"] + 10),
        prev=snap,
    )
    assert any("req/s" in line for line in lines2)
