"""Live fleet scraping: two daemons, one merged view."""

from __future__ import annotations

import asyncio
import dataclasses

from repro.serve.fleet import collect_fleet, parse_target, scrape_worker
from repro.serve.transports import TcpTransport

import pytest

from tests.serve.test_introspection import load_obstop, telemetry_server
from tests.serve.test_server import request_frames


class TestParseTarget:
    def test_accepts_host_port(self):
        assert parse_target("127.0.0.1:7411") == ("127.0.0.1", 7411)
        assert parse_target("[::1]:7411") == ("[::1]", 7411)

    def test_rejects_malformed(self):
        for bad in ("nakedhost", ":7411", "host:", "host:nan"):
            with pytest.raises(ValueError):
                parse_target(bad)


async def _start_worker(workload, workload_config):
    server = telemetry_server(workload, workload_config)
    await server.start()
    transport = TcpTransport(server)
    host, port = await transport.start()
    return server, transport, f"{host}:{port}"


async def _drive(target, workload, n, trace=None, telemetry=None):
    """Send n service requests to one worker over TCP."""
    from repro.serve.client import ServeClient

    host, port = parse_target(target)
    client = await ServeClient.connect(
        host,
        port,
        client="fleet-driver",
        trace=trace is not None,
        telemetry=telemetry,
    )
    try:
        for frame in request_frames(workload, n):
            if trace is not None:
                frame = dataclasses.replace(frame, trace=trace)
            await client.send(frame)
    finally:
        await client.close()


class TestCollectFleet:
    def test_two_workers_merge_into_one_view(
        self, workload, workload_config
    ):
        obstop = load_obstop()
        shared_trace = "ab" * 8 + "-" + "cd" * 8  # 16-hex ids

        async def run():
            a_server, a_tcp, a_target = await _start_worker(
                workload, workload_config
            )
            b_server, b_tcp, b_target = await _start_worker(
                workload, workload_config
            )
            try:
                await _drive(a_target, workload, 5)
                await _drive(b_target, workload, 3)
                # The same wire trace hits both workers (a fan-out).
                await _drive(
                    a_target,
                    workload,
                    1,
                    trace=shared_trace,
                    telemetry=a_server.telemetry,
                )
                await _drive(
                    b_target,
                    workload,
                    1,
                    trace=shared_trace,
                    telemetry=b_server.telemetry,
                )
                view = await collect_fleet([a_target, b_target])
            finally:
                await a_tcp.stop()
                await b_tcp.stop()
                await a_server.close()
                await b_server.close()
            return view, a_target, b_target

        view, a_target, b_target = asyncio.run(run())
        assert view.workers == tuple(sorted((a_target, b_target)))
        assert view.errors == {}
        assert view.healthy
        # Counters sum across the fleet: 6 + 4 requests served.
        assert view.samples[
            ("serve_served_total", (("kind", "request"),))
        ] == 10.0
        # Gauges keep per-worker identity under the worker label.
        for target in (a_target, b_target):
            key = (
                "serve_queue_depth",
                (("worker", target),),
            )
            assert key in view.samples
        # The merged samples still drive the stage-latency table.
        rows = obstop.stage_latencies(view.samples)
        assert any(stage == "audit" for stage, _a, _b, _c in rows)
        # The shared trace collapses into one fleet entry naming both
        # workers; single-worker traces name one.
        by_id = {t.trace_id: t for t in view.traces}
        fanout = by_id["ab" * 8]
        assert fanout.workers == tuple(sorted((a_target, b_target)))
        assert fanout.total_ms > 0.0
        singles = [
            t for t in view.traces if t.trace_id != "ab" * 8
        ]
        assert all(len(t.workers) == 1 for t in singles)

    def test_unreachable_target_degrades_not_fails(
        self, workload, workload_config
    ):
        async def run():
            server, tcp, target = await _start_worker(
                workload, workload_config
            )
            try:
                await _drive(target, workload, 2)
                view = await collect_fleet([target, "127.0.0.1:9"])
            finally:
                await tcp.stop()
                await server.close()
            return view, target

        view, target = asyncio.run(run())
        assert view.workers == (target,)
        assert "127.0.0.1:9" in view.errors
        assert not view.healthy
        # The reachable worker's data still came through.
        assert view.samples[
            ("serve_served_total", (("kind", "request"),))
        ] == 2.0


class TestScrapeWorker:
    def test_scrape_names_and_health(self, workload, workload_config):
        async def run():
            server, tcp, target = await _start_worker(
                workload, workload_config
            )
            host, port = parse_target(target)
            try:
                scrape = await scrape_worker(
                    host, port, worker="shard-0"
                )
            finally:
                await tcp.stop()
                await server.close()
            return scrape

        scrape = asyncio.run(run())
        assert scrape.worker == "shard-0"
        assert scrape.health is not None
        assert scrape.health["status"] == "ok"
        assert scrape.health["slo_ok"] is True
        assert scrape.samples  # telemetry enabled: exposition parsed

    def test_scrape_without_telemetry_degrades(self, engine):
        from repro.serve.server import TrustedServer

        async def run():
            server = TrustedServer(engine)  # telemetry disabled
            await server.start()
            tcp = TcpTransport(server)
            host, port = await tcp.start()
            try:
                scrape = await scrape_worker(host, port)
            finally:
                await tcp.stop()
                await server.close()
            return scrape

        scrape = asyncio.run(run())
        assert scrape.health is not None  # health always answers
        assert scrape.samples == {}  # metrics degraded to empty
        assert scrape.traces == []
