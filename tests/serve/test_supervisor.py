"""Multi-process supervisor: worker handshake, kill/respawn, verify."""

from __future__ import annotations

import asyncio
import importlib.util
import json
import os
import re
import signal
from collections import Counter
from pathlib import Path

import pytest

from repro.obs.config import TelemetryConfig
from repro.obs.export import parse_prometheus
from repro.serve.city import build_city
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.loadgen import (
    LoadgenConfig,
    WorkloadConfig,
    build_workload,
    run_loadgen,
)
from repro.serve.protocol import (
    ErrorReply,
    Hello,
    MetricsReply,
    MetricsRequest,
    ServiceRequest,
    StatsRequest,
    TracesRequest,
    clone_frame,
)
from repro.serve.server import ServeConfig, TrustedServer
from repro.serve.shard import ShardRouter
from repro.serve.supervisor import (
    WorkerSupervisor,
    announce,
    worker_shards,
)
from repro.serve.transports import LoopbackTransport

DAEMON = Path(__file__).resolve().parents[2] / "tools" / "serve_daemon.py"
WIDE_OPEN = ServeConfig(max_queue_depth=100_000, max_inflight=100_000)


def load_daemon():
    spec = importlib.util.spec_from_file_location("serve_daemon", DAEMON)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDaemonArgs:
    def test_shard_count_defaults(self):
        daemon = load_daemon()
        assert daemon.parse_args([]).shards == 1
        supervised = daemon.parse_args(
            ["--workers", "2", "--data-dir", "d"]
        )
        assert supervised.shards == 2
        with pytest.raises(SystemExit):
            daemon.parse_args(["--shards", "0"])

    def test_slo_needs_one_in_process_shard(self):
        daemon = load_daemon()
        rule = ["--slo", "unlink_rate <= 1e9 /min"]
        assert daemon.parse_args(rule).slo == [rule[1]]
        assert daemon.parse_args(["--shards", "1", *rule]).slo
        for shape in (
            ["--shards", "4"],
            ["--workers", "2", "--data-dir", "d"],
        ):
            with pytest.raises(SystemExit):
                daemon.parse_args([*shape, *rule])


class TestShardAssignment:
    def test_workers_cover_all_shards_disjointly(self):
        assignments = [worker_shards(w, 2, 5) for w in range(2)]
        assert assignments == [[0, 2, 4], [1, 3]]
        flat = [s for shards in assignments for s in shards]
        assert sorted(flat) == list(range(5))

    def test_announce_roundtrip(self):
        line = announce(1, 7411, {0: -1, 2: 41})
        info = json.loads(line)
        assert info["repro_worker"] == 1
        assert info["port"] == 7411
        assert info["applied"] == {"0": -1, "2": 41}

    def test_supervisor_is_the_trusted_server_frontend(self, tmp_path):
        supervisor = WorkerSupervisor(2, 4, tmp_path)
        assert isinstance(supervisor, TrustedServer)
        assert sorted(supervisor.sequencers) == [0, 1, 2, 3]

    def test_worker_limits_cover_what_the_frontend_admits(self, tmp_path):
        """A worker's one session (the supervisor) may hold a full
        queue on every shard it serves; the last flags win."""
        supervisor = WorkerSupervisor(
            2,
            5,
            tmp_path,
            config=ServeConfig(max_queue_depth=7, max_inflight=3),
            worker_args=["--max-inflight", "1"],
        )
        for worker, n_shards in zip(supervisor.workers, (3, 2)):
            command = supervisor._spawn_command(worker)
            assert command[-4:] == [
                "--max-queue-depth", "7",
                "--max-inflight", str(7 * n_shards),
            ]

    def test_supervisor_validates_shape(self, tmp_path):
        with pytest.raises(ValueError, match="workers"):
            WorkerSupervisor(0, 4, tmp_path)
        with pytest.raises(ValueError, match="shards"):
            WorkerSupervisor(4, 2, tmp_path)


class TestEndToEnd:
    def test_kill_respawn_wal_restore_verifies(self, tmp_path):
        """The PR's acceptance bar, in-process.

        Two workers over four durable shards serve a full loadgen
        pass; one worker is SIGKILLed mid-pass.  The supervisor
        respawns it, the worker replays its WALs, pending operations
        are re-sent — and the complete decision stream still equals
        the offline replay (``--verify``), with per-user FIFO intact.
        """

        async def run():
            supervisor = WorkerSupervisor(
                2,
                4,
                tmp_path,
                config=WIDE_OPEN,
                worker_args=[
                    "--seed", "11",
                    "--max-queue-depth", "100000",
                    "--max-inflight", "100000",
                ],
                daemon_path=DAEMON,
            )
            await supervisor.start()

            async def killer():
                await asyncio.sleep(0.6)
                victim = supervisor.workers[1]
                assert victim.process is not None
                os.kill(victim.process.pid, signal.SIGKILL)

            kill_task = asyncio.create_task(killer())
            report = await run_loadgen(
                LoadgenConfig(
                    workload=WorkloadConfig(),
                    serve=WIDE_OPEN,
                    requests=200,
                    clients=4,
                    rate=500.0,
                    transport="loopback",
                    verify=True,
                    telemetry_enabled=False,
                ),
                server=supervisor,
            )
            await kill_task
            respawns = [w.respawns for w in supervisor.workers]
            stats = await supervisor.submit(
                supervisor.open_session("probe"), StatsRequest(id=1)
            )
            await supervisor.close()
            return report, respawns, stats

        report, respawns, stats = asyncio.run(run())
        assert report.ok, report.to_dict()
        assert report.verified is True and report.mismatches == 0
        assert report.decisions == 200
        assert sum(respawns) >= 1, "the SIGKILL never landed"
        # The frontend's counters balance across the respawn.
        assert stats.accepted == stats.served + stats.shed + stats.rejected
        assert stats.queue_depth == 0
        # The WAL directories exist per shard.
        shard_dirs = sorted(p.name for p in tmp_path.iterdir())
        assert shard_dirs == [f"shard-{i:03d}" for i in range(4)]

    def test_tcp_frontend_verifies(self, tmp_path):
        """The supervisor behind the real TCP frontend: every servable
        op enters through :meth:`WorkerSupervisor.admit` and the
        decision stream still equals the offline replay."""

        async def run():
            supervisor = WorkerSupervisor(
                2,
                4,
                tmp_path,
                config=WIDE_OPEN,
                worker_args=["--seed", "11"],
                daemon_path=DAEMON,
            )
            await supervisor.start()
            try:
                return await asyncio.wait_for(
                    run_loadgen(
                        LoadgenConfig(
                            workload=WorkloadConfig(),
                            serve=WIDE_OPEN,
                            requests=150,
                            clients=4,
                            transport="tcp",
                            verify=True,
                            telemetry_enabled=False,
                        ),
                        server=supervisor,
                    ),
                    timeout=60,
                )
            finally:
                await supervisor.close()

        report = asyncio.run(run())
        assert report.ok, report.to_dict()
        assert report.verified is True and report.mismatches == 0
        assert report.decisions == 150


def _supervisor(tmp_path, config=None, telemetry=None):
    return WorkerSupervisor(
        2,
        2,
        tmp_path,
        config=config,
        telemetry=telemetry,
        worker_args=["--seed", "11"],
        daemon_path=DAEMON,
    )


def _requests(workload, count, start):
    """``count`` timeline requests from ``start``, alternating shards."""
    by_shard = [
        [i for i in workload.timeline if i.is_request and i.user_id % 2 == s]
        for s in (0, 1)
    ]
    return [
        ServiceRequest(
            id=n + 1,
            user_id=item.user_id,
            x=item.location.x,
            y=item.location.y,
            t=item.location.t,
            service=item.service,
        )
        for n, item in enumerate(
            by_shard[k % 2][start + k // 2] for k in range(count)
        )
    ]


def _tally(reply):
    if not isinstance(reply, ErrorReply):
        return ("served", None)
    reason = re.search(r"\((\w+)\)", reply.message)
    return (reply.code, reason.group(1) if reason else None)


async def _burst_tallies(server, bursts):
    """Admit every burst of ``(client, frame)`` synchronously (no await
    between ops, one session per client); tally all replies by code and
    shed reason, burst by burst."""
    tallies = []
    for burst in bursts:
        replies = []
        sessions = {}
        for client, frame in burst:
            if client not in sessions:
                sessions[client] = server.open_session(client)
            server.admit(sessions[client], frame, replies.append)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + 30
        while len(replies) < len(burst) and loop.time() < deadline:
            await asyncio.sleep(0.01)
        tallies.append(Counter(_tally(reply) for reply in replies))
    return tallies


class TestFrontendParity:
    """The supervisor applies the in-process frontend's admission rules:
    one ``_refusal``, per-session ``max_inflight``, per-shard queues."""

    CONFIG = ServeConfig(max_queue_depth=6, max_inflight=4)

    def test_refusals_match_the_in_process_router(self, tmp_path):
        workload_config = WorkloadConfig()
        workload = build_workload(workload_config)
        frames = _requests(workload, 34, 0)
        bursts = [
            # One client with 10 outstanding ops, over its limit of 4.
            [("greedy", frame) for frame in frames[:10]],
            # Eight clients with 3 each (under 4), over the queues.
            [(f"c{n % 8}", frame) for n, frame in enumerate(frames[10:])],
        ]

        async def run(server):
            await server.start()
            try:
                return await _burst_tallies(server, bursts)
            finally:
                await server.close()

        local = asyncio.run(
            run(
                ShardRouter(
                    workload, workload_config, n_shards=2,
                    config=self.CONFIG,
                )
            )
        )
        remote = asyncio.run(run(_supervisor(tmp_path, self.CONFIG)))
        assert local == [
            Counter({("served", None): 4, ("overloaded", "inflight"): 6}),
            Counter({("served", None): 12, ("overloaded", "queue"): 12}),
        ]
        assert remote == local


class TestWorkerHop:
    def test_worker_port_demands_the_supervisor_token(self, tmp_path):
        async def run():
            supervisor = _supervisor(tmp_path)
            await supervisor.start()
            try:
                worker = supervisor.workers[0]
                codes = []
                for token in (None, "not-the-token"):
                    with pytest.raises(ServeClientError) as refused:
                        await ServeClient.connect(
                            "127.0.0.1", worker.port, token=token
                        )
                    codes.append(refused.value.reply.code)
                assert worker.client is not None
                stats = await worker.client.stats()
                return codes, stats
            finally:
                await supervisor.close()

        codes, stats = asyncio.run(run())
        assert codes == ["bad_token", "bad_token"]
        # Refused at the gate: no sequencer saw a frame.
        assert stats.accepted == 0 and stats.protocol_errors == 0

    def test_tracing_works_behind_workers(self, tmp_path):
        async def run():
            supervisor = _supervisor(
                tmp_path, telemetry=TelemetryConfig(enabled=True)
            )
            await supervisor.start()
            try:
                connection = LoopbackTransport(supervisor).connect()
                welcome = await connection.send(Hello(trace=True))
                wire = supervisor.telemetry.tracer.new_wire()
                frame = _requests(build_workload(WorkloadConfig()), 1, 0)[0]
                reply = await connection.send(
                    clone_frame(frame, trace=wire)
                )
                traces = await connection.send(TracesRequest(id=9))
                return welcome, wire, reply, json.loads(traces.body)
            finally:
                await supervisor.close()

        welcome, wire, reply, traces = asyncio.run(run())
        assert welcome.trace is True
        assert reply.op == "decision" and reply.trace == wire
        assert [(t["trace_id"], t["decision"]) for t in traces] == [
            (wire.split("-")[0], reply.decision)
        ]


def _total(samples, name):
    return sum(
        value for (sample, _labels), value in samples.items()
        if sample == name
    )


def _gauge_workers(samples, name):
    return {
        dict(labels).get("worker")
        for sample, labels in samples
        if sample == name
    }


#: One traced, verified pass, fed alike to both fleets below.
SCRAPE_PASS = LoadgenConfig(
    workload=WorkloadConfig(),
    serve=WIDE_OPEN,
    requests=120,
    clients=4,
    transport="loopback",
    verify=True,
    trace=True,
)


async def _scrape(server):
    reply = await server.submit(
        server.open_session("scraper"), MetricsRequest(id=1)
    )
    assert isinstance(reply, MetricsReply), reply
    return parse_prometheus(reply.body)


@pytest.fixture(scope="module")
def fleet_scrapes(tmp_path_factory):
    """The same pass through an in-process 4-shard router and a 2x4
    supervised fleet, and each one's ``metrics`` scrape after it; the
    supervised fleet is scraped again with worker 1's connection gone,
    as while it respawns."""

    async def in_process():
        router = ShardRouter(
            build_city(WorkloadConfig()),
            WorkloadConfig(),
            n_shards=4,
            config=WIDE_OPEN,
            telemetry=TelemetryConfig(enabled=True),
        )
        await router.start()
        try:
            report = await run_loadgen(SCRAPE_PASS, server=router)
            return report, await _scrape(router)
        finally:
            await router.close()

    async def supervised():
        supervisor = WorkerSupervisor(
            2,
            4,
            tmp_path_factory.mktemp("fleet"),
            config=WIDE_OPEN,
            telemetry=TelemetryConfig(enabled=True),
            worker_args=["--seed", "11"],
            daemon_path=DAEMON,
        )
        await supervisor.start()
        try:
            report = await run_loadgen(SCRAPE_PASS, server=supervisor)
            merged = await _scrape(supervisor)
            worker = supervisor.workers[1]
            client, worker.client = worker.client, None
            partial = await _scrape(supervisor)
            worker.client = client
            return report, merged, partial
        finally:
            await supervisor.close()

    local_report, local = asyncio.run(in_process())
    report, merged, partial = asyncio.run(supervised())
    for run in (local_report, report):
        assert run.ok and run.mismatches == 0, run.to_dict()
        assert run.decisions == SCRAPE_PASS.requests
    return {
        "local": local,
        "merged": merged,
        "partial": partial,
        "decisions": report.decisions,
        "served": report.decisions + report.acks,
    }


class TestFleetScrape:
    """The supervisor's ``metrics`` op is the whole fleet's scrape."""

    def test_refusals_match_the_in_process_frontend(self, tmp_path):
        """Without telemetry, or for an unknown format, the supervisor
        refuses ``metrics`` as an in-process frontend does."""

        async def ask(telemetry, frame):
            supervisor = WorkerSupervisor(
                2, 4, tmp_path, telemetry=telemetry
            )
            session = supervisor.open_session("scraper")
            return await supervisor.submit(session, frame)

        disabled = asyncio.run(ask(None, MetricsRequest(id=1)))
        bad_format = asyncio.run(
            ask(
                TelemetryConfig(enabled=True),
                MetricsRequest(id=2, format="protobuf"),
            )
        )
        assert isinstance(disabled, ErrorReply)
        assert disabled.code == "no_telemetry"
        assert isinstance(bad_format, ErrorReply)
        assert bad_format.code == "bad_field"

    def test_families_cover_the_in_process_fleet(self, fleet_scrapes):
        names = {name for name, _labels in fleet_scrapes["merged"]}
        assert {name for name, _labels in fleet_scrapes["local"]} <= names
        assert {
            "ts_decisions_total",
            "engine_stage_ms_bucket",
            "store_query_ms_bucket",
        } <= names

    def test_each_decision_is_counted_once(self, fleet_scrapes):
        assert _total(fleet_scrapes["merged"], "ts_decisions_total") == (
            fleet_scrapes["decisions"]
        )

    def test_each_op_is_served_once(self, fleet_scrapes):
        """The workers' sequencers count ``serve.served``; the frontend
        does not count the same ops again."""
        served = fleet_scrapes["served"]
        assert _total(fleet_scrapes["local"], "serve_served_total") == (
            served
        )
        assert _total(fleet_scrapes["merged"], "serve_served_total") == (
            served
        )

    def test_worker_gauges_carry_the_worker_index(self, fleet_scrapes):
        merged = fleet_scrapes["merged"]
        assert _gauge_workers(merged, "serve_queue_depth") == {"0", "1"}
        # The frontend's own gauge stays unlabelled.
        assert _gauge_workers(merged, "serve_connections") == {
            None, "0", "1"
        }

    def test_a_failing_worker_scrape_is_left_out(self, tmp_path):
        """A worker whose connection fails mid-scrape is left out; the
        op still answers with the frontend and the other workers."""

        class FakeWorkerClient:
            def __init__(self, body):
                self.body = body

            async def metrics(self):
                if self.body is None:
                    raise ServeClientError("connection lost")
                return MetricsReply(id=1, format="prometheus", body=self.body)

        async def run():
            supervisor = WorkerSupervisor(
                2, 4, tmp_path, telemetry=TelemetryConfig(enabled=True)
            )
            supervisor.workers[0].client = FakeWorkerClient(None)
            supervisor.workers[1].client = FakeWorkerClient(
                'serve_queue_depth{shard="1"} 3\n'
                'ts_decisions_total{decision="forwarded"} 5\n'
            )
            return await _scrape(supervisor)

        samples = asyncio.run(run())
        assert samples[
            ("serve_queue_depth", (("shard", "1"), ("worker", "1")))
        ] == 3.0
        assert samples[
            ("ts_decisions_total", (("decision", "forwarded"),))
        ] == 5.0
        # The frontend's own gauge is there, unlabelled.
        assert _gauge_workers(samples, "serve_connections") == {None}

    def test_a_worker_without_connection_is_left_out(self, fleet_scrapes):
        partial = fleet_scrapes["partial"]
        assert _gauge_workers(partial, "serve_queue_depth") == {"0"}
        assert 0 < _total(partial, "ts_decisions_total") < (
            fleet_scrapes["decisions"]
        )
