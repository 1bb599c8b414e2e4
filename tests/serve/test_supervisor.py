"""Multi-process supervisor: worker handshake, kill/respawn, verify."""

from __future__ import annotations

import asyncio
import importlib.util
import json
import os
import signal
from pathlib import Path

import pytest

from repro.serve.loadgen import LoadgenConfig, WorkloadConfig, run_loadgen
from repro.serve.server import ServeConfig
from repro.serve.supervisor import (
    WorkerSupervisor,
    announce,
    worker_shards,
)

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
            await supervisor.close()
            return report, respawns

        report, respawns = asyncio.run(run())
        assert report.ok, report.to_dict()
        assert report.verified is True and report.mismatches == 0
        assert report.decisions == 200
        assert sum(respawns) >= 1, "the SIGKILL never landed"
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
