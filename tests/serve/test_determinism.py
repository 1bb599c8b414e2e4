"""Serving determinism: concurrent clients == offline batch replay.

The acceptance property of the serving frontend (see
``repro/serve/loadgen.py`` for the warm-store construction that makes
it hold): the decision stream served to N concurrent clients is — per
user, field for field — exactly the stream ``Engine.process_batch``
produces for the same workload offline.  Pseudonym *strings* and msgids
are global-issue-order artifacts and excluded; decisions, contexts,
LBQID attribution, steps, required k, and rotation events all must
match exactly.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.serve.loadgen import (
    LoadgenConfig,
    decision_key,
    offline_replay,
    run_loadgen,
)
from repro.serve.protocol import (
    DecisionReply,
    LocationUpdate,
    ServiceRequest,
)
from repro.serve.server import ServeConfig
from repro.serve.shard import ShardRouter
from repro.serve.transports import LoopbackTransport

WIDE_OPEN = ServeConfig(max_queue_depth=100_000, max_inflight=100_000)
#: The daemon's default shape (one shard) and a sharded one.
SHARD_COUNTS = pytest.mark.parametrize("n_shards", [1, 4])


def frames_for(items, next_id):
    frames = []
    for item in items:
        if item.is_request:
            frames.append(
                ServiceRequest(
                    id=next_id(),
                    user_id=item.user_id,
                    x=item.location.x,
                    y=item.location.y,
                    t=item.location.t,
                    service=item.service,
                )
            )
        else:
            frames.append(
                LocationUpdate(
                    id=next_id(),
                    user_id=item.user_id,
                    x=item.location.x,
                    y=item.location.y,
                    t=item.location.t,
                )
            )
    return frames


def _partition(workload, n_clients):
    users = workload.user_ids
    owner = {u: rank % n_clients for rank, u in enumerate(users)}
    partitions = {i: [] for i in range(n_clients)}
    for item in workload.timeline:
        partitions[owner[item.user_id]].append(item)
    return partitions


@SHARD_COUNTS
def test_eight_concurrent_loopback_clients_match_offline(
    workload, workload_config, n_shards
):
    """Per-user decision equality under 8 interleaved clients.

    On four shards users hash to shared-nothing shard engines, yet
    every user's decision stream still equals the offline batch
    replay — the warm-store argument holds shard by shard.
    """
    offline = {}
    for event in offline_replay(workload, workload_config):
        offline.setdefault(event.request.user_id, []).append(
            decision_key(event)
        )

    async def client_run(conn, items, counter):
        futures = []
        for index, frame in enumerate(frames_for(items, counter)):
            futures.append(conn.post(frame))
            if index % 3 == 0:
                # Yield mid-stream so the eight clients interleave
                # at arbitrary points, not in neat blocks.
                await asyncio.sleep(0)
        return await asyncio.gather(*futures)

    async def run():
        server = ShardRouter(
            workload, workload_config, n_shards=n_shards, config=WIDE_OPEN
        )
        await server.start()
        transport = LoopbackTransport(server)
        conns = [transport.connect(f"det-{i}") for i in range(8)]
        partitions = _partition(workload, 8)
        counters = iter(range(1, 10**6)).__next__
        results = await asyncio.gather(
            *(
                client_run(conns[i], partitions[i], counters)
                for i in range(8)
            )
        )
        served = {}
        for i, replies in enumerate(results):
            for item, reply in zip(partitions[i], replies):
                if item.is_request:
                    assert isinstance(reply, DecisionReply), reply
                    served.setdefault(item.user_id, []).append(
                        decision_key(reply)
                    )
        await server.close()
        for conn in conns:
            conn.close()
        return served

    served = asyncio.run(run())
    assert set(served) == set(offline)
    for user_id in offline:
        assert served[user_id] == offline[user_id], (
            f"user {user_id} diverged under {n_shards}-shard serving"
        )


def test_loadgen_loopback_verifies(workload_config):
    report = asyncio.run(
        run_loadgen(
            LoadgenConfig(
                workload=workload_config,
                serve=WIDE_OPEN,
                requests=80,
                clients=8,
                rate=1e6,
                transport="loopback",
                verify=True,
                telemetry_enabled=False,
            )
        )
    )
    assert report.ok, report.to_dict()
    assert report.verified is True and report.mismatches == 0
    assert report.shed == 0
    assert report.decisions == 80


def test_eight_clients_survive_shard_kill_and_wal_restore(
    workload, workload_config, tmp_path
):
    """Decision equality holds across kill → WAL-replay → restore.

    Mid-stream, every shard is abruptly dropped (in-memory state
    discarded, queued jobs captured) and rebuilt from its write-ahead
    log; the rebuilt runtime must fingerprint identically to the
    killed one, the captured jobs are re-sent, and the complete
    decision stream still equals the offline replay.
    """
    offline = {}
    for event in offline_replay(workload, workload_config):
        offline.setdefault(event.request.user_id, []).append(
            decision_key(event)
        )

    async def client_run(conn, items, counter, kill_gate):
        futures = []
        for index, frame in enumerate(frames_for(items, counter)):
            futures.append(conn.post(frame))
            if index % 3 == 0:
                await asyncio.sleep(0)
            if index == len(items) // 2:
                await kill_gate()
        return await asyncio.gather(*futures)

    async def run():
        router = ShardRouter(
            workload,
            workload_config,
            n_shards=4,
            config=WIDE_OPEN,
            data_dir=tmp_path,
        )
        await router.start()
        transport = LoopbackTransport(router)
        conns = [transport.connect(f"det-{i}") for i in range(8)]
        partitions = _partition(workload, 8)
        counters = iter(range(1, 10**6)).__next__
        killed = False

        async def kill_gate():
            nonlocal killed
            if killed:
                return
            killed = True
            for shard_id in range(4):
                before = router.sequencers[
                    shard_id
                ].runtime.fingerprint()
                pending = router.kill_shard(shard_id)
                router.restore_shard(shard_id, pending)
                after = router.sequencers[
                    shard_id
                ].runtime.fingerprint()
                assert before == after, (
                    f"shard {shard_id} state diverged across "
                    "WAL replay"
                )

        results = await asyncio.gather(
            *(
                client_run(
                    conns[i], partitions[i], counters, kill_gate
                )
                for i in range(8)
            )
        )
        served = {}
        for i, replies in enumerate(results):
            for item, reply in zip(partitions[i], replies):
                if item.is_request:
                    assert isinstance(reply, DecisionReply), reply
                    served.setdefault(item.user_id, []).append(
                        decision_key(reply)
                    )
        assert killed, "kill gate never fired"
        assert all(
            s.runtime.replayed > 0
            for s in router.sequencers.values()
        ), "restore did not replay from the WAL"
        await router.close()
        for conn in conns:
            conn.close()
        return served

    served = asyncio.run(run())
    assert set(served) == set(offline)
    for user_id in offline:
        assert served[user_id] == offline[user_id], (
            f"user {user_id} diverged across kill/restore"
        )


@SHARD_COUNTS
def test_two_runs_identical(workload, workload_config, n_shards):
    """Same concurrency, two runs: decision streams are identical."""

    async def one_run():
        server = ShardRouter(
            workload, workload_config, n_shards=n_shards, config=WIDE_OPEN
        )
        await server.start()
        conn = LoopbackTransport(server).connect("rep")
        counter = iter(range(1, 10**6)).__next__
        futures = [
            conn.post(frame)
            for frame in frames_for(workload.timeline, counter)
        ]
        replies = await asyncio.gather(*futures)
        await server.close()
        conn.close()
        return [
            decision_key(r)
            for r in replies
            if isinstance(r, DecisionReply)
        ]

    assert asyncio.run(one_run()) == asyncio.run(one_run())
