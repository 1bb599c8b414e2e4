"""Shard runtime/router behavior (routing, durability, admission)."""

from __future__ import annotations

import asyncio

import pytest

from repro.serve.loadgen import SERVICE, build_engine, decision_key
from repro.serve.protocol import (
    DecisionReply,
    DrainRequest,
    ErrorReply,
    HealthRequest,
    Hello,
    LocationUpdate,
    MetricsRequest,
    ServiceRequest,
    StatsRequest,
    UpdateAck,
    Welcome,
    clone_frame,
)
from repro.serve.server import (
    ServeConfig,
    ShardRuntime,
    TrustedServer,
    shard_of,
)
from repro.serve.shard import ShardRouter
from repro.serve.transports import LoopbackTransport

WIDE_OPEN = ServeConfig(max_queue_depth=100_000, max_inflight=100_000)


def shard_runtime(workload, workload_config, shard_id, n_shards, **kwargs):
    """Shard ``shard_id`` of ``n_shards`` over its own warm engine."""
    engine = build_engine(
        workload, workload_config, shard_id=shard_id, n_shards=n_shards
    )
    return ShardRuntime(engine, shard_id, n_shards, **kwargs)


def frames_for(timeline):
    frames = []
    for index, item in enumerate(timeline, start=1):
        if item.is_request:
            frames.append(
                ServiceRequest(
                    id=index,
                    user_id=item.user_id,
                    x=item.location.x,
                    y=item.location.y,
                    t=item.location.t,
                    service=item.service or SERVICE,
                )
            )
        else:
            frames.append(
                LocationUpdate(
                    id=index,
                    user_id=item.user_id,
                    x=item.location.x,
                    y=item.location.y,
                    t=item.location.t,
                )
            )
    return frames


class TestShardOf:
    def test_partition_is_modular(self):
        assert shard_of(0, 4) == 0
        assert shard_of(7, 4) == 3
        assert shard_of(8, 4) == 0

    def test_all_users_covered(self):
        owners = {shard_of(u, 3) for u in range(30)}
        assert owners == {0, 1, 2}


class TestShardRuntime:
    def test_owned_users_partition(self, workload, workload_config):
        runtimes = [
            shard_runtime(workload, workload_config, s, 4)
            for s in range(4)
        ]
        owned = [u for r in runtimes for u in r.owned_users]
        assert sorted(owned) == workload.user_ids

    def test_pseudonym_prefix_per_shard(self, workload, workload_config):
        runtime = shard_runtime(workload, workload_config, 2, 4)
        user = runtime.owned_users[0]
        assert runtime.engine.sessions.pseudonym(user).startswith("p2.")

    def test_store_warm_with_all_users(self, workload, workload_config):
        runtime = shard_runtime(workload, workload_config, 1, 4)
        assert sorted(runtime.engine.store.user_ids()) == (
            workload.user_ids
        )

    def test_direct_execute_assigns_local_seqs(
        self, workload, workload_config
    ):
        runtime = shard_runtime(workload, workload_config, 0, 1)
        item = workload.timeline[0]
        frame = LocationUpdate(
            id=1, user_id=item.user_id, x=item.location.x,
            y=item.location.y, t=item.location.t,
        )
        assert isinstance(runtime.execute(frame), UpdateAck)
        assert runtime.applied_seq == 0
        runtime.execute(frame)
        assert runtime.applied_seq == 1

    def test_duplicate_seq_answered_from_cache(
        self, workload, workload_config, tmp_path
    ):
        # The reply cache only exists alongside a WAL: without one, a
        # restart loses the state the cache would answer for.
        runtime = shard_runtime(
            workload, workload_config, 0, 1, wal_dir=tmp_path
        )
        request = next(
            item for item in workload.timeline if item.is_request
        )
        frame = ServiceRequest(
            id=5, user_id=request.user_id, x=request.location.x,
            y=request.location.y, t=request.location.t,
            service=SERVICE, seq=0,
        )
        first = runtime.execute(frame)
        assert isinstance(first, DecisionReply)
        fingerprint = runtime.fingerprint()
        resent = runtime.execute(
            ServiceRequest(
                id=99, user_id=request.user_id, x=request.location.x,
                y=request.location.y, t=request.location.t,
                service=SERVICE, seq=0,
            )
        )
        # Same decision, new correlation id, NO re-execution.
        assert isinstance(resent, DecisionReply)
        assert resent.id == 99
        assert decision_key(resent) == decision_key(first)
        assert runtime.fingerprint() == fingerprint

    def test_wal_replay_reconstructs_fingerprint(
        self, workload, workload_config, tmp_path
    ):
        live = shard_runtime(
            workload, workload_config, 0, 2, wal_dir=tmp_path
        )
        for frame in frames_for(workload.timeline[:120]):
            if shard_of(frame.user_id, 2) == 0:
                live.execute(frame)
        fingerprint = live.fingerprint()
        live.close()
        restored = shard_runtime(
            workload, workload_config, 0, 2, wal_dir=tmp_path
        )
        assert restored.replayed > 0
        assert restored.applied_seq == live.applied_seq
        assert restored.fingerprint() == fingerprint
        restored.close()


class TestShardRouter:
    def test_routing_and_decisions(self, workload, workload_config):
        async def run():
            router = ShardRouter(
                workload, workload_config, n_shards=4, config=WIDE_OPEN
            )
            await router.start()
            session = router.open_session("t")
            decisions = 0
            for frame in frames_for(workload.timeline[:200]):
                reply = await router.submit(session, frame)
                assert not isinstance(reply, ErrorReply), reply
                if isinstance(reply, DecisionReply):
                    decisions += 1
            stats = await router.submit(session, StatsRequest(id=1))
            assert stats.served == 200
            await router.close()
            return decisions

        assert asyncio.run(run()) > 0

    def test_wrong_shard_rejected(self, workload, workload_config):
        async def run():
            router = ShardRouter(
                workload,
                workload_config,
                n_shards=4,
                config=WIDE_OPEN,
                shard_ids=[0, 2],
            )
            await router.start()
            session = router.open_session("t")
            unowned = next(
                u for u in workload.user_ids if u % 4 in (1, 3)
            )
            reply = await router.submit(
                session,
                LocationUpdate(id=1, user_id=unowned, x=0.0, y=0.0,
                               t=0.0),
            )
            await router.close()
            return reply

        reply = asyncio.run(run())
        assert isinstance(reply, ErrorReply)
        assert reply.code == "wrong_shard"

    def test_hello_and_control_ops(self, workload, workload_config):
        async def run():
            router = ShardRouter(
                workload, workload_config, n_shards=2, config=WIDE_OPEN
            )
            await router.start()
            session = router.open_session("t")
            welcome = await router.submit(session, Hello(client="t"))
            assert isinstance(welcome, Welcome)
            assert welcome.server == WIDE_OPEN.server_name
            health = await router.submit(session, HealthRequest(id=2))
            assert health.status == "ok"
            metrics = await router.submit(
                session, MetricsRequest(id=3)
            )
            # Telemetry defaults off: the shared renderer says so.
            assert isinstance(metrics, ErrorReply)
            assert metrics.code == "no_telemetry"
            drained = await router.submit(session, DrainRequest(id=4))
            assert drained.pending == 0
            rejected = await router.submit(
                session,
                LocationUpdate(id=5, user_id=0, x=0.0, y=0.0, t=0.0),
            )
            assert isinstance(rejected, ErrorReply)
            assert rejected.code == "draining"
            await router.close()

        asyncio.run(run())

    def test_queue_shed_with_retry_after(self, workload, workload_config):
        async def run():
            router = ShardRouter(
                workload,
                workload_config,
                n_shards=1,
                config=ServeConfig(max_queue_depth=1,
                                   max_inflight=100_000),
            )
            # No start(): the dispatcher never drains, so the second
            # submit must shed on queue depth.
            session = router.open_session("t")
            item = workload.timeline[0]
            first = asyncio.ensure_future(
                router.submit(
                    session,
                    LocationUpdate(
                        id=1, user_id=item.user_id, x=item.location.x,
                        y=item.location.y, t=item.location.t,
                    ),
                )
            )
            await asyncio.sleep(0)
            shed = await router.submit(
                session,
                LocationUpdate(
                    id=2, user_id=item.user_id, x=item.location.x,
                    y=item.location.y, t=item.location.t,
                ),
            )
            first.cancel()
            return shed

        shed = asyncio.run(run())
        assert isinstance(shed, ErrorReply)
        assert shed.code == "overloaded"
        assert shed.retry_after is not None and shed.retry_after > 0

    @pytest.mark.parametrize("shape", ["engine", 1, 4])
    def test_public_frontend_ignores_client_seq(
        self, workload, workload_config, shape
    ):
        """A client's ``seq`` neither replays a reply nor stalls a shard.

        Only a worker behind a supervisor executes frame seqs as sent.
        On ``TrustedServer(engine)`` and on a router without a shard
        subset (the daemon's default one-shard shape, ``--shards 4``), a
        request claiming ``seq=0`` after another user's request, and an
        update claiming a huge seq, are served like unsequenced ops.
        """
        frames = frames_for(workload.timeline[:80])
        requests = [
            index
            for index, frame in enumerate(frames)
            if isinstance(frame, ServiceRequest)
        ]
        first = requests[0]
        replay = next(
            index
            for index in requests
            if frames[index].user_id != frames[first].user_id
        )
        jump = next(
            index
            for index in range(replay + 1, len(frames))
            if isinstance(frames[index], LocationUpdate)
        )
        tampered = list(frames)
        tampered[replay] = clone_frame(frames[replay], seq=0)
        tampered[jump] = clone_frame(frames[jump], seq=10**9)

        def fresh_server():
            if shape == "engine":
                return TrustedServer(
                    build_engine(workload, workload_config), WIDE_OPEN
                )
            return ShardRouter(
                workload, workload_config, n_shards=shape, config=WIDE_OPEN
            )

        async def serve(sent):
            server = await fresh_server().start()
            conn = LoopbackTransport(server).connect("t")
            replies = [await conn.send(frame) for frame in sent]
            fingerprints = [
                sequencer.runtime.fingerprint()
                for sequencer in server.sequencers.values()
            ]
            await server.close()
            return replies, fingerprints

        replies, fingerprints = asyncio.run(serve(tampered))
        expected, expected_fingerprints = asyncio.run(serve(frames))
        assert isinstance(replies[replay], DecisionReply)
        assert replies[replay].pseudonym != replies[first].pseudonym
        assert replies == expected
        # Same applied seqs and state: the huge seq moved nothing.
        assert fingerprints == expected_fingerprints

    def test_n_shards_validated(self, workload, workload_config):
        with pytest.raises(ValueError):
            ShardRouter(workload, workload_config, n_shards=0)
