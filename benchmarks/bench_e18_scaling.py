"""E18 — sharded serving scale-out: capacity, durability, restore.

The sharded stack (``repro.serve.shard`` / ``repro.serve.supervisor``)
against the single-sequencer frontend of E17 measures:

* **single-sequencer capacity** — the E17 capacity-arm methodology,
  replicated within-run: open-loop loadgen over TCP, 8 clients,
  effectively infinite offered rate, requests only, telemetry off.
  This is the per-request cost of the one-dispatcher-one-engine
  architecture: every frame crosses the strict codec, the asyncio
  transport, and the single sequencer queue (clients share the same
  core, as in E17);
* **sharded kernel** — the full mixed timeline (updates + requests)
  fed as pre-built frames straight to the owning shard's runtime:
  routing, seq allocation, and the engine call per op, with no codec,
  queue, or event loop.  This is a *kernel bound* on the sharded data
  plane, not a fleet number — every real deployment adds the wire and
  the sequencer on top.  **Gated**: the 4-shard arm must clear
  ``SCALING_FLOOR`` (10x) the single-sequencer capacity arm, and its
  per-user decision streams must equal the offline replay exactly;
* **sharded + WAL** — the kernel arm with per-shard write-ahead logging
  (``fsync="batch"``): the durability tax.  After the pass, a fresh
  router recovers the WAL directories and must reconstruct every
  shard's state fingerprint byte-equivalently (**gated**);
* **supervised 2x4** — two worker subprocesses over four durable
  shards behind ``WorkerSupervisor``, driven by the verifying loadgen:
  the cross-process path stays decision-equivalent (**gated**;
  throughput informational — on one core the subprocess hop buys
  isolation, not speed).

Both scaling arms are wall-clock measurements on a shared host, so
they are sampled in *paired rounds* — each round measures the
capacity arm and then the kernel arm back to back, and the gate takes
the best per-round ratio.  A noisy-neighbor window slows both arms of
a round together and cancels out of its ratio; a real regression
drags every round down.  The *ratio floor* is asserted in-test (like
E17's capacity bar) while the exported gated metrics are the
seeded-deterministic decision counts and structural pass/fail
indicators; raw ops/s land in the informational ``latency`` section.
"""

import asyncio
import gc
import time

from repro.experiments.harness import Table
from repro.serve.loadgen import (
    SERVICE,
    LoadgenConfig,
    WorkloadConfig,
    build_workload,
    decision_key,
    offline_replay,
    run_loadgen,
)
from repro.serve.protocol import (
    DecisionReply,
    ErrorReply,
    LocationUpdate,
    ServiceRequest,
)
from repro.serve.server import ServeConfig, shard_of
from repro.serve.shard import ShardRouter

SERVING_WORKLOAD = WorkloadConfig()  # seed 11, 12 commuters, 6 wanderers
WIDE_OPEN = ServeConfig(max_queue_depth=1 << 17, max_inflight=1 << 17)
#: The sharded data plane must serve the mixed timeline at >= 10x the
#: single-sequencer E17 capacity arm (requests/s over TCP).
SCALING_FLOOR = 10.0
#: Paired measurement rounds; the gate takes the best round's ratio.
SCALING_ROUNDS = 3
#: Kernel passes per round (best-of, absorbs scheduler hiccups).
KERNEL_PASSES = 3
CAPACITY_REQUESTS = 400
#: Shard counts for the in-process kernel arms (first one is gated).
SHARD_ARMS = (4, 8)
#: Supervised demo shape: 2 worker subprocesses x 4 durable shards.
SUPERVISED_WORKERS, SUPERVISED_SHARDS = 2, 4
SUPERVISED_REQUESTS = 200


def _frames(workload):
    """The full mixed timeline as protocol frames, ids pre-assigned."""
    frames = []
    for index, item in enumerate(workload.timeline, start=1):
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


def _capacity_rps() -> tuple[float, int]:
    """One E17-methodology capacity trial: requests/s, decisions."""
    report = asyncio.run(
        run_loadgen(
            LoadgenConfig(
                workload=SERVING_WORKLOAD,
                serve=WIDE_OPEN,
                requests=CAPACITY_REQUESTS,
                clients=8,
                rate=1e6,
                transport="tcp",
                include_updates=False,
                telemetry_enabled=False,
            )
        )
    )
    assert report.ok, report.to_dict()
    return report.throughput_rps, report.decisions


def _router(workload, n_shards, data_dir=None):
    return ShardRouter(
        workload,
        SERVING_WORKLOAD,
        n_shards=n_shards,
        config=WIDE_OPEN,
        data_dir=data_dir,
    )


def _kernel(workload, frames, n_shards, data_dir=None):
    """Execute the pre-built timeline on the owning shard runtimes.

    Only the execute loop is timed.  Returns ``(ops_per_s, per-user
    decision keys, router)``; the router is left open so the WAL arm
    can fingerprint and recover it.
    """
    router = _router(workload, n_shards, data_dir=data_dir)
    sequencers = router.sequencers
    gc.collect()
    started = time.perf_counter()
    replies = []
    for frame in frames:
        sequencer = sequencers[shard_of(frame.user_id, n_shards)]
        replies.append(
            sequencer.runtime.execute(frame, sequencer.allocate_seq())
        )
    elapsed = time.perf_counter() - started
    decisions: dict[int, list] = {}
    for frame, reply in zip(frames, replies):
        if type(reply) is DecisionReply:
            decisions.setdefault(frame.user_id, []).append(
                decision_key(reply)
            )
        elif isinstance(reply, ErrorReply):  # pragma: no cover
            raise AssertionError(f"kernel error: {reply}")
    return len(frames) / elapsed, decisions, router


def _scaling_rounds(workload, frames, rounds):
    """Paired capacity/kernel rounds for the gated shard arm.

    Per round: one capacity trial, then ``KERNEL_PASSES`` kernel
    passes (best kept).  Returns the per-round records and the best
    per-round ratio — the number the floor gates.
    """
    records = []
    for _ in range(rounds):
        capacity, capacity_decisions = _capacity_rps()
        best_ops, decisions = 0.0, None
        for _pass in range(KERNEL_PASSES):
            ops, pass_decisions, _unused = _kernel(
                workload, frames, SHARD_ARMS[0]
            )
            if ops > best_ops:
                best_ops = ops
            decisions = pass_decisions
        # ``round<i>_firehose_ops`` is an exported key; older
        # artifacts and baselines compare against it by name.
        records.append(
            {
                "capacity_rps": capacity,
                "capacity_decisions": capacity_decisions,
                "firehose_ops": best_ops,
                "ratio": best_ops / capacity,
                "decisions": decisions,
            }
        )
    return records, max(r["ratio"] for r in records)


def _socket_fanout_report(workload):
    """Requests-only loadgen against the router *over real sockets*.

    The gated kernel arm times the shard runtimes with the wire and
    the queue factored out; this arm times the identical router behind
    a :class:`TcpTransport` — strict codec, asyncio streams,
    per-connection handler tasks — with the E17 capacity-arm client
    shape.  On one core the event loop is shared by all 8 clients and
    the router, so the ratio to the single sequencer is
    *informational* (the 10x floor is a data-plane property); what is
    asserted is cleanliness: every request crosses the socket and
    comes back a decision.
    """

    async def run():
        router = _router(workload, SHARD_ARMS[0])
        await router.start()
        try:
            return await run_loadgen(
                LoadgenConfig(
                    workload=SERVING_WORKLOAD,
                    serve=WIDE_OPEN,
                    requests=CAPACITY_REQUESTS,
                    clients=8,
                    rate=1e6,
                    transport="tcp",
                    include_updates=False,
                    telemetry_enabled=False,
                ),
                server=router,
            )
        finally:
            await router.close()

    return asyncio.run(run())


def _supervised_report(tmp_path, daemon_path):
    """Verifying loadgen pass against a 2x4 subprocess fleet."""

    async def run():
        from repro.serve.supervisor import WorkerSupervisor

        supervisor = WorkerSupervisor(
            SUPERVISED_WORKERS,
            SUPERVISED_SHARDS,
            tmp_path,
            config=WIDE_OPEN,
            worker_args=[
                "--seed", str(SERVING_WORKLOAD.seed),
                "--max-queue-depth", str(WIDE_OPEN.max_queue_depth),
                "--max-inflight", str(WIDE_OPEN.max_inflight),
            ],
            daemon_path=daemon_path,
        )
        await supervisor.start()
        try:
            return await run_loadgen(
                LoadgenConfig(
                    workload=SERVING_WORKLOAD,
                    serve=WIDE_OPEN,
                    requests=SUPERVISED_REQUESTS,
                    clients=4,
                    rate=1e6,
                    transport="loopback",
                    verify=True,
                    telemetry_enabled=False,
                ),
                server=supervisor,
            )
        finally:
            await supervisor.close()

    return asyncio.run(run())


def run_e18(tmp_path, daemon_path):
    workload = build_workload(SERVING_WORKLOAD)
    frames = _frames(workload)
    offline: dict[int, list] = {}
    for event in offline_replay(workload, SERVING_WORKLOAD):
        offline.setdefault(event.request.user_id, []).append(
            decision_key(event)
        )
    n_requests = sum(1 for f in frames if type(f) is ServiceRequest)

    rounds, ratio = _scaling_rounds(
        workload, frames, SCALING_ROUNDS
    )
    if ratio < SCALING_FLOOR:
        # Two extra paired rounds before failing: a whole-run noise
        # burst gets fresh windows; a real regression fails again.
        retry, retry_ratio = _scaling_rounds(workload, frames, 2)
        rounds.extend(retry)
        ratio = max(ratio, retry_ratio)
    best_round = max(rounds, key=lambda r: r["ratio"])
    sharded = {SHARD_ARMS[0]: best_round["firehose_ops"]}
    sharded_decisions = rounds[0]["decisions"]
    single_rps = best_round["capacity_rps"]
    single_decisions = rounds[0]["capacity_decisions"]
    for n_shards in SHARD_ARMS[1:]:  # informational wider arm
        ops, _decisions, _unused = _kernel(workload, frames, n_shards)
        sharded[n_shards] = ops

    # Durability arm: same kernel arm with the WAL on, then a cold
    # restart must replay every shard back to the same fingerprint.
    wal_dir = tmp_path / "wal-arm"
    wal_ops, _, wal_router = _kernel(
        workload, frames, SHARD_ARMS[0], data_dir=wal_dir
    )
    fingerprints = {
        shard_id: sequencer.runtime.fingerprint()
        for shard_id, sequencer in wal_router.sequencers.items()
    }
    for sequencer in wal_router.sequencers.values():
        sequencer.runtime.close()
    restored = _router(workload, SHARD_ARMS[0], data_dir=wal_dir)
    restore_equal = all(
        restored.sequencers[shard_id].runtime.fingerprint() == expected
        for shard_id, expected in fingerprints.items()
    )
    replayed = sum(
        sequencer.runtime.replayed
        for sequencer in restored.sequencers.values()
    )
    for sequencer in restored.sequencers.values():
        sequencer.runtime.close()

    socket_fanout = _socket_fanout_report(workload)

    supervised = _supervised_report(
        tmp_path / "supervised", daemon_path
    )
    return {
        "socket_fanout": socket_fanout,
        "frames": len(frames),
        "requests": n_requests,
        "rounds": rounds,
        "single_rps": single_rps,
        "single_decisions": single_decisions,
        "sharded": sharded,
        "sharded_decisions": sharded_decisions,
        "offline": offline,
        "ratio": ratio,
        "wal_ops": wal_ops,
        "restore_equal": restore_equal,
        "replayed": replayed,
        "supervised": supervised,
    }


def test_e18_scaling(benchmark, bench_export, tmp_path):
    import pathlib

    daemon = (
        pathlib.Path(__file__).resolve().parents[1]
        / "tools"
        / "serve_daemon.py"
    )
    result = benchmark.pedantic(
        run_e18, args=(tmp_path, daemon), rounds=1, iterations=1
    )
    single_rps = result["single_rps"]
    sharded = result["sharded"]
    supervised = result["supervised"]

    table = Table(
        "E18: sharded serving scale-out (ops/s; single arm is req/s)",
        ["arm", "shards", "ops/s", "vs single", "durable"],
    )
    table.add_row(
        ("single-sequencer", 1, round(single_rps), 1.0, "-")
    )
    for n_shards, ops in sorted(sharded.items()):
        table.add_row(
            (
                "sharded-kernel",
                n_shards,
                round(ops),
                round(ops / single_rps, 1),
                "-",
            )
        )
    table.add_row(
        (
            "sharded-wal",
            SHARD_ARMS[0],
            round(result["wal_ops"]),
            round(result["wal_ops"] / single_rps, 1),
            "fsync=batch",
        )
    )
    socket_fanout = result["socket_fanout"]
    table.add_row(
        (
            "socket-fanout",
            SHARD_ARMS[0],
            round(socket_fanout.throughput_rps),
            round(socket_fanout.throughput_rps / single_rps, 1),
            "-",
        )
    )
    table.add_row(
        (
            "supervised-2x4",
            SUPERVISED_SHARDS,
            round(supervised.throughput_rps),
            "-",
            "fsync=batch",
        )
    )
    table.print()

    decisions_match = result["sharded_decisions"] == result["offline"]
    metrics = {
        "single_decisions": float(result["single_decisions"]),
        "sharded_decision_users": float(
            len(result["sharded_decisions"])
        ),
        "sharded_decisions_match_offline": (
            1.0 if decisions_match else 0.0
        ),
        "scaling_floor_met": (
            1.0 if result["ratio"] >= SCALING_FLOOR else 0.0
        ),
        "wal_restore_equal": 1.0 if result["restore_equal"] else 0.0,
        "wal_replayed_ops": float(result["replayed"]),
        "supervised_verified": (
            1.0 if supervised.verified else 0.0
        ),
        "supervised_mismatches": float(supervised.mismatches),
        "socket_fanout_clean": 1.0 if socket_fanout.ok else 0.0,
        "socket_fanout_decisions": float(socket_fanout.decisions),
    }
    latency = {
        "serve.scaling_ops_per_s": {
            "single_sequencer_rps": single_rps,
            **{
                f"sharded_{n}": ops
                for n, ops in sorted(sharded.items())
            },
            "sharded_wal": result["wal_ops"],
            "socket_fanout": socket_fanout.throughput_rps,
            "supervised_2x4": supervised.throughput_rps,
        },
        "serve.scaling_ratio": {
            "sharded_over_single": result["ratio"],
            "wal_over_single": result["wal_ops"] / single_rps,
            "socket_fanout_over_single": (
                socket_fanout.throughput_rps / single_rps
            ),
            "floor": SCALING_FLOOR,
        },
        "serve.scaling_rounds": {
            f"round{i}_{name}": r[name]
            for i, r in enumerate(result["rounds"])
            for name in ("capacity_rps", "firehose_ops", "ratio")
        },
    }
    bench_export(
        "e18",
        metrics,
        workload={
            "serving_seed": SERVING_WORKLOAD.seed,
            "serving_commuters": SERVING_WORKLOAD.n_commuters,
            "serving_wanderers": SERVING_WORKLOAD.n_wanderers,
            "serving_days": SERVING_WORKLOAD.days,
            "timeline_frames": result["frames"],
            "timeline_requests": result["requests"],
            "capacity_requests": CAPACITY_REQUESTS,
            "scaling_rounds": SCALING_ROUNDS,
            "shard_arms": list(SHARD_ARMS),
            "supervised_shape": (
                f"{SUPERVISED_WORKERS}x{SUPERVISED_SHARDS}"
            ),
        },
        latency=latency,
    )

    # The scale-out bar: the sharded data plane serves the mixed
    # timeline at >= 10x the single-sequencer E17 capacity arm.
    assert result["ratio"] >= SCALING_FLOOR, (
        result["ratio"],
        result["rounds"],
    )
    # Scale-out must not cost fidelity: the sharded per-user decision
    # streams equal the offline replay exactly.
    assert decisions_match
    # Durability: a cold restart replays every shard back to the same
    # state fingerprint, and the WAL arm actually logged the timeline.
    assert result["restore_equal"]
    assert result["replayed"] == result["frames"]
    # The cross-process fleet serves the same decisions.
    assert supervised.ok, supervised.to_dict()
    assert supervised.verified is True
    assert supervised.mismatches == 0
    # The socket-to-socket router arm is clean end to end: every
    # request crossed the TCP frontend and earned a decision (its
    # speedup ratio is informational on a one-core host).
    assert socket_fanout.ok, socket_fanout.to_dict()
    assert socket_fanout.decisions == CAPACITY_REQUESTS
