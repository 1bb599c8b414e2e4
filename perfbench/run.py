#!/usr/bin/env python3
"""Out-of-process serving benchmark for the Trusted Server.

Boots the real daemon (``tools/serve_daemon.py``) as a child process,
drives one traffic mix at it over TCP from this process, checks every
served decision against an offline replay of exactly the operations
sent, and prints one JSON result as the last line of stdout::

    python3 perfbench/run.py --workload steady --seed 1 --seconds 30 \\
        --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
same traffic with a metrics scrape on either side of it and reports the
per-layer ledger (see ``ledger.py``).  Paths resolve against this file,
so any working directory will do.  Exit status 2 means the checkout
lacks the program under test.
"""

from __future__ import annotations

import argparse
import asyncio
import compileall
import gc
import json
import os
import random
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from drive import Lane, open_loop, render  # noqa: E402
from ledger import layer_metrics  # noqa: E402
from wire import CLIENT_CPUS, BenchError, Daemon, scrape  # noqa: E402

#: The synthetic city every daemon serves (the daemon's own default).
#: ``--seed`` shapes the traffic, not the city, so one seed's city
#: being cheaper to serve than another's is not read as noise.
CITY_SEED = 11
#: Boots per run; ``setup_s`` is their median.
SETUP_BOOTS = 9
#: Traffic before the measured window (caches, lazy imports, sessions).
WARMUP_S = 1.0
#: Latency percentiles are taken per slice of this many seconds; the
#: lower decile over slices is reported.  Other tenants of the host
#: only ever add time, so the quieter slices show the daemon's own cost.
SLICE_S = 0.5


#: Client connections; users are dealt over them.  Sixteen keep each
#: connection below the daemon's 64-op per-session inflight cap through
#: the daemon's own pauses (up to about half a second).
LANES = 16


@dataclass(frozen=True)
class Mix:
    """One traffic mix: a daemon shape and the load offered to it."""

    #: ``serve_daemon.py`` arguments; ``{data}`` is a fresh directory.
    shape: "tuple[str, ...]"
    #: Send only service requests (no plain location updates).
    requests_only: bool
    #: Offered ops/s over all connections (open loop).
    rate: float
    #: Ops due at the same instant; 1 spaces arrivals evenly.
    burst: int = 1


#: Why each mix exists is recorded in ``BENCHMARK.json``.
MIXES = {
    "steady": Mix(shape=(), requests_only=False, rate=1200.0),
    "requests": Mix(shape=(), requests_only=True, rate=800.0),
    "sharded": Mix(
        shape=("--shards", "4", "--data-dir", "{data}"),
        requests_only=False,
        rate=1200.0,
        burst=10,
    ),
}


def parse_args(argv: "list[str] | None") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(MIXES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 2 * SLICE_S:
        parser.error("--seconds must cover at least two latency slices")
    return args


def make_lanes(items: list, mix: Mix, seed: int) -> "list[Lane]":
    """Deal users over connections and pick where each starts its cycle.

    Both choices come from ``seed``; within a connection every user's
    operations keep their timeline order.
    """
    rng = random.Random(seed)
    users = sorted({item.user_id for item in items})
    rng.shuffle(users)
    owner = {user: rank % LANES for rank, user in enumerate(users)}
    lanes = [Lane([], []) for _ in range(LANES)]
    for index, item in enumerate(items):
        if mix.requests_only and not item.is_request:
            continue
        lane = lanes[owner[item.user_id]]
        location = item.location
        lane.ops.append(
            render(
                "request" if item.is_request else "update",
                item.user_id,
                location.x,
                location.y,
                location.t,
            )
        )
        lane.origin.append(index)
    for lane in lanes:
        start = rng.randrange(len(lane.ops))
        lane.ops = lane.ops[start:] + lane.ops[:start]
        lane.origin = lane.origin[start:] + lane.origin[:start]
    return lanes


def boot(mix: Mix, scratch: Path) -> "tuple[Daemon, float]":
    """Boot ``SETUP_BOOTS`` daemons; keep the last, median their times."""
    times = []
    daemon = None
    for attempt in range(SETUP_BOOTS):
        if daemon is not None:
            daemon.stop()
        data = scratch / f"data-{attempt}"
        data.mkdir()
        shape = [arg.replace("{data}", str(data)) for arg in mix.shape]
        daemon = Daemon(ROOT, ["--seed", str(CITY_SEED), *shape])
        times.append(daemon.start())
    assert daemon is not None
    return daemon, statistics.median(times)


async def drive(
    mix: Mix, daemon: Daemon, lanes: "list[Lane]", seconds: float,
    trace: bool,
) -> tuple:
    """Warm up, measure ``seconds``, settle.  Traced runs also scrape
    the daemon and read both sides' CPU time on either side of it."""
    loop = asyncio.get_running_loop()
    spans: "dict[str, list[float]]" = defaultdict(list)
    port = daemon.port

    async def timed_scrape() -> dict:
        start = loop.time()
        samples = await scrape(port)
        spans["scrape"].append(loop.time() - start)
        return samples

    if trace:
        before = await timed_scrape()
        daemon_cpu, client_cpu = daemon.cpu_s(), time.process_time()
    window = await open_loop(
        port, lanes, mix.rate, mix.burst, WARMUP_S, seconds, spans
    )
    if not trace:
        return window, spans, {}, {}
    spans["daemon_cpu"].append(daemon.cpu_s() - daemon_cpu)
    spans["client_cpu"].append(time.process_time() - client_cpu)
    return window, spans, before, await timed_scrape()


def latency(
    lanes: "list[Lane]", window: "tuple[float, float]"
) -> "tuple[float, float]":
    """p50 and p95 latency of the ops sent in the window: each
    percentile per ``SLICE_S`` slice, then the lower decile over
    slices, so stalls caused from outside cannot move it."""
    begin, end = window
    slices = max(1, round((end - begin) / SLICE_S))
    width = (end - begin) / slices
    latencies: "list[list[float]]" = [[] for _ in range(slices)]
    for lane in lanes:
        for sent, done in zip(lane.sent_at, lane.done_at):
            if begin <= sent < end:
                latencies[int((sent - begin) / width)].append(
                    (done - sent) * 1000.0
                )
    if min(len(sample) for sample in latencies) < 200:
        raise BenchError("fewer than 200 ops sent in a slice")
    cuts = [statistics.quantiles(sample, n=20) for sample in latencies]
    return (
        _lower_decile(cut[9] for cut in cuts),
        _lower_decile(cut[18] for cut in cuts),
    )


def end_to_end(
    lanes: "list[Lane]", window: "tuple[float, float]", setup_s: float
) -> "dict[str, tuple[float, str]]":
    """Completion rate in the window (between its first and last
    completion), p50 latency and set-up time.

    p95 is reported with the ledger instead, without a bound: a host
    that stalls the daemon for a few milliseconds every few dozen
    operations, for a whole run, moves it by more than any bound
    allowed here, while p50 barely moves.
    """
    begin, end = window
    completions = [
        done for lane in lanes for done in lane.done_at if begin <= done < end
    ]
    rate = (len(completions) - 1) / (max(completions) - min(completions))
    return {
        "throughput_ops_s": (rate, "ops/s"),
        "latency_p50_ms": (latency(lanes, window)[0], "ms"),
        "setup_s": (setup_s, "s"),
    }


def _lower_decile(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def _reply_key(reply: dict) -> tuple:
    """A served decision in ``repro.serve.loadgen.decision_key`` form."""
    context = reply.get("context")
    return (
        reply.get("decision"),
        reply.get("forwarded"),
        tuple(context) if context is not None else None,
        reply.get("lbqid"),
        reply.get("step"),
        reply.get("required_k"),
        reply.get("rotated"),
    )


def verify(workload, config, lanes: "list[Lane]") -> "tuple[int, int]":
    """``(failed, mismatches)``: replies of the wrong kind, and served
    decisions that differ from an offline ``Engine.process_batch``
    replay of exactly the operations sent, compared per user."""
    from repro.serve.loadgen import build_engine, decision_key

    items = workload.timeline
    sent_items = []
    served: "dict[int, list[dict]]" = defaultdict(list)
    failures: "Counter[str]" = Counter()
    for lane in lanes:
        for k, line in enumerate(lane.replies):
            item = items[lane.origin[k % len(lane.origin)]]
            sent_items.append(item)
            reply = json.loads(line) if line else {}
            if reply.get("op") != ("decision" if item.is_request else "ack"):
                failures[reply.get("code", "no reply")] += 1
            if item.is_request:
                served[item.user_id].append(reply)
    if failures:
        print(f"perfbench: failed replies {dict(failures)}", file=sys.stderr)
    expected: "dict[int, list[tuple]]" = defaultdict(list)
    for event in build_engine(workload, config).process_batch(sent_items):
        expected[event.request.user_id].append(decision_key(event))
    mismatches = 0
    for user in expected.keys() | served.keys():
        got, want = served[user], expected[user]
        mismatches += abs(len(got) - len(want))
        mismatches += sum(
            _reply_key(reply) != key for reply, key in zip(got, want)
        )
    return sum(failures.values()), mismatches


def run(args: argparse.Namespace) -> dict:
    from repro.serve.loadgen import WorkloadConfig, build_workload

    mix = MIXES[args.workload]
    config = WorkloadConfig(seed=CITY_SEED)
    workload = build_workload(config)
    lanes = make_lanes(workload.timeline, mix, args.seed)
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    daemon = None
    # The inputs are built: keep collections of them out of the
    # measurement, and keep the client off the daemon's cores.
    gc.freeze()
    os.sched_setaffinity(0, CLIENT_CPUS)
    try:
        daemon, setup_s = boot(mix, scratch)
        window, spans, before, after = asyncio.run(
            drive(mix, daemon, lanes, args.seconds, bool(args.trace))
        )
    finally:
        if daemon is not None:
            daemon.stop()
        shutil.rmtree(scratch, ignore_errors=True)
    failed, mismatches = verify(workload, config, lanes)
    if args.trace:
        metrics = layer_metrics(lanes, spans, before, after)
        metrics["latency_p95_ms"] = (latency(lanes, window)[1], "ms")
    else:
        metrics = end_to_end(lanes, window, setup_s)
    attempted = sum(lane.sent for lane in lanes)
    print(
        f"perfbench {args.workload} seed={args.seed}: {attempted} ops, "
        f"{failed} failed, {mismatches} decision mismatches",
        file=sys.stderr,
    )
    return {
        "correct": failed == 0 and mismatches == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv: "list[str] | None" = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "tools" / "serve_daemon.py").is_file() or not (
        ROOT / "src" / "repro" / "serve" / "loadgen.py"
    ).is_file():
        print(
            f"perfbench: no Trusted Server sources under {ROOT}",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Byte-compile up front so the first boot is not slower than the rest.
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(ROOT / "tools", quiet=1)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
