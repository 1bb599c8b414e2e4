#!/usr/bin/env python3
"""Polling terminal dashboard for a running Trusted Server daemon.

``obstop`` speaks the same NDJSON protocol as every other client: one
connection, then a ``health`` + ``stats`` + ``metrics`` + ``traces``
round per refresh.  No curses, no third-party TUI — each refresh
prints a fixed-width block (request rate, queue depth, per-stage
p50/p99 recovered from the scraped Prometheus buckets, shed rate, SLO
status, and the slowest recent traces), so the output works equally
well in a pipe, a CI log, or a terminal watch loop.

Usage::

    PYTHONPATH=src python tools/serve_daemon.py --port 7411 &
    PYTHONPATH=src python tools/obstop.py --port 7411 --interval 2
    PYTHONPATH=src python tools/obstop.py --port 7411 --once
    PYTHONPATH=src python tools/obstop.py \
        --target 127.0.0.1:7411 --target 127.0.0.1:7412 --once

Repeatable ``--target host:port`` flags switch to fleet mode: every
round scrapes all workers concurrently and renders one merged view
(:mod:`repro.obs.aggregate` semantics — counters and histogram buckets
summed, gauges per-worker, traces grouped across workers by trace id).

``--once`` doubles as a CI/cron health probe: exit 0 when the server
(or every fleet worker) reports ``status=="ok"`` with SLOs green,
exit 1 otherwise, exit 2 when the target cannot be reached at all.

The per-stage percentiles come from
:func:`repro.obs.export.quantile_from_buckets` over the
``engine_stage_ms`` cumulative bucket series — the same numbers the
server itself would report, recovered purely from the exposition text.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path
from typing import Any, Mapping

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.aggregate import FleetView  # noqa: E402
from repro.obs.export import (  # noqa: E402
    parse_prometheus,
    quantile_from_buckets,
)
from repro.serve.client import ServeClientError  # noqa: E402
from repro.serve.fleet import collect_fleet, dial  # noqa: E402
from repro.serve.transports import client_ssl_context  # noqa: E402

#: Canonical engine stage order (the pipeline's six stages) — stages
#: appear in this order first, anything else alphabetically after.
STAGE_ORDER = (
    "quiet_gate",
    "monitor_match",
    "generalize",
    "unlink",
    "risk_policy",
    "audit",
)


async def collect(client: Any, trace_limit: int = 8) -> dict:
    """One polling round against a connected :class:`ServeClient`.

    Returns a plain dict (no frame objects), so renderers and tests
    never touch the wire types.  ``metrics`` failures (telemetry
    disabled on the server) degrade to an empty sample set.
    """
    health = await client.health()
    stats = await client.stats()
    try:
        samples = parse_prometheus((await client.metrics()).body)
    except ServeClientError:
        samples = {}
    try:
        traces = json.loads((await client.traces(trace_limit)).body)
    except ServeClientError:
        traces = []
    return {
        "t": time.monotonic(),
        "status": health.status,
        "uptime_s": health.uptime_s,
        "queue_depth": health.queue_depth,
        "sessions": health.sessions,
        "served": health.served,
        "shed": health.shed,
        "slo_ok": health.slo_ok,
        "breaches": health.breaches,
        "accepted": stats.accepted,
        "rejected": stats.rejected,
        "protocol_errors": stats.protocol_errors,
        "samples": samples,
        "traces": traces,
    }


def stage_latencies(
    samples: Mapping[tuple[str, tuple[tuple[str, str], ...]], float],
) -> list[tuple[str, float, float, int]]:
    """Recover ``(stage, p50_ms, p99_ms, count)`` rows from a scrape."""
    buckets: dict[str, dict[float, float]] = {}
    counts: dict[str, int] = {}
    for (name, labels), value in samples.items():
        stage = dict(labels).get("stage")
        if stage is None:
            continue
        if name == "engine_stage_ms_bucket":
            bound = dict(labels).get("le", "+Inf")
            buckets.setdefault(stage, {})[float(bound)] = value
        elif name == "engine_stage_ms_count":
            counts[stage] = int(value)
    known = [s for s in STAGE_ORDER if s in counts]
    extra = sorted(s for s in counts if s not in STAGE_ORDER)
    rows = []
    for stage in known + extra:
        count = counts[stage]
        series = buckets.get(stage, {})
        p50 = quantile_from_buckets(series, count, 0.5)
        p99 = quantile_from_buckets(series, count, 0.99)
        rows.append((stage, p50, p99, count))
    return rows


def _rate(now: dict, prev: dict | None) -> float:
    """Served requests per second since the previous poll."""
    if prev is None:
        uptime = now["uptime_s"]
        return now["served"] / uptime if uptime > 0 else 0.0
    dt = now["t"] - prev["t"]
    if dt <= 0:
        return 0.0
    return max(0.0, (now["served"] - prev["served"]) / dt)


def render_dashboard(
    now: dict, prev: dict | None = None, host: str = "?", port: int = 0
) -> list[str]:
    """Fixed-width text block for one polling round."""
    total = now["served"] + now["shed"]
    shed_pct = 100.0 * now["shed"] / total if total else 0.0
    slo = "ok" if now["slo_ok"] else "BREACH"
    lines = [
        (
            f"repro-ts obstop — {host}:{port}  "
            f"status {now['status']}  up {now['uptime_s']:.1f}s"
        ),
        (
            f"req/s {_rate(now, prev):8.1f}  queue {now['queue_depth']:4d}"
            f"  sessions {now['sessions']:3d}  served {now['served']}"
        ),
        (
            f"shed {now['shed']} ({shed_pct:.1f}%)  "
            f"rejected {now['rejected']}  "
            f"proto_errs {now['protocol_errors']}  "
            f"slo {slo}  breaches {now['breaches']}"
        ),
    ]
    rows = stage_latencies(now["samples"])
    if rows:
        lines.append("stage            p50 ms    p99 ms     count")
        for stage, p50, p99, count in rows:
            lines.append(
                f"  {stage:<14} {p50:8.3f}  {p99:8.3f}  {count:8d}"
            )
    traces = sorted(
        now["traces"],
        key=lambda t: t.get("total_ms") or 0.0,
        reverse=True,
    )[:5]
    if traces:
        lines.append("slowest recent traces:")
        lines.append(
            "  trace_id          op       decision    "
            "queue_ms  total_ms"
        )
        for entry in traces:
            decision = entry.get("decision") or (
                "shed" if entry.get("shed") else "-"
            )
            lines.append(
                f"  {entry.get('trace_id') or '-':<16}  "
                f"{entry.get('op') or '-':<7}  "
                f"{decision:<10}  "
                f"{entry.get('queue_ms') or 0.0:8.2f}  "
                f"{entry.get('total_ms') or 0.0:8.2f}"
            )
    return lines


def render_fleet(view: FleetView) -> list[str]:
    """Fixed-width text block for one fleet polling round."""
    served = sum(
        value
        for (name, _labels), value in view.samples.items()
        if name == "serve_served_total"
    )
    lines = [
        (
            f"repro-ts fleet — {len(view.workers)} workers  "
            f"healthy {view.healthy}  served {served:.0f}"
        )
    ]
    for worker in view.workers:
        health = view.scrapes[worker].health or {}
        slo = "ok" if health.get("slo_ok", True) else "BREACH"
        lines.append(
            f"  {worker:<20} status {health.get('status', '?'):<8} "
            f"queue {health.get('queue_depth', 0):4d}  "
            f"served {health.get('served', 0):6d}  "
            f"shed {health.get('shed', 0):4d}  slo {slo}"
        )
    for target, error in sorted(view.errors.items()):
        lines.append(f"  {target:<20} UNREACHABLE: {error}")
    if view.shards:
        served_by = view.shard_series("serve_served_total")
        shed_by = view.shard_series("serve_shed_total")
        lines.append("per shard        served      shed")
        for shard in view.shards:
            lines.append(
                f"  shard {shard:<8} "
                f"{served_by.get(shard, 0.0):8.0f}  "
                f"{shed_by.get(shard, 0.0):8.0f}"
            )
    rows = stage_latencies(view.samples)
    if rows:
        lines.append("fleet stage      p50 ms    p99 ms     count")
        for stage, p50, p99, count in rows:
            lines.append(
                f"  {stage:<14} {p50:8.3f}  {p99:8.3f}  {count:8d}"
            )
    slow = view.traces[:5]
    if slow:
        lines.append("slowest fleet traces:")
        for trace in slow:
            decision = trace.decision or (
                "shed" if trace.shed else "-"
            )
            lines.append(
                f"  {trace.trace_id:<16}  {trace.op or '-':<7}  "
                f"{decision:<10}  {trace.total_ms:8.2f}ms  "
                f"workers={','.join(trace.workers)}"
            )
    return lines


async def run_fleet(args: argparse.Namespace) -> int:
    """Fleet mode: merged view over every ``--target`` per round."""
    rounds = 1 if args.once else args.count
    i = 0
    healthy = True
    while rounds <= 0 or i < rounds:
        view = await collect_fleet(
            list(args.target),
            trace_limit=args.traces,
            transport=args.transport,
            tls_ca=args.tls_ca,
            token=args.token,
        )
        print("\n".join(render_fleet(view)), flush=True)
        healthy = view.healthy
        i += 1
        if not (rounds <= 0 or i < rounds):
            break
        await asyncio.sleep(args.interval)
        print(flush=True)
    if args.once:
        return 0 if healthy else 1
    return 0


async def run(args: argparse.Namespace) -> int:
    if args.target:
        return await run_fleet(args)
    ssl_context = (
        client_ssl_context(args.tls_ca)
        if args.tls_ca is not None
        else None
    )
    client = await dial(
        args.host,
        args.port,
        transport=args.transport,
        client="obstop",
        ssl=ssl_context,
        token=args.token,
    )
    healthy = True
    try:
        prev: dict | None = None
        rounds = 1 if args.once else args.count
        i = 0
        while rounds <= 0 or i < rounds:
            now = await collect(client, trace_limit=args.traces)
            block = render_dashboard(
                now, prev, host=args.host, port=args.port
            )
            print("\n".join(block), flush=True)
            healthy = now["status"] == "ok" and now["slo_ok"]
            prev = now
            i += 1
            if not (rounds <= 0 or i < rounds):
                break
            await asyncio.sleep(args.interval)
            print(flush=True)
    finally:
        await client.close()
    if args.once:
        return 0 if healthy else 1
    return 0


def parse_args(argv: "list[str] | None" = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Polling dashboard for the Trusted Server daemon"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=None)
    parser.add_argument(
        "--target",
        action="append",
        default=None,
        metavar="HOST:PORT",
        help=(
            "fleet mode: scrape this worker each round (repeatable); "
            "replaces --host/--port"
        ),
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between refreshes (default: 2)",
    )
    parser.add_argument(
        "--count",
        type=int,
        default=0,
        help="refreshes before exiting (default: 0 = forever)",
    )
    parser.add_argument(
        "--once", action="store_true", help="one refresh, then exit"
    )
    parser.add_argument(
        "--traces",
        type=int,
        default=8,
        help="recent traces to fetch per refresh (default: 8)",
    )
    parser.add_argument(
        "--transport",
        choices=("tcp", "tls", "http"),
        default="tcp",
        help="how to dial the daemon(s) (default: tcp)",
    )
    parser.add_argument(
        "--tls-ca",
        default=None,
        metavar="PEM",
        help="pin this trust anchor when dialing (implies TLS)",
    )
    parser.add_argument(
        "--token",
        default=None,
        help="bearer token for gated daemons",
    )
    args = parser.parse_args(argv)
    if not args.target and args.port is None:
        parser.error("either --port or at least one --target is required")
    return args


def main(argv: "list[str] | None" = None) -> int:
    try:
        return asyncio.run(run(parse_args(argv)))
    except KeyboardInterrupt:
        return 0
    except (ServeClientError, ConnectionError, OSError) as exc:
        print(f"obstop: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
