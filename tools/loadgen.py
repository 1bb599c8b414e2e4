#!/usr/bin/env python3
"""Open-loop load generator for the Trusted Server serving frontend.

Self-hosts a :class:`repro.serve.server.TrustedServer` over real TCP
sockets (the default), partitions the seeded city workload across
``--clients`` pipelined connections, fires it at ``--rate`` operations
per second (open-loop: send times never wait for replies), then drains
the server and prints the latency/throughput/shed report.

Point it at an already-running daemon (``tools/serve_daemon.py``) with
``--host``/``--port``; the daemon must serve the same seeded workload
for ``--verify`` to be meaningful.

Exit status is non-zero when the run was not clean: any protocol or
internal error, an unclean shutdown, or (with ``--verify``) any
mismatch between the served decision stream and the offline
``Engine.process_batch`` replay.

Usage (what CI's serving-smoke step runs)::

    PYTHONPATH=src python tools/loadgen.py --requests 200 --clients 4
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.serve.gate import GateConfig  # noqa: E402
from repro.serve.loadgen import (  # noqa: E402
    LoadgenConfig,
    WorkloadConfig,
    run_loadgen,
)
from repro.serve.server import ServeConfig  # noqa: E402


def parse_args(argv: "list[str] | None" = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Open-loop load generator for the Trusted Server"
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=200,
        help="service requests to issue (default: 200)",
    )
    parser.add_argument(
        "--clients",
        type=int,
        default=4,
        help="concurrent client connections (default: 4)",
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=2000.0,
        help="offered arrival rate, operations/s (default: 2000)",
    )
    parser.add_argument(
        "--transport",
        choices=("tcp", "tls", "http", "loopback"),
        default="tcp",
        help=(
            "tcp (plaintext sockets, default), tls (NDJSON over TLS), "
            "http (POST /v1/frame bodies), or in-process loopback"
        ),
    )
    parser.add_argument(
        "--host",
        default=None,
        help="connect to an external daemon instead of self-hosting",
    )
    parser.add_argument(
        "--port", type=int, default=None, help="external daemon port"
    )
    parser.add_argument(
        "--token",
        default=None,
        help="bearer token sent in the hello (gated daemons)",
    )
    parser.add_argument(
        "--tls-cert",
        default=None,
        help="server certificate for self-hosted TLS runs",
    )
    parser.add_argument(
        "--tls-key",
        default=None,
        help="server private key for self-hosted TLS runs",
    )
    parser.add_argument(
        "--tls-ca",
        default=None,
        help=(
            "trust anchor to pin when dialing (defaults to --tls-cert "
            "for self-signed dev certs)"
        ),
    )
    parser.add_argument(
        "--reconnect",
        type=int,
        default=0,
        help="re-dial dropped sockets up to N times with backoff",
    )
    parser.add_argument(
        "--gate-rate",
        type=float,
        default=None,
        help=(
            "install a connection gate on the self-hosted server with "
            "this per-client ops/s budget (with --token: auth too)"
        ),
    )
    parser.add_argument(
        "--gate-burst",
        type=float,
        default=None,
        help="gate bucket burst capacity (default: one second of rate)",
    )
    parser.add_argument(
        "--gate-max-connections",
        type=int,
        default=None,
        help="gate concurrent-connection cap (self-hosted runs)",
    )
    parser.add_argument(
        "--seed", type=int, default=11, help="workload seed (default: 11)"
    )
    parser.add_argument(
        "--requests-only",
        action="store_true",
        help="send only service requests, no location updates",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="compare served decisions against the offline batch replay",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help="retry shed operations up to N times with backoff",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="negotiate trace propagation and mint client root spans",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run the server's sampling profiler across the pass",
    )
    parser.add_argument(
        "--profile-interval-ms",
        type=float,
        default=5.0,
        help="profiler sampling interval in ms (default: 5)",
    )
    parser.add_argument(
        "--max-queue-depth",
        type=int,
        default=1024,
        help="server dispatch-queue bound (self-hosted runs)",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help="per-session inflight cap (self-hosted runs)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the full report as JSON instead of the summary",
    )
    return parser.parse_args(argv)


def main(argv: "list[str] | None" = None) -> int:
    args = parse_args(argv)
    gate = None
    if args.host is None and (
        args.token is not None
        or args.gate_rate is not None
        or args.gate_max_connections is not None
    ):
        # Self-hosted runs exercise the gate they would face in
        # production: the offered token is also the accepted one.
        gate = GateConfig(
            tokens=(args.token,) if args.token is not None else None,
            rate_limit=args.gate_rate,
            burst=args.gate_burst,
            max_connections=args.gate_max_connections,
        )
    config = LoadgenConfig(
        workload=WorkloadConfig(seed=args.seed),
        serve=ServeConfig(
            max_queue_depth=args.max_queue_depth,
            max_inflight=args.max_inflight,
        ),
        requests=args.requests,
        clients=args.clients,
        rate=args.rate,
        transport=args.transport,
        host=args.host,
        port=args.port,
        token=args.token,
        tls_cert=args.tls_cert,
        tls_key=args.tls_key,
        tls_ca=args.tls_ca,
        gate=gate,
        reconnect=args.reconnect,
        include_updates=not args.requests_only,
        verify=args.verify,
        retries=args.retries,
        trace=args.trace,
        profile=args.profile,
        profile_interval_ms=args.profile_interval_ms,
    )
    report = asyncio.run(run_loadgen(config))
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for line in report.summary_lines():
            print(line)
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
