#!/usr/bin/env python3
"""Run the Trusted Server as a long-running TCP daemon.

Two deployment shapes, one frontend (a
:class:`~repro.serve.server.TrustedServer`) and one :func:`serve` path:

* **in-process** (default) — a router over ``--shards M`` shared-nothing
  shard engines in this process, one by default; add ``--data-dir``
  for per-shard write-ahead logs::

      PYTHONPATH=src python tools/serve_daemon.py --port 7411
      PYTHONPATH=src python tools/serve_daemon.py --shards 4 \
          --data-dir /var/lib/repro

* **multi-worker** (``--workers N --shards M --data-dir DIR``) — a
  :class:`~repro.serve.supervisor.WorkerSupervisor`: the same frontend,
  whose shards are forwarded to N worker processes (each serving the
  shards ``i mod N == w`` with durable WALs); it respawns any worker
  that dies, and the worker replays its logs::

      PYTHONPATH=src python tools/serve_daemon.py \
          --workers 2 --shards 4 --data-dir /var/lib/repro

``--worker-index`` is the internal worker entry point the supervisor
uses.  A worker reads its supervisor's per-boot token from the first
line of stdin, admits only hellos that carry it, and announces
``{"repro_worker": w, "port": p, "applied": {shard: seq}}`` as one JSON
line on stdout when ready.  Each worker's queue and in-flight limits
are derived from the supervisor's ``--max-queue-depth``.

Both shapes serve the same NDJSON protocol and drain gracefully on
SIGINT/SIGTERM or a client ``drain`` op.  ``--slo`` privacy rules
need the one-shard in-process shape: the monitor audits one store, and
serving it over several shards or workers waits on a store design
where anonymity sets span shards (ROADMAP item 3).

Hardening flags apply to every shape and compose freely:
``--tls-cert/--tls-key`` serve TLS (generate a dev pair with
``tools/gen_dev_cert.py``), ``--token``/``--token-file`` require a
bearer token in the hello, ``--gate-rate``/``--gate-burst``/
``--gate-max-connections`` rate-limit admitted clients, and
``--http-port`` adds an HTTP/1.1 frontend (``POST /v1/frame``) sharing
the same TLS context and gate.

Every shape records what its cold start cost, once, as the gauge
``serve.boot_ms{phase}`` in its ``metrics`` scrape: ``import`` (loading
this script's modules), ``workload`` (building the synthetic city; 0 in
a supervisor, whose workers build it), ``shards`` (constructing and
starting the shard engines, or spawning the workers) and ``listen``
(opening the frontends).
"""

from __future__ import annotations

import time

#: Taken before every other import, so ``serve.boot_ms{phase="import"}``
#: covers what loading the daemon costs.
BOOT_START = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import contextlib  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.config import TelemetryConfig  # noqa: E402
from repro.serve.gate import (  # noqa: E402
    ConnectionGate,
    GateConfig,
    load_tokens,
)
from repro.serve.http import HttpTransport  # noqa: E402
from repro.serve.loadgen import (  # noqa: E402
    WorkloadConfig,
    build_workload,
)
from repro.serve.server import ServeConfig  # noqa: E402
from repro.serve.shard import ShardRouter  # noqa: E402
from repro.serve.supervisor import (  # noqa: E402
    WorkerSupervisor,
    announce,
    worker_shards,
)
from repro.serve.transports import (  # noqa: E402
    TcpTransport,
    server_ssl_context,
)
from repro.serve.wal import WalConfig  # noqa: E402

IMPORT_MS = (time.perf_counter() - BOOT_START) * 1000.0


def parse_args(argv: "list[str] | None" = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Trusted Server NDJSON daemon"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="listen port (default: 0 = ephemeral, printed on start)",
    )
    parser.add_argument(
        "--seed", type=int, default=11, help="workload seed (default: 11)"
    )
    parser.add_argument("--max-queue-depth", type=int, default=1024)
    parser.add_argument("--max-inflight", type=int, default=64)
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help=(
            "spawn this many worker processes behind a supervising "
            "router (default: 0 = serve in-process)"
        ),
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help=(
            "partition users over this many shard engines "
            "(default: 1; with --workers, the worker count)"
        ),
    )
    parser.add_argument(
        "--data-dir",
        default=None,
        metavar="DIR",
        help=(
            "root of per-shard write-ahead logs (shard-<i>/wal.jsonl); "
            "required with --workers, optional with --shards"
        ),
    )
    parser.add_argument(
        "--wal-fsync",
        choices=("always", "batch", "never"),
        default="batch",
        help="WAL durability policy (default: batch)",
    )
    parser.add_argument(
        "--worker-index",
        type=int,
        default=None,
        help=argparse.SUPPRESS,  # internal: supervisor worker entry
    )
    parser.add_argument(
        "--slo",
        action="append",
        default=None,
        metavar="RULE",
        help="attach a privacy SLO rule (repeatable; one shard only)",
    )
    parser.add_argument(
        "--trace-sample-rate",
        type=float,
        default=1.0,
        help="head-sampling probability for new traces (default: 1.0)",
    )
    parser.add_argument(
        "--trace-jsonl",
        default=None,
        metavar="PATH",
        help="append span/event records to this JSONL sink",
    )
    parser.add_argument(
        "--worker",
        default=None,
        help="worker identity stamped onto every span record",
    )
    parser.add_argument(
        "--shard",
        default=None,
        help="shard identity stamped onto every span record",
    )
    parser.add_argument(
        "--tls-cert",
        default=None,
        metavar="PEM",
        help="serve TLS with this certificate (requires --tls-key)",
    )
    parser.add_argument(
        "--tls-key",
        default=None,
        metavar="PEM",
        help="private key matching --tls-cert",
    )
    parser.add_argument(
        "--token",
        action="append",
        default=None,
        metavar="TOKEN",
        help=(
            "accept this bearer token (repeatable); with any --token/"
            "--token-file, unauthenticated hellos earn bad_token"
        ),
    )
    parser.add_argument(
        "--token-file",
        default=None,
        metavar="PATH",
        help="accept the tokens in this file (one per line, # comments)",
    )
    parser.add_argument(
        "--gate-rate",
        type=float,
        default=None,
        help="per-client token-bucket rate limit, ops/s",
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
        help="cap on concurrent gated connections",
    )
    parser.add_argument(
        "--http-port",
        type=int,
        default=None,
        help=(
            "also serve HTTP/1.1 (POST /v1/frame) on this port "
            "(0 = ephemeral); shares the TLS context and gate"
        ),
    )
    args = parser.parse_args(argv)
    if args.shards is None:
        args.shards = args.workers or 1
    if args.shards < 1:
        parser.error("--shards must be >= 1")
    if args.slo and (args.workers or args.shards > 1):
        parser.error(
            "--slo needs one in-process shard (no --workers, "
            "--shards 1): the privacy monitor audits one store"
        )
    if args.workers and args.data_dir is None:
        parser.error("--workers requires --data-dir")
    if (args.tls_cert is None) != (args.tls_key is None):
        parser.error("--tls-cert and --tls-key go together")
    if args.worker_index is not None and (
        not args.workers or args.data_dir is None
    ):
        parser.error("--worker-index requires --workers and --data-dir")
    return args


async def _wait_for_stop() -> None:
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(signum, stop.set)
    await stop.wait()


def _serve_config(args: argparse.Namespace) -> ServeConfig:
    return ServeConfig(
        max_queue_depth=args.max_queue_depth,
        max_inflight=args.max_inflight,
    )


def _telemetry_config(
    args: argparse.Namespace, worker: "str | None" = None
) -> TelemetryConfig:
    return TelemetryConfig(
        enabled=True,
        jsonl_path=args.trace_jsonl,
        trace_sample_rate=args.trace_sample_rate,
        worker=worker if worker is not None else args.worker,
        shard=args.shard,
    )


def _build_gate(
    args: argparse.Namespace, telemetry, worker_token: "str | None"
) -> "ConnectionGate | None":
    """The daemon's admission gate; None when every knob is off.

    A worker's gate admits its supervisor's token and nothing else.
    """
    if worker_token is not None:
        return ConnectionGate(
            GateConfig(tokens=(worker_token,)), telemetry=telemetry
        )
    tokens = load_tokens(args.token, args.token_file)
    if (
        tokens is None
        and args.gate_rate is None
        and args.gate_max_connections is None
    ):
        return None
    return ConnectionGate(
        GateConfig(
            tokens=tokens,
            rate_limit=args.gate_rate,
            burst=args.gate_burst,
            max_connections=args.gate_max_connections,
        ),
        telemetry=telemetry,
    )


async def _start_frontends(
    args: argparse.Namespace, server, worker_token: "str | None"
) -> "list[TcpTransport | HttpTransport]":
    """Start the public frontends of one backend (any daemon shape).

    Always the NDJSON TCP listener; an HTTP listener too when
    ``--http-port`` was given.  Both share one TLS context and one
    gate, so policy is identical no matter how a client dials in.
    """
    gate = _build_gate(args, server.telemetry, worker_token)
    ssl_ctx = (
        server_ssl_context(args.tls_cert, args.tls_key)
        if args.tls_cert is not None
        else None
    )
    transports: "list[TcpTransport | HttpTransport]" = [
        TcpTransport(
            server, args.host, args.port, ssl_context=ssl_ctx, gate=gate
        )
    ]
    if args.http_port is not None:
        transports.append(
            HttpTransport(
                server,
                args.host,
                args.http_port,
                ssl_context=ssl_ctx,
                gate=gate,
            )
        )
    for transport in transports:
        await transport.start()
    return transports


def _frontend_banner(
    args: argparse.Namespace,
    transports: "list[TcpTransport | HttpTransport]",
) -> str:
    tcp = transports[0]
    scheme = "tls" if args.tls_cert is not None else "tcp"
    label = " supervisor" if args.workers else ""
    parts = [f"repro-ts{label} listening on {tcp.host}:{tcp.port}"]
    if scheme == "tls":
        parts.append("(tls)")
    if args.token or args.token_file:
        parts.append("(auth)")
    for extra in transports[1:]:
        parts.append(f"http on {extra.host}:{extra.port}")
    if args.workers:
        parts.append(f"(workers={args.workers} shards={args.shards})")
    return " ".join(parts)


def _ms_since(started: float) -> float:
    return (time.perf_counter() - started) * 1000.0


def _build_server(
    args: argparse.Namespace, boot_ms: "dict[str, float]"
) -> "ShardRouter | WorkerSupervisor":
    """The frontend of the daemon shape ``args`` select.

    Records the time spent building the workload in ``boot_ms``.
    """
    if args.workers and args.worker_index is None:
        worker_args = ["--seed", str(args.seed),
                       "--wal-fsync", args.wal_fsync]
        if args.trace_jsonl is not None:
            worker_args += ["--trace-jsonl", args.trace_jsonl]
        return WorkerSupervisor(
            args.workers,
            args.shards,
            args.data_dir,
            config=_serve_config(args),
            telemetry=_telemetry_config(args),
            worker_args=worker_args,
            daemon_path=Path(__file__).resolve(),
        )
    shard_ids = worker_label = None
    if args.worker_index is not None:
        shard_ids = worker_shards(
            args.worker_index, args.workers, args.shards
        )
        worker_label = str(args.worker_index)
    workload_config = WorkloadConfig(seed=args.seed)
    started = time.perf_counter()
    workload = build_workload(workload_config)
    boot_ms["workload"] = _ms_since(started)
    return ShardRouter(
        workload,
        workload_config,
        n_shards=args.shards,
        config=_serve_config(args),
        telemetry=_telemetry_config(args, worker=worker_label),
        data_dir=args.data_dir,
        wal_config=WalConfig(fsync=args.wal_fsync),
        shard_ids=shard_ids,
        slo_rules=args.slo,
    )


async def serve(
    args: argparse.Namespace, worker_token: "str | None" = None
) -> int:
    """Every daemon shape: build the frontend, serve, drain, close.

    ``worker_token`` is set only in a ``--worker-index`` process (read
    from its stdin by :func:`main`): the worker serves its shard
    subset behind a gate that admits only its supervisor.
    """
    boot_ms = {"import": IMPORT_MS, "workload": 0.0}
    started = time.perf_counter()
    server = _build_server(args, boot_ms)
    await server.start()
    boot_ms["shards"] = _ms_since(started) - boot_ms["workload"]
    started = time.perf_counter()
    transports = await _start_frontends(args, server, worker_token)
    boot_ms["listen"] = _ms_since(started)
    for phase, ms in boot_ms.items():
        server.telemetry.gauge("serve.boot_ms", ms, phase=phase)
    worker_index = args.worker_index
    if worker_index is not None:
        assert isinstance(server, ShardRouter)
        port = transports[0].port
        print(announce(worker_index, port, server.applied_seqs()),
              flush=True)
    else:
        print(_frontend_banner(args, transports), flush=True)
    await _wait_for_stop()
    if worker_index is None:
        print("repro-ts draining", flush=True)
    reply = await server.drain()
    for transport in transports:
        await transport.stop()
    await server.close()
    if worker_index is None:
        print(
            f"repro-ts drained: served={reply.served} "
            f"shed={reply.shed} rejected={reply.rejected}",
            flush=True,
        )
    return 0


def main(argv: "list[str] | None" = None) -> int:
    args = parse_args(argv)
    worker_token = None
    if args.worker_index is not None:
        # The supervisor's per-boot token is the first line of stdin.
        worker_token = sys.stdin.readline().strip()
        if not worker_token:
            raise SystemExit(
                "--worker-index reads its supervisor's token from stdin"
            )
    return asyncio.run(serve(args, worker_token))


if __name__ == "__main__":
    raise SystemExit(main())
