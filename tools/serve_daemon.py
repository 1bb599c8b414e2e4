#!/usr/bin/env python3
"""Run the Trusted Server as a long-running TCP daemon.

Two deployment shapes, one sequencer path (a
:class:`~repro.serve.shard.ShardRouter` over per-shard sequencers):

* **in-process** (default) — a router over ``--shards M`` shared-nothing
  shard engines in this process, one by default; add ``--data-dir``
  for per-shard write-ahead logs::

      PYTHONPATH=src python tools/serve_daemon.py --port 7411
      PYTHONPATH=src python tools/serve_daemon.py --shards 4 \
          --data-dir /var/lib/repro

* **multi-worker** (``--workers N --shards M --data-dir DIR``) — a
  :class:`~repro.serve.supervisor.WorkerSupervisor` parent that spawns
  N worker processes (each serving the shards ``i mod N == w`` with
  durable WALs) and respawns any that die, replaying their logs::

      PYTHONPATH=src python tools/serve_daemon.py \
          --workers 2 --shards 4 --data-dir /var/lib/repro

``--worker-index`` is the internal worker entry point the supervisor
uses; workers announce ``{"repro_worker": w, "port": p, "applied":
{shard: seq}}`` as one JSON line on stdout when ready.

Both shapes serve the same NDJSON protocol and drain gracefully on
SIGINT/SIGTERM or a client ``drain`` op.  ``--slo`` privacy rules
need the one-shard in-process shape: the monitor audits one store.

Hardening flags apply to every shape and compose freely:
``--tls-cert/--tls-key`` serve TLS (generate a dev pair with
``tools/gen_dev_cert.py``), ``--token``/``--token-file`` require a
bearer token in the hello, ``--gate-rate``/``--gate-burst``/
``--gate-max-connections`` rate-limit admitted clients, and
``--http-port`` adds an HTTP/1.1 frontend (``POST /v1/frame``) sharing
the same TLS context and gate.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
import sys
from pathlib import Path

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
    parser.add_argument(
        "--index-cell-size",
        type=float,
        default=None,
        help="spatial index cell size for the workload store (degrees)",
    )
    parser.add_argument(
        "--store-backend",
        choices=("python", "numpy"),
        default=None,
        help=(
            "trajectory-store backend (default: $REPRO_STORE_BACKEND "
            "or python); decisions are identical, latency is not"
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


def _workload_config(args: argparse.Namespace) -> WorkloadConfig:
    return WorkloadConfig(
        seed=args.seed,
        index_cell_size=args.index_cell_size,
        backend=args.store_backend,
    )


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


def _build_gate(args: argparse.Namespace, telemetry) -> (
    "ConnectionGate | None"
):
    """The daemon's admission gate; None when every knob is off."""
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


async def _start_frontends(args: argparse.Namespace, server) -> (
    "list[TcpTransport | HttpTransport]"
):
    """Start the public frontends of one backend (any daemon shape).

    Always the NDJSON TCP listener; an HTTP listener too when
    ``--http-port`` was given.  Both share one TLS context and one
    gate, so policy is identical no matter how a client dials in.
    """
    gate = _build_gate(args, server.telemetry)
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
    label: str = "",
) -> str:
    tcp = transports[0]
    scheme = "tls" if args.tls_cert is not None else "tcp"
    parts = [f"repro-ts{label} listening on {tcp.host}:{tcp.port}"]
    if scheme == "tls":
        parts.append("(tls)")
    if args.token or args.token_file:
        parts.append("(auth)")
    for extra in transports[1:]:
        parts.append(f"http on {extra.host}:{extra.port}")
    return " ".join(parts)


async def serve_sharded(
    args: argparse.Namespace, worker_index: "int | None" = None
) -> int:
    """The in-process router; doubles as the worker entry point."""
    workload_config = _workload_config(args)
    workload = build_workload(workload_config)
    shard_ids = None
    worker_label = args.worker
    if worker_index is not None:
        shard_ids = worker_shards(
            worker_index, args.workers, args.shards
        )
        worker_label = str(worker_index)
    router = ShardRouter(
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
    await router.start()
    transports = await _start_frontends(args, router)
    if worker_index is not None:
        print(
            announce(
                worker_index,
                transports[0].port,
                router.applied_seqs(),
            ),
            flush=True,
        )
    else:
        print(_frontend_banner(args, transports), flush=True)
    await _wait_for_stop()
    if worker_index is None:
        print("repro-ts draining", flush=True)
    reply = await router.drain()
    for transport in transports:
        await transport.stop()
    await router.close()
    if worker_index is None:
        print(
            f"repro-ts drained: served={reply.served} "
            f"shed={reply.shed} rejected={reply.rejected}",
            flush=True,
        )
    return 0


async def serve_supervised(args: argparse.Namespace) -> int:
    """The multi-worker shape: supervisor parent + N shard workers."""
    worker_args = ["--seed", str(args.seed), "--wal-fsync",
                   args.wal_fsync,
                   "--max-queue-depth", str(args.max_queue_depth),
                   "--max-inflight", str(args.max_inflight)]
    if args.index_cell_size is not None:
        worker_args += ["--index-cell-size", str(args.index_cell_size)]
    if args.store_backend is not None:
        worker_args += ["--store-backend", args.store_backend]
    if args.trace_jsonl is not None:
        worker_args += ["--trace-jsonl", args.trace_jsonl]
    supervisor = WorkerSupervisor(
        args.workers,
        args.shards,
        args.data_dir,
        config=_serve_config(args),
        telemetry=_telemetry_config(args),
        worker_args=worker_args,
        daemon_path=Path(__file__).resolve(),
    )
    await supervisor.start()
    transports = await _start_frontends(args, supervisor)
    print(
        _frontend_banner(args, transports, label=" supervisor")
        + f" (workers={args.workers} shards={args.shards})",
        flush=True,
    )
    await _wait_for_stop()
    print("repro-ts draining", flush=True)
    for transport in transports:
        await transport.stop()
    await supervisor.close()
    print("repro-ts drained", flush=True)
    return 0


def main(argv: "list[str] | None" = None) -> int:
    args = parse_args(argv)
    if args.worker_index is not None:
        return asyncio.run(serve_sharded(args, args.worker_index))
    if args.workers:
        return asyncio.run(serve_supervised(args))
    return asyncio.run(serve_sharded(args))


if __name__ == "__main__":
    raise SystemExit(main())
