"""repro.serve — the asyncio serving frontend of the Trusted Server.

Layers (bottom-up):

* :mod:`repro.serve.protocol` — the NDJSON wire frames and strict codec;
* :mod:`repro.serve.server` — :class:`TrustedServer`: admission control,
  tracing, and drain over bounded per-shard sequencer queues
  (:class:`ShardSequencer`, one dispatcher each) and their durable
  :class:`ShardRuntime` engines;
* :mod:`repro.serve.gate` — :class:`ConnectionGate`: bearer-token
  auth, connection caps, and per-client token-bucket rate limits ahead
  of every sequencer;
* :mod:`repro.serve.transports` — TCP daemon (plaintext or TLS) and
  in-process loopback;
* :mod:`repro.serve.http` — the HTTP/1.1 binding of the same codec
  (``POST /v1/frame``) plus its client;
* :mod:`repro.serve.client` — pipelined async client with token/TLS
  dialing and bounded-backoff reconnect;
* :mod:`repro.serve.loadgen` — open-loop load generation and
  serving-vs-offline equivalence verification;
* :mod:`repro.serve.fleet` — wire-level scraping behind the
  :mod:`repro.obs.aggregate` fleet view;
* :mod:`repro.serve.shard` — :class:`ShardRouter`: the same frontend
  over N shared-nothing shard engines built from a workload (one by
  default), with WAL crash/restore; decision-equivalent to the single
  engine;
* :mod:`repro.serve.wal` — per-shard JSONL write-ahead log and
  snapshots with deterministic replay;
* :mod:`repro.serve.supervisor` — :class:`WorkerSupervisor`: shard
  worker subprocesses, WAL-backed respawn, pending-op re-send.
"""

from repro.serve.client import ServeClient, ServeClientError
from repro.serve.fleet import collect_fleet, parse_target, scrape_worker
from repro.serve.gate import (
    ConnectionGate,
    GateConfig,
    GatePass,
    TokenBucket,
    load_tokens,
)
from repro.serve.http import HttpServeClient, HttpTransport
from repro.serve.loadgen import (
    LoadgenConfig,
    LoadReport,
    WorkloadConfig,
    build_engine,
    build_workload,
    decision_key,
    offline_replay,
    run_loadgen,
)
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    DecisionReply,
    DrainReply,
    DrainRequest,
    ErrorReply,
    Frame,
    HealthReply,
    HealthRequest,
    Hello,
    LocationUpdate,
    MetricsReply,
    MetricsRequest,
    ProfileReply,
    ProfileRequest,
    ProtocolError,
    ServiceRequest,
    StatsReply,
    StatsRequest,
    TracesReply,
    TracesRequest,
    UpdateAck,
    Welcome,
    decode_reply,
    decode_request,
    encode_frame,
)
from repro.serve.server import (
    ClientSession,
    ServeConfig,
    ShardRuntime,
    ShardSequencer,
    TrustedServer,
    shard_of,
)
from repro.serve.shard import ShardRouter
from repro.serve.supervisor import WorkerSupervisor, worker_shards
from repro.serve.transports import (
    LoopbackConnection,
    LoopbackTransport,
    TcpTransport,
    client_ssl_context,
    server_ssl_context,
)
from repro.serve.wal import (
    ShardWal,
    WalConfig,
    WalCorruptionError,
)

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ClientSession",
    "ConnectionGate",
    "DecisionReply",
    "DrainReply",
    "DrainRequest",
    "ErrorReply",
    "Frame",
    "GateConfig",
    "GatePass",
    "HealthReply",
    "HealthRequest",
    "Hello",
    "HttpServeClient",
    "HttpTransport",
    "LoadReport",
    "MetricsReply",
    "MetricsRequest",
    "ProfileReply",
    "ProfileRequest",
    "TracesReply",
    "TracesRequest",
    "LoadgenConfig",
    "LocationUpdate",
    "LoopbackConnection",
    "LoopbackTransport",
    "ProtocolError",
    "ServeClient",
    "ServeClientError",
    "ServeConfig",
    "ServiceRequest",
    "ShardRouter",
    "ShardRuntime",
    "ShardSequencer",
    "ShardWal",
    "StatsReply",
    "StatsRequest",
    "TcpTransport",
    "TokenBucket",
    "TrustedServer",
    "UpdateAck",
    "WalConfig",
    "WalCorruptionError",
    "Welcome",
    "WorkerSupervisor",
    "WorkloadConfig",
    "build_engine",
    "build_workload",
    "client_ssl_context",
    "collect_fleet",
    "decision_key",
    "decode_reply",
    "decode_request",
    "encode_frame",
    "load_tokens",
    "offline_replay",
    "server_ssl_context",
    "parse_target",
    "run_loadgen",
    "scrape_worker",
    "shard_of",
    "worker_shards",
]
