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
* :mod:`repro.serve.client` — :class:`FrameClient`, the surface all
  three clients share (``post``/``send``/``close``, the control-op
  wrappers, client trace minting), and the pipelined TCP
  :class:`ServeClient` with token/TLS dialing and bounded-backoff
  reconnect;
* :mod:`repro.serve.transports` — :class:`FrameConnection`, the one
  per-connection protocol (hello, gate, "hello first", admit) every
  transport runs, under the TCP daemon (plaintext or TLS) and the
  in-process loopback;
* :mod:`repro.serve.http` — the HTTP/1.1 binding of the same
  protocol (``POST /v1/frame``), its client, and :func:`dial` (the
  socket client of a transport name);
* :mod:`repro.serve.city` — the city a daemon serves and
  :func:`build_engine`, the warm-store engine every shard starts from;
* :mod:`repro.serve.loadgen` — open-loop load generation and
  serving-vs-offline equivalence verification;
* :mod:`repro.serve.shard` — :class:`ShardRouter`: the same frontend
  over N shared-nothing shard engines built from a served city (one by
  default), with WAL crash/restore; decision-equivalent to the single
  engine;
* :mod:`repro.serve.wal` — per-shard JSONL write-ahead log with
  deterministic replay;
* :mod:`repro.serve.supervisor` — :class:`WorkerSupervisor`: the same
  frontend over shards in token-gated worker subprocesses
  (:class:`RemoteShard`), with WAL-backed respawn, pending-op re-send,
  and one ``metrics`` scrape merged over the whole fleet.

Exports resolve on first use, so importing one submodule (as the
daemon does) loads no sibling.
"""

from repro._lazy import lazy_exports

#: Each public name and the module it comes from, imported on first use.
_EXPORTS = {
    "repro.serve.client": (
        "FrameClient",
        "ServeClient",
        "ServeClientError",
    ),
    "repro.serve.gate": (
        "ConnectionGate",
        "GateConfig",
        "GatePass",
        "TokenBucket",
        "load_tokens",
    ),
    "repro.serve.http": (
        "HttpServeClient",
        "HttpTransport",
        "dial",
    ),
    "repro.serve.city": (
        "WorkloadConfig",
        "build_engine",
    ),
    "repro.serve.loadgen": (
        "LoadgenConfig",
        "LoadReport",
        "build_workload",
        "decision_key",
        "offline_replay",
        "run_loadgen",
    ),
    "repro.serve.protocol": (
        "MAX_FRAME_BYTES",
        "PROTOCOL_VERSION",
        "DecisionReply",
        "DrainReply",
        "DrainRequest",
        "ErrorReply",
        "Frame",
        "HealthReply",
        "HealthRequest",
        "Hello",
        "LocationUpdate",
        "MetricsReply",
        "MetricsRequest",
        "ProfileReply",
        "ProfileRequest",
        "ProtocolError",
        "ServiceRequest",
        "StatsReply",
        "StatsRequest",
        "TracesReply",
        "TracesRequest",
        "UpdateAck",
        "Welcome",
        "decode_reply",
        "decode_request",
        "encode_frame",
    ),
    "repro.serve.server": (
        "ClientSession",
        "ServeConfig",
        "ShardRuntime",
        "ShardSequencer",
        "TrustedServer",
        "shard_of",
    ),
    "repro.serve.shard": (
        "ShardRouter",
    ),
    "repro.serve.supervisor": (
        "WorkerSupervisor",
        "worker_shards",
    ),
    "repro.serve.transports": (
        "FrameConnection",
        "LoopbackConnection",
        "LoopbackTransport",
        "TcpTransport",
        "client_ssl_context",
        "server_ssl_context",
    ),
    "repro.serve.wal": (
        "ShardWal",
        "WalCorruptionError",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
