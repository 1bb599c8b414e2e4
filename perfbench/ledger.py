"""Per-layer metrics, read from the outside in.

The client knows one number per operation: its round trip.  The
daemon's ``metrics`` scrape, taken before the traffic starts and after
the last reply lands, tells how much of that round trip it spent inside
its sequencer (``serve.request_ms``: queue wait, ingest, WAL append,
reply build) and how much of that inside the engine
(``ts.request_latency_ms``, split by ``engine.stage_ms{stage}``).
Subtracting inward gives a ledger whose rows add up to the client's mean
round trip:

    rtt = wire + sequencer + engine

``wire`` is everything outside the sequencer: client and server codecs,
sockets, admission, event-loop turns, reply writes and the generator's
own lateness.

Busy time comes from outside too: the CPU seconds ``/proc`` reports for
the daemon's process group and for this client, each per operation sent.
"""

from __future__ import annotations

import statistics

from drive import Lane

#: Engine stages reported one by one (ms per service request).
STAGES = ("quiet_gate", "monitor_match", "generalize", "unlink", "audit")


def _delta(before: dict, after: dict, name: str, match: str = "") -> float:
    """Growth of every series of ``name`` whose labels contain ``match``."""
    return sum(
        value - before.get(key, 0.0)
        for key, value in after.items()
        if key[0] == name and match in key[1]
    )


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def layer_metrics(
    lanes: "list[Lane]",
    spans: "dict[str, list[float]]",
    before: dict,
    after: dict,
) -> "dict[str, tuple[float, str]]":
    """``{name: (value, unit)}`` for every per-layer metric."""
    rtts = [
        done - sent
        for lane in lanes
        for sent, done in zip(lane.sent_at, lane.done_at)
    ]
    rtt_ms = statistics.fmean(rtts) * 1000.0
    ops = _delta(before, after, "serve_request_ms_count")
    requests = _delta(before, after, "ts_request_latency_ms_count")
    server_ms = _per(_delta(before, after, "serve_request_ms_sum"), ops)
    engine_ms = _per(
        _delta(before, after, "ts_request_latency_ms_sum"), ops
    )
    decisions = _delta(before, after, "ts_decisions_total")
    sent = len(rtts)
    metrics = {
        "daemon_cpu_ms_per_op": (spans["daemon_cpu"][0] * 1e3 / sent, "ms"),
        "client_cpu_ms_per_op": (spans["client_cpu"][0] * 1e3 / sent, "ms"),
        "handshake_ms": (statistics.median(spans["handshake"]) * 1e3, "ms"),
        "scrape_ms": (statistics.median(spans["scrape"]) * 1e3, "ms"),
        "loadgen_late_p99_ms": (
            statistics.quantiles(spans["lateness"], n=100)[98] * 1e3, "ms"
        ),
        "rtt_mean_ms": (rtt_ms, "ms"),
        "wire_ms": (rtt_ms - server_ms, "ms"),
        "sequencer_ms": (server_ms - engine_ms, "ms"),
        "engine_ms": (engine_ms, "ms"),
        "served_ops": (ops, "count"),
        "engine_requests": (requests, "count"),
        "forwarded_share": (
            _per(
                _delta(
                    before, after, "ts_decisions_total", '"forwarded"'
                ),
                decisions,
            ),
            "ratio",
        ),
    }
    for stage in STAGES:
        metrics[f"stage_{stage}_ms"] = (
            _per(
                _delta(
                    before, after, "engine_stage_ms_sum", f'"{stage}"'
                ),
                requests,
            ),
            "ms",
        )
    return metrics
