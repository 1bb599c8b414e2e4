"""Load-generator tests: TCP smoke, overload shedding, CLI wiring."""

from __future__ import annotations

import asyncio
import sys
from pathlib import Path

import pytest

from repro.serve.loadgen import (
    LoadgenConfig,
    WorkloadConfig,
    build_workload,
    run_loadgen,
)
from repro.serve.server import ServeConfig

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_workload_is_deterministic_and_ordered(workload):
    again = build_workload(
        WorkloadConfig(seed=11, n_commuters=8, n_wanderers=4, days=4),
        max_requests=120,
    )
    assert [
        (i.user_id, i.location.t, i.service) for i in workload.timeline
    ] == [(i.user_id, i.location.t, i.service) for i in again.timeline]
    assert workload.n_requests == 120
    for user_id, items in workload.per_user.items():
        times = [item.location.t for item in items]
        assert times == sorted(times)


def test_loadgen_tcp_smoke(workload_config):
    report = asyncio.run(
        run_loadgen(
            LoadgenConfig(
                workload=workload_config,
                serve=ServeConfig(
                    max_queue_depth=100_000, max_inflight=100_000
                ),
                requests=40,
                clients=3,
                rate=50_000.0,
                transport="tcp",
                verify=True,
            )
        )
    )
    assert report.ok, report.to_dict()
    assert report.decisions == 40
    assert report.protocol_errors == 0
    assert report.clean_shutdown
    assert report.latency_ms["p50"] >= 0.0
    assert report.throughput_rps > 0


def test_loadgen_sheds_not_errors_under_overload(workload_config):
    """A drowning server backpressures explicitly; it never breaks."""
    report = asyncio.run(
        run_loadgen(
            LoadgenConfig(
                workload=workload_config,
                serve=ServeConfig(max_queue_depth=8, max_inflight=4),
                requests=80,
                clients=4,
                rate=1e6,
                transport="tcp",
                include_updates=False,
            )
        )
    )
    assert report.shed > 0
    assert report.protocol_errors == 0
    assert report.internal_errors == 0
    assert report.clean_shutdown
    assert report.decisions + report.shed == 80
    assert 0.0 < report.shed_rate < 1.0


def test_loadgen_config_validation():
    with pytest.raises(ValueError):
        LoadgenConfig(transport="carrier-pigeon")
    with pytest.raises(ValueError):
        LoadgenConfig(clients=0)
    with pytest.raises(ValueError):
        LoadgenConfig(rate=0.0)


def test_report_serializes(workload_config):
    report = asyncio.run(
        run_loadgen(
            LoadgenConfig(
                workload=workload_config,
                requests=10,
                clients=2,
                rate=50_000.0,
                transport="loopback",
                telemetry_enabled=False,
            )
        )
    )
    payload = report.to_dict()
    assert payload["decisions"] == 10
    assert isinstance(payload["latency_ms"], dict)
    assert any("loadgen" in line for line in report.summary_lines())


def test_cli_main_smoke(capsys):
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        import loadgen as loadgen_cli
    finally:
        sys.path.pop(0)
    code = loadgen_cli.main(
        [
            "--requests",
            "30",
            "--clients",
            "2",
            "--rate",
            "50000",
            "--verify",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert "clean_shutdown: True" in out
    assert "verified: True" in out


def test_loadgen_traced_run_verifies_and_records_spans(
    workload_config,
):
    """trace=True changes observability, never decisions."""
    report = asyncio.run(
        run_loadgen(
            LoadgenConfig(
                workload=workload_config,
                serve=ServeConfig(
                    max_queue_depth=100_000, max_inflight=100_000
                ),
                requests=30,
                clients=3,
                rate=50_000.0,
                transport="tcp",
                verify=True,
                trace=True,
            )
        )
    )
    assert report.ok, report.to_dict()
    assert report.decisions == 30
    assert report.telemetry is not None
    # No sink is attached here, so the no-sink fast path skips span
    # records entirely: only the engine's local ts.request spans
    # finish.  The trace identities still flowed — the request
    # latency histogram picked up bucket exemplars.
    assert report.telemetry.tracer.finished >= 30
    hist = report.telemetry.metrics.histogram("serve.request_ms")
    assert hist.exemplars, "traced run recorded no bucket exemplars"


def test_loadgen_retries_recover_sheds(workload_config):
    report = asyncio.run(
        run_loadgen(
            LoadgenConfig(
                workload=workload_config,
                serve=ServeConfig(max_queue_depth=8, max_inflight=4),
                requests=80,
                clients=4,
                rate=1e6,
                transport="tcp",
                include_updates=False,
                retries=4,
            )
        )
    )
    assert report.protocol_errors == 0
    assert report.internal_errors == 0
    assert report.clean_shutdown
    assert report.retried > 0
    assert report.recovered > 0
    # Recovered operations count as decisions, not sheds.
    assert report.decisions + report.shed == 80
    assert report.decisions > 0
    payload = report.to_dict()
    assert payload["retried"] == report.retried
    assert payload["recovered"] == report.recovered
    assert any("retried" in line for line in report.summary_lines())


def test_cli_flags_for_trace_and_retries(capsys):
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        import loadgen as loadgen_cli
    finally:
        sys.path.pop(0)
    code = loadgen_cli.main(
        [
            "--requests",
            "20",
            "--clients",
            "2",
            "--rate",
            "50000",
            "--trace",
            "--retries",
            "2",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert "clean_shutdown: True" in out
