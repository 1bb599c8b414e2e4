"""The daemon's cold start: what loading it imports, and what it reports.

Every daemon start (and every respawned worker) pays for the modules
``tools/serve_daemon.py`` loads, so a heavy dependency that creeps back
onto that path shows up here before it shows up in ``setup_s``.
"""

from __future__ import annotations

import asyncio
import os
import select
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.obs.export import parse_prometheus
from repro.serve.client import ServeClient

REPO = Path(__file__).resolve().parents[2]
DAEMON = REPO / "tools" / "serve_daemon.py"
#: Kept off the daemon's import path: networkx is a test-only oracle
#: for the road router, and scipy serves only offline mix-zone
#: assignment.
HEAVY = ("networkx", "scipy")


def _env() -> "dict[str, str]":
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return env


class TestImportGraph:
    def test_daemon_and_loadgen_load_without_heavy_modules(self):
        script = textwrap.dedent(
            f"""
            import importlib.util
            import sys

            spec = importlib.util.spec_from_file_location(
                "serve_daemon", {str(DAEMON)!r}
            )
            daemon = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(daemon)  # defines main, does not run it
            import repro.serve.loadgen

            assert "repro.serve.server" in sys.modules
            print(sorted(m for m in {HEAVY!r} if m in sys.modules))
            """
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"


class TestBootGauges:
    def test_metrics_scrape_reports_each_boot_phase(self):
        daemon = subprocess.Popen(
            [sys.executable, str(DAEMON), "--port", "0"],
            env=_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            assert daemon.stdout is not None
            ready, _, _ = select.select([daemon.stdout], [], [], 120)
            assert ready, "no banner within 120 s"
            banner = daemon.stdout.readline()
            assert " listening on " in banner, banner
            address = banner.split(" listening on ", 1)[1].split()[0]
            host, port = address.rsplit(":", 1)

            async def scrape() -> str:
                client = await ServeClient.connect(host, int(port))
                try:
                    return (await client.metrics()).body
                finally:
                    await client.close()

            body = asyncio.run(scrape())
        finally:
            daemon.terminate()
            daemon.communicate(timeout=60)
        boot = {
            dict(labels)["phase"]: value
            for (name, labels), value in parse_prometheus(body).items()
            if name == "serve_boot_ms"
        }
        assert set(boot) == {"import", "workload", "shards", "listen"}
        assert all(value > 0 for value in boot.values()), boot
