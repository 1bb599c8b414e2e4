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
#: What the daemon never loads: the client half of the load harness
#: (``repro.serve.city`` is its serving half), the simulation and
#: mining layers, benchmark artifacts and rendering.
CLIENT_SIDE = (
    "repro.serve.loadgen",
    "repro.experiments",
    "repro.ts",
    "repro.mining",
    "repro.obs.bench",
    "repro.obs.render",
)
#: Loaded only by the flag that needs them: ``--http-port``,
#: ``--workers`` (the supervisor and the merge behind its fleet-wide
#: ``metrics`` scrape) and ``--slo``.  No ``hello``, ``update``,
#: ``request`` or ``metrics`` op of a plain or ``--shards`` daemon may
#: load one.
BY_FLAG = (
    "repro.serve.http",
    "repro.serve.supervisor",
    "repro.obs.aggregate",
    "repro.obs.slo",
)
#: Loaded by the first ``profile`` op, which starts the sampler.
BY_PROFILE = ("repro.obs.profile",)
LOAD_DAEMON = f"""
import importlib.util
import sys

spec = importlib.util.spec_from_file_location(
    "serve_daemon", {str(DAEMON)!r}
)
daemon = importlib.util.module_from_spec(spec)
spec.loader.exec_module(daemon)  # defines main, does not run it
"""


def _env() -> "dict[str, str]":
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return env


def _run(script: str) -> str:
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


class TestImportGraph:
    def test_daemon_loads_only_what_serving_needs(self):
        script = LOAD_DAEMON + textwrap.dedent(
            f"""
            assert "repro.serve.server" in sys.modules
            assert "repro.serve.city" in sys.modules
            print(sorted(
                name
                for name in sys.modules
                for banned in {HEAVY + CLIENT_SIDE + BY_FLAG + BY_PROFILE!r}
                if name == banned or name.startswith(banned + ".")
            ))
            """
        )
        assert _run(script) == "[]"

    def test_loadgen_loads_without_heavy_modules(self):
        script = textwrap.dedent(
            f"""
            import sys
            import repro.serve.loadgen

            print(sorted(m for m in {HEAVY!r} if m in sys.modules))
            """
        )
        assert _run(script) == "[]"

    def test_serving_ops_load_no_flag_module(self):
        """A booted default daemon answers hello, update, request and
        metrics without importing anything it left out at boot."""
        assert _loaded_by_serving_ops([]) == "[]"

    def test_sharded_serving_ops_load_no_flag_module(self):
        """So does a ``--shards`` daemon: its ``metrics`` op renders its
        one registry and loads no fleet merge."""
        assert _loaded_by_serving_ops(["--shards", "2"]) == "[]"


def _loaded_by_serving_ops(shape: "list[str]") -> str:
    """Boot a daemon of ``shape`` in a fresh interpreter, serve one
    update, request and metrics op, and list the left-out modules it
    loaded."""
    script = LOAD_DAEMON + textwrap.dedent(
        f"""
        import asyncio

        from repro.serve.client import ServeClient

        async def main():
            args = daemon.parse_args(["--port", "0", *{shape!r}])
            server = daemon._build_server(args, {{}})
            await server.start()
            transports = await daemon._start_frontends(
                args, server, None
            )
            client = await ServeClient.connect(
                "127.0.0.1", transports[0].port
            )
            await client.update(0, 100.0, 100.0, 3600.0)
            await client.request(0, 100.0, 100.0, 3700.0, service="poi")
            await client.metrics()
            await client.close()
            for transport in transports:
                await transport.stop()
            await server.close()

        asyncio.run(main())
        print(sorted(
            name
            for name in sys.modules
            for banned in {CLIENT_SIDE + BY_FLAG + BY_PROFILE!r}
            if name == banned or name.startswith(banned + ".")
        ))
        """
    )
    return _run(script)


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
