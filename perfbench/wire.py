"""The benchmark's own view of the daemon: process, socket, exposition.

Everything here talks to the Trusted Server the way an outside user
would: a child process started from ``tools/serve_daemon.py``, NDJSON
frames over a plain TCP socket, and the text exposition of the
``metrics`` op.  It imports nothing from ``src/``, so client-side cost
stays fixed across versions of the serving code.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

#: Longest a daemon may take to print its listening banner.
BOOT_TIMEOUT_S = 60.0
#: Longest a daemon may take to exit after SIGTERM before it is killed.
STOP_TIMEOUT_S = 20.0
#: Frame size the client accepts (the daemon's default limit).
MAX_FRAME_BYTES = 64 * 1024

_CPUS = sorted(os.sched_getaffinity(0))
#: The load generator keeps the last CPU; the daemon gets the rest, so
#: the two never take turns on one core (one CPU: they share it).
CLIENT_CPUS = {_CPUS[-1]}
SERVER_CPUS = set(_CPUS[:-1]) or CLIENT_CPUS


class BenchError(RuntimeError):
    """A run that cannot produce a trustworthy result."""


class Daemon:
    """One ``serve_daemon.py`` process group on an ephemeral port.

    The daemon runs in a session of its own, so anything it spawns is
    stopped with it, even after the daemon itself has died.
    """

    def __init__(self, root: Path, args: "list[str]") -> None:
        self.root = root
        self.argv = [
            sys.executable,
            str(root / "tools" / "serve_daemon.py"),
            "--port",
            "0",
            *args,
        ]
        self.proc: "subprocess.Popen[bytes] | None" = None
        self.port = 0

    def start(self) -> float:
        """Spawn, wait for the banner and one handshake; returns seconds."""
        # A fixed hash seed keeps set and dict layouts, and so the
        # daemon's speed, the same from run to run.
        env = dict(
            os.environ,
            PYTHONPATH=str(self.root / "src"),
            PYTHONHASHSEED="0",
        )
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv,
            cwd=self.root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
            preexec_fn=lambda: os.sched_setaffinity(0, SERVER_CPUS),
        )
        assert self.proc.stdout is not None
        deadline = start + BOOT_TIMEOUT_S
        while True:
            line = self.proc.stdout.readline().decode("utf-8", "replace")
            if not line:
                self.stop()
                raise BenchError(f"daemon exited: {' '.join(self.argv)}")
            if " listening on " in line:
                address = line.split(" listening on ", 1)[1].split()[0]
                self.port = int(address.rsplit(":", 1)[1])
                break
            if time.perf_counter() > deadline:
                self.stop()
                raise BenchError("daemon did not start in time")
        asyncio.run(_probe(self.port))
        return time.perf_counter() - start

    def cpu_s(self) -> float:
        """CPU seconds used so far by the daemon's process group."""
        assert self.proc is not None
        return group_cpu_s(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM and wait for the drain; SIGKILL the group if it hangs."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
                try:
                    proc.wait(timeout=STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    pass
            _kill_group(proc.pid)
            proc.wait()
        finally:
            if proc.stdout is not None:
                proc.stdout.close()


def group_cpu_s(pgid: int) -> float:
    """CPU seconds (user + system) used so far by a live process group."""
    total = 0
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:
            continue  # the process exited while we looked
        fields = text[text.rindex(")") + 2 :].split()
        if int(fields[2]) == pgid:
            total += int(fields[11]) + int(fields[12])
    return total / os.sysconf("SC_CLK_TCK")


def _kill_group(pgid: int) -> None:
    """SIGKILL whatever is left of a process group; wait until empty."""
    deadline = time.monotonic() + STOP_TIMEOUT_S
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


async def _probe(port: int) -> None:
    _reader, writer = await dial(port, "perfbench-probe")
    writer.close()
    await writer.wait_closed()


async def dial(port: int, client: str) -> tuple:
    """Open one connection and complete the hello/welcome handshake."""
    reader, writer = await asyncio.open_connection(
        "127.0.0.1", port, limit=MAX_FRAME_BYTES
    )
    hello = {"op": "hello", "version": 1, "client": client}
    writer.write(json.dumps(hello).encode() + b"\n")
    await writer.drain()
    welcome = json.loads(await reader.readline() or b"{}")
    if welcome.get("op") != "welcome":
        writer.close()
        raise BenchError(f"handshake rejected: {welcome!r}")
    return reader, writer


async def scrape(port: int) -> "dict[tuple[str, str], float]":
    """One ``metrics`` op on a fresh connection, parsed."""
    reader, writer = await dial(port, "perfbench-scrape")
    try:
        writer.write(b'{"op":"metrics","id":1,"format":"prometheus"}\n')
        await writer.drain()
        reply = json.loads(await reader.readline() or b"{}")
    finally:
        writer.close()
    if reply.get("op") != "metrics_reply":
        raise BenchError(f"metrics scrape failed: {reply!r}")
    return parse_exposition(reply["body"])


def parse_exposition(text: str) -> "dict[tuple[str, str], float]":
    """Prometheus text exposition -> ``{(name, labels): value}``.

    ``labels`` is the raw ``{...}`` text (empty when unlabelled), which
    is all the ledger needs to pick series apart.  Comment lines and
    OpenMetrics exemplars (after `` # ``) are dropped.
    """
    samples: "dict[tuple[str, str], float]" = {}
    for line in text.splitlines():
        line = line.split(" # ", 1)[0].strip()
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        name, brace, labels = series.partition("{")
        samples[(name, brace + labels)] = float(value)
    return samples
