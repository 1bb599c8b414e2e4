"""Wire-level fleet scraping for the aggregation layer.

:mod:`repro.obs.aggregate` defines the transport-free merge semantics
and :class:`~repro.obs.aggregate.MetricsCollector`; this module
supplies the concrete scrape callable that talks the NDJSON protocol:
:func:`scrape_worker` opens one connection through :func:`dial`
(which picks the client of the transport) and pulls the ``health``,
``metrics``, and ``traces`` ops into a
:class:`~repro.obs.aggregate.WorkerScrape`, and
:func:`collect_fleet` polls every ``host:port`` target concurrently
into one merged :class:`~repro.obs.aggregate.FleetView`.

A worker with telemetry disabled answers ``metrics``/``traces`` with
errors; those degrade to empty samples (health still reports), while a
worker that cannot be reached at all surfaces in
:attr:`~repro.obs.aggregate.FleetView.errors`.
"""

from __future__ import annotations

import json
import ssl
from typing import Any

from repro.obs.aggregate import (
    FleetView,
    MetricsCollector,
    WorkerScrape,
)
from repro.obs.export import parse_exposition
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.http import HttpServeClient
from repro.serve.transports import client_ssl_context


def parse_target(target: str) -> tuple[str, int]:
    """Split a ``host:port`` target string."""
    host, sep, port_text = target.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"target must look like host:port, got {target!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"target {target!r} has a non-numeric port"
        ) from None
    return host, port


async def dial(
    host: str, port: int, transport: str = "tcp", **options: Any
) -> "ServeClient | HttpServeClient":
    """Connect the socket client of ``transport``.

    ``"http"`` dials an :class:`~repro.serve.http.HttpServeClient`;
    ``"tcp"`` and ``"tls"`` dial a
    :class:`~repro.serve.client.ServeClient` (TLS when ``options``
    carry an ``ssl`` context).  ``options`` go to the client's
    ``connect``.
    """
    client_class: "type[ServeClient] | type[HttpServeClient]" = (
        HttpServeClient if transport == "http" else ServeClient
    )
    return await client_class.connect(host, port, **options)


async def scrape_worker(
    host: str,
    port: int,
    worker: str | None = None,
    trace_limit: int = 32,
    client_name: str = "fleet-scraper",
    transport: str = "tcp",
    ssl_context: "ssl.SSLContext | None" = None,
    token: "str | None" = None,
) -> WorkerScrape:
    """Pull one worker's health/metrics/traces over the wire.

    ``worker`` names the scrape (defaults to ``host:port``); it becomes
    the ``worker`` label on per-worker series in the merged view.
    Connection failures propagate (the collector records them); a
    worker that merely lacks telemetry yields empty samples/traces.

    Hardened fleets scrape like any other client: ``transport`` picks
    the dial (``"tcp"``/``"tls"`` NDJSON or ``"http"``),
    ``ssl_context`` pins the daemon's cert, ``token`` rides the hello.
    """
    scrape = WorkerScrape(worker=worker or f"{host}:{port}")
    client = await dial(
        host,
        port,
        transport=transport,
        client=client_name,
        ssl=ssl_context,
        token=token,
    )
    try:
        health = await client.health()
        scrape.health = {
            "status": health.status,
            "uptime_s": health.uptime_s,
            "queue_depth": health.queue_depth,
            "sessions": health.sessions,
            "served": health.served,
            "shed": health.shed,
            "slo_ok": health.slo_ok,
            "breaches": health.breaches,
        }
        try:
            metrics = await client.metrics()
            scrape.samples, scrape.exemplars = parse_exposition(
                metrics.body
            )
        except ServeClientError:
            pass  # telemetry disabled on this worker
        try:
            traces = await client.traces(limit=trace_limit)
            entries = json.loads(traces.body)
            if isinstance(entries, list):
                scrape.traces = [
                    entry
                    for entry in entries
                    if isinstance(entry, dict)
                ]
        except ServeClientError:
            pass
    finally:
        await client.close()
    return scrape


async def collect_fleet(
    targets: "list[str] | tuple[str, ...]",
    trace_limit: int = 32,
    transport: str = "tcp",
    tls_ca: "str | None" = None,
    token: "str | None" = None,
) -> FleetView:
    """One concurrent scrape round over ``host:port`` targets.

    ``transport``/``tls_ca``/``token`` apply to every target — a fleet
    is deployed with one frontend policy, so the scraper carries one
    credential set.
    """
    resolved = {
        target: parse_target(target) for target in targets
    }  # validate every target before any connection is attempted
    ssl_context = (
        client_ssl_context(tls_ca) if tls_ca is not None else None
    )

    async def scrape(target: str) -> WorkerScrape:
        host, port = resolved[target]
        return await scrape_worker(
            host,
            port,
            worker=target,
            trace_limit=trace_limit,
            transport=transport,
            ssl_context=ssl_context,
            token=token,
        )

    collector = MetricsCollector(scrape, list(targets))
    return await collector.collect()
