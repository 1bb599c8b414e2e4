"""E1 — the anonymous service model end to end (Figure 1, Section 3).

Reproduces: the paper's only figure, the users -> Trusted Server ->
Service Providers architecture, as a runnable system.  The table shows
one simulated fortnight of a city flowing through the pipeline: every
request is answered or accounted for, pseudonyms hide identities, and
the TS generalizes exactly the requests that advance an LBQID.
"""

from repro.core.unlinking import AlwaysUnlink
from repro.engine.context import Decision
from repro.experiments.harness import Table
from repro.experiments.workloads import make_policy
from repro.metrics.qos import qos_summary
from repro.ts.simulation import LBSSimulation


def run_e1(city):
    simulation = LBSSimulation(
        city,
        policy=make_policy(k=5),
        unlinker=AlwaysUnlink(),
        seed=97,
    )
    return simulation.run()


def test_e1_service_model(benchmark, bench_city, bench_export):
    report = benchmark.pedantic(
        run_e1, args=(bench_city,), rounds=1, iterations=1
    )

    counts = report.decision_counts()
    provider = report.providers["poi"]
    qos = qos_summary(report.events)

    table = Table(
        "E1: service-model run (100 commuters + 40 wanderers, 14 days)",
        ["metric", "value"],
    )
    table.add_row(["location updates ingested", report.location_updates])
    table.add_row(["service requests issued", report.requests_issued])
    for decision in Decision:
        table.add_row([f"decision: {decision.value}", counts[decision]])
    table.add_row(["requests answered by SP", provider.request_count])
    table.add_row(
        ["distinct pseudonyms seen by SP", len(provider.pseudonyms_seen())]
    )
    table.add_row(
        ["mean generalized width (m)", round(qos.mean_width_m, 1)]
    )
    table.add_row(
        ["mean generalized interval (s)", round(qos.mean_duration_s, 1)]
    )
    table.print()
    bench_export("e1", table.metrics(), workload={"k": 5})

    # The model works end to end: everything forwarded was answered,
    # identities never crossed the trust boundary.
    forwarded = sum(1 for e in report.events if e.forwarded)
    assert provider.request_count == forwarded
    assert counts[Decision.GENERALIZED] > 0
    assert len(provider.pseudonyms_seen()) >= len(bench_city.commuters)
