"""E15 — ablation of the reproduction's own design choice.

DESIGN.md introduces a tunable the paper does not fix, and this bench
measures it so its default is evidence-based rather than folklore:

* **time scale** — Algorithm 1 needs a combined spatio-temporal
  distance; we convert seconds to meters at a reference speed
  (DESIGN.md substitution table; default 1.5 m/s).  Too small and the
  k nearest "neighbours" are stale samples from far in the past whose
  positions no longer correlate with anyone's presence; too large and
  only exactly-synchronous samples qualify, starving the selection.
  The sweep reports generalization failure rate and box shape across
  four orders of magnitude.  Each run reassigns the store's
  ``time_scale`` after the simulation built it; the store is the
  scale's only owner, so every query reads the new value.
"""

from repro.core.unlinking import AlwaysUnlink
from repro.experiments.harness import Table
from repro.experiments.workloads import make_policy
from repro.metrics.qos import qos_summary
from repro.ts.simulation import LBSSimulation

TIME_SCALES = (0.015, 0.15, 1.5, 15.0)


def run_e15a(city):
    rows = []
    for time_scale in TIME_SCALES:
        simulation = LBSSimulation(
            city,
            policy=make_policy(k=5),
            unlinker=AlwaysUnlink(),
            seed=97,
        )
        simulation.anonymizer.store.time_scale = time_scale
        report = simulation.run()
        qos = qos_summary(report.events)
        attempted = sum(
            1 for e in report.events if e.lbqid_name is not None
        )
        failed = sum(
            1
            for e in report.events
            if e.lbqid_name is not None and not e.hk_anonymity
        )
        rows.append(
            (
                time_scale,
                failed / attempted if attempted else 0.0,
                qos.mean_width_m,
                qos.mean_duration_s,
            )
        )
    return rows


def test_e15a_time_scale(benchmark, bench_city, bench_export):
    rows = benchmark.pedantic(
        run_e15a, args=(bench_city,), rounds=1, iterations=1
    )
    table = Table(
        "E15a: spatio-temporal distance time scale (k=5)",
        [
            "time scale m/s",
            "failure rate",
            "mean width m",
            "mean interval s",
        ],
    )
    for row in rows:
        table.add_row(row)
    table.print()
    bench_export(
        "e15a",
        table.metrics(),
        workload={"time_scales": list(TIME_SCALES)},
    )

    by_scale = {row[0]: row for row in rows}
    # Near-zero weighting of time picks stale neighbours: the boxes'
    # temporal extents explode.
    assert by_scale[0.015][3] > by_scale[1.5][3]
    # Over-weighting time starves the spatial neighbourhood: failures
    # rise relative to the default.
    assert by_scale[15.0][1] >= by_scale[1.5][1]
