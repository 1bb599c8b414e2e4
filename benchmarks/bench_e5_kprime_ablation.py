"""E5 — the k' heuristic and the anonymity-set-scope ablation.

Reproduces two Section 6.2 design points left open by the sketched
Algorithm 1 (see DESIGN.md):

1. **k' schedule** — "if we want to ensure historical k-anonymity, we
   should probably use an initial parameter k' larger than k … starting
   with a larger k' and decreasing its value at each point in the trace
   should increase the probability to maintain historical k-anonymity
   for longer traces."  The sweep varies k' at fixed k and reports how
   many traces keep Definition 8 alive to the end, and at what QoS cost
   (larger early boxes).
2. **anonymity-set scope** — reselecting the k users per observation
   (the literal reading of Algorithm 1's signature) vs. keeping one set
   per LBQID (the reading under which Theorem 1 holds).  The per-
   observation variant produces smaller boxes but collapses the
   anonymity of the *union* of contexts.
"""

import statistics

from repro.core.unlinking import NeverUnlink
from repro.engine.context import AnonymitySetScope
from repro.experiments.harness import Table
from repro.experiments.workloads import run_protected
from repro.metrics.anonymity import historical_k_per_user
from repro.metrics.qos import qos_summary

K = 5
KPRIME = (None, 8, 12, 16)


def run_e5_kprime(city):
    rows = []
    for k_prime in KPRIME:
        report = run_protected(
            city,
            k=K,
            k_prime_initial=k_prime,
            k_prime_decrement=2,
            unlinker=NeverUnlink(),
            seed=97,
        )
        achieved = historical_k_per_user(
            report.events, report.store.histories, hk_only=True
        )
        qos = qos_summary(report.events)
        ok = sum(1 for v in achieved.values() if v >= K)
        failure_steps = [
            e.step
            for e in report.events
            if e.lbqid_name is not None
            and not e.hk_anonymity
            and e.step is not None
        ]
        deep_failures = sum(1 for s in failure_steps if s >= 4)
        rows.append(
            (
                "k" if k_prime is None else f"k'={k_prime}",
                qos.mean_width_m,
                statistics.median(achieved.values()) if achieved else 0,
                f"{ok}/{len(achieved)}",
                qos.suppression_rate,
                (
                    deep_failures / len(failure_steps)
                    if failure_steps
                    else 0.0
                ),
            )
        )
    return rows


def run_e5_scope(city):
    rows = []
    for scope in AnonymitySetScope:
        report = run_protected(
            city, k=K, scope=scope, unlinker=NeverUnlink(), seed=97
        )
        achieved = historical_k_per_user(
            report.events, report.store.histories, hk_only=True
        )
        qos = qos_summary(report.events)
        ok = sum(1 for v in achieved.values() if v >= K)
        rows.append(
            (
                scope.value,
                qos.mean_width_m,
                statistics.median(achieved.values()) if achieved else 0,
                min(achieved.values()) if achieved else 0,
                f"{ok}/{len(achieved)}",
            )
        )
    return rows


def test_e5_kprime_schedule(benchmark, bench_city, bench_export):
    rows = benchmark.pedantic(
        run_e5_kprime, args=(bench_city,), rounds=1, iterations=1
    )
    table = Table(
        f"E5a: k' schedule (k={K}, decrement 2, NeverUnlink)",
        [
            "schedule",
            "mean width m",
            "median achieved k",
            "traces >= k",
            "suppression",
            "deep failures",
        ],
    )
    for row in rows:
        table.add_row(row)
    table.print()
    bench_export("e5a", table.metrics(), workload={"k": K})

    # Certified traces always reach k, with or without the schedule
    # (the nested-pruning implementation makes Definition 8 hold by
    # construction whenever generalization keeps succeeding).
    for row in rows:
        assert row[2] >= K
    # The schedule's cost is service loss: stricter early requirements
    # suppress more requests …
    suppressions = [row[4] for row in rows]
    assert suppressions == sorted(suppressions)
    # … its intended benefit — failing early rather than deep into a
    # trace — is marginal on this workload (the share of failures at
    # step >= 4 barely moves), which EXPERIMENTS.md discusses.
    assert rows[-1][5] <= rows[0][5] + 0.05


def test_e5_scope_ablation(benchmark, bench_city, bench_export):
    rows = benchmark.pedantic(
        run_e5_scope, args=(bench_city,), rounds=1, iterations=1
    )
    table = Table(
        f"E5b: anonymity-set scope ablation (k={K}, NeverUnlink)",
        [
            "scope",
            "mean width m",
            "median achieved k",
            "min achieved k",
            "traces >= k",
        ],
    )
    for row in rows:
        table.add_row(row)
    table.print()
    bench_export("e5b", table.metrics(), workload={"k": K})

    by_scope = {row[0]: row for row in rows}
    per_lbqid = by_scope[AnonymitySetScope.PER_LBQID.value]
    per_obs = by_scope[AnonymitySetScope.PER_OBSERVATION.value]
    # The Theorem-1 reading keeps every certified trace at >= k …
    assert per_lbqid[3] >= K
    # … while per-observation reselection can drop the union below k.
    assert per_obs[3] < K
