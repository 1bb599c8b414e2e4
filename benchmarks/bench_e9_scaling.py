"""E9 — Algorithm 1's cost and the moving-object-index speed-up.

Reproduces: Section 6.2's complexity discussion — "the most time
consuming step is the one at line 5 … the worst case complexity of this
step is O(k·n) where n is the number of location points in the TS.
Optimizations may be inspired by the work on indexing moving objects."

Two measurements on one store per size n:

* the paper's brute-force line-5 selection
  (:meth:`TrajectoryStore.nearest_users_brute`, a scan of every user's
  PHL) — its cost should scale roughly linearly in n;
* the store's own :meth:`TrajectoryStore.nearest_users`, answered by
  its columnar view — decision-equivalent to brute (same tuples, same
  tie-breaks) but computed with vectorized array ops; gated at ≥ 5×
  over brute at the largest n.

This is the one experiment where the *timing* is the result, so the
stores run with telemetry enabled and the reported ms/query are the
means of the ``store.query_ms`` latency histograms the instrumented
query paths record (see :mod:`repro.obs`).
"""

import numpy as np

from repro.core.generalization import ToleranceConstraint
from repro.core.lbqid import LBQID, LBQIDElement
from repro.core.policy import PolicyTable, PrivacyProfile
from repro.core.unlinking import AlwaysUnlink
from repro.engine.pipeline import Engine
from repro.experiments.harness import Table
from repro.geometry.point import STPoint
from repro.geometry.region import Rect
from repro.granularity.unanchored import UnanchoredInterval
from repro.mod.store import TrajectoryStore
from repro.obs import TelemetryConfig

STORE_SIZES = (10_000, 30_000, 100_000)
K = 10
QUERIES = 30
AREA = 4000.0
SPAN = 14 * 86_400.0
#: The acceptance bar: numpy ``nearest_users`` over python brute at the
#: largest store size.
NUMPY_SPEEDUP_FLOOR = 5.0
#: A user id outside every generated store population, used to drive
#: the stage-breakdown requests.
REQUESTER = 10_000_000


def _build_store(n_points):
    """A store of ``n_points`` uniform samples over the area and span."""
    rng = np.random.default_rng(n_points)
    n_users = max(20, n_points // 500)
    store = TrajectoryStore(telemetry=TelemetryConfig(enabled=True))
    per_user = n_points // n_users
    for user_id in range(n_users):
        times = np.sort(rng.uniform(0.0, SPAN, size=per_user))
        xs = rng.uniform(0.0, AREA, size=per_user)
        ys = rng.uniform(0.0, AREA, size=per_user)
        points = [
            STPoint(float(x), float(y), float(t))
            for x, y, t in zip(xs, ys, times)
        ]
        store.add_points(user_id, points)
    return store


def _query_points(seed):
    rng = np.random.default_rng(seed)
    return [
        STPoint(
            float(rng.uniform(0.0, AREA)),
            float(rng.uniform(0.0, AREA)),
            float(rng.uniform(0.0, SPAN)),
        )
        for _ in range(QUERIES)
    ]


def _mean_query_ms(store, method):
    """Mean latency of the store's instrumented line-5 queries."""
    summary = store.telemetry.snapshot().histogram_summary(
        "store.query_ms", query="nearest_users", method=method
    )
    return summary.mean


def _stage_breakdown(store):
    """Mean per-stage latency of the full pipeline over ``store``.

    Every request matches an area-wide anytime LBQID, so the walk
    exercises quiet_gate -> monitor_match -> generalize -> audit and
    the Algorithm 1 call dominates — this shows *where* in the pipeline
    the line-5 cost measured above actually lands.
    """
    engine = Engine(
        store,
        policy=PolicyTable(
            default_profile=PrivacyProfile(k=K),
            default_tolerance=ToleranceConstraint.square(AREA, SPAN),
        ),
        unlinker=AlwaysUnlink(),
        telemetry=TelemetryConfig(enabled=True),
    )
    engine.register_lbqid(
        REQUESTER,
        LBQID(
            "area-anytime",
            [
                LBQIDElement(
                    Rect(0.0, 0.0, AREA, AREA),
                    UnanchoredInterval(0.0, 86_399.0),
                )
            ],
        ),
    )
    for target in _query_points(seed=5):
        engine.process(REQUESTER, target, "poi")
    snapshot = engine.telemetry.snapshot()
    breakdown = {}
    for stage in engine.stages:
        summary = snapshot.histogram_summary(
            "engine.stage_ms", stage=stage.name
        )
        if summary is not None:
            breakdown[stage.name] = summary
    return breakdown


def run_e9():
    rows = []
    targets = _query_points(seed=3)
    store = None
    for n_points in STORE_SIZES:
        store = _build_store(n_points)
        expected = [store.nearest_users_brute(t, K) for t in targets]
        assert [store.nearest_users(t, K) for t in targets] == expected

        brute_ms = _mean_query_ms(store, "brute")
        numpy_ms = _mean_query_ms(store, "numpy")
        rows.append(
            (
                n_points,
                K,
                brute_ms,
                numpy_ms,
                brute_ms / numpy_ms if numpy_ms > 0 else float("inf"),
            )
        )
    # Stage breakdown over the largest store (informational).
    breakdown = _stage_breakdown(store)
    return rows, breakdown


def test_e9_scaling(benchmark, bench_export):
    rows, breakdown = benchmark.pedantic(run_e9, rounds=1, iterations=1)

    table = Table(
        f"E9: Algorithm 1 line-5 cost, k={K}, {QUERIES} queries/cell",
        [
            "points in TS (n)",
            "k",
            "brute ms/query",
            "numpy ms/query",
            "numpy speedup",
        ],
    )
    for row in rows:
        table.add_row(row)
    table.print()

    stage_table = Table(
        f"E9b: engine.stage_ms breakdown, n={STORE_SIZES[-1]}",
        ["stage", "requests", "mean ms", "p95 ms", "max ms"],
    )
    for stage, summary in breakdown.items():
        stage_table.add_row(
            (
                stage,
                summary.count,
                summary.mean,
                summary.p95,
                summary.maximum,
            )
        )
    stage_table.print()

    # The timings ARE this experiment's result, and timings are
    # machine-dependent — they go in the artifact's informational
    # latency section, never the gated metrics.
    latency = {
        f"n={n}": {
            "brute_ms": brute,
            "numpy_ms": numpy_ms,
            "numpy_speedup": numpy_speedup,
        }
        for n, _k, brute, numpy_ms, numpy_speedup in rows
    }
    latency["stage_ms"] = {
        stage: summary.mean for stage, summary in breakdown.items()
    }
    bench_export(
        "e9",
        {"k": float(K), "queries": float(QUERIES)},
        workload={
            "store_sizes": list(STORE_SIZES),
            "methods": ["brute", "numpy"],
        },
        latency=latency,
    )

    # Brute force grows with n …
    brute_times = [row[2] for row in rows]
    assert brute_times[-1] > brute_times[0] * 2
    # … and the columnar view clears the acceptance bar.
    assert rows[-1][4] >= NUMPY_SPEEDUP_FLOOR, (
        f"numpy speedup {rows[-1][4]:.2f}x below "
        f"{NUMPY_SPEEDUP_FLOOR}x at n={rows[-1][0]}"
    )
