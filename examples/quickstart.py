#!/usr/bin/env python
"""Quickstart: the paper's framework on a hand-built scenario.

Walks through the whole vocabulary in ~80 lines:

1. define the Example 2 LBQID (home -> office -> office -> home,
   recurring 3 weekdays x 2 weeks);
2. feed the Trusted Server other users' location updates (their PHLs);
3. issue commute requests for two weeks and watch the TS generalize the
   ones that advance the quasi-identifier;
4. check Historical k-anonymity of what the service provider saw;
5. print the telemetry the instrumented pipeline recorded (decision
   counters, anonymity-set and latency histograms).

Telemetry is off by default (`TelemetryConfig(enabled=False)` costs one
branch per event); this example turns it on.  To also export every span
and the final metrics snapshot as JSONL, pass a path:
``TelemetryConfig(enabled=True, jsonl_path="quickstart-telemetry.jsonl")``.

Run:  python examples/quickstart.py
"""

from repro import (
    AlwaysUnlink,
    Engine,
    PolicyTable,
    PrivacyProfile,
    Rect,
    STPoint,
    TelemetryConfig,
    ToleranceConstraint,
    TrajectoryStore,
    commute_lbqid,
    satisfies_historical_k,
    time_at,
)

HOME = Rect(0, 0, 100, 100)
OFFICE = Rect(900, 900, 1000, 1000)
ALICE = 1
NEIGHBOURS = (2, 3, 4, 5)

K = 3  # Alice wants to hide among at least 3 people


def main() -> None:
    # The TS engine: a trajectory store, a policy (k=3, boxes of at most
    # 5 km / 2 h), and an unlinking provider for when generalization
    # fails (here: Theorem 1's always-succeeding one).
    policy = PolicyTable(
        default_profile=PrivacyProfile(k=K),
        default_tolerance=ToleranceConstraint.square(5_000.0, 7_200.0),
    )
    telemetry = TelemetryConfig(enabled=True).build()
    engine = Engine(
        TrajectoryStore(telemetry=telemetry),
        policy=policy,
        unlinker=AlwaysUnlink(),
        telemetry=telemetry,
    )

    # Alice's quasi-identifier: the paper's Example 2 commute pattern.
    lbqid = commute_lbqid(HOME, OFFICE, name="alice-commute")
    engine.register_lbqid(ALICE, lbqid)
    print(lbqid)

    # Two weeks of life.  Alice's neighbours commute on a similar
    # schedule; their location updates populate the PHLs that form
    # Alice's anonymity set.
    for week in range(2):
        for day in range(3):  # Mon-Wed
            for offset, user in enumerate(NEIGHBOURS):
                j = 3.0 * offset
                engine.report_location(
                    user, STPoint(40 + j, 40, time_at(week=week, day=day,
                                                      hour=7.4))
                )
                engine.report_location(
                    user, STPoint(950 + j, 950, time_at(week=week, day=day,
                                                        hour=8.4))
                )
                engine.report_location(
                    user, STPoint(950 + j, 950, time_at(week=week, day=day,
                                                        hour=17.1))
                )
                engine.report_location(
                    user, STPoint(40 + j, 40, time_at(week=week, day=day,
                                                      hour=18.1))
                )
            # Alice's four service requests of the day hit the four
            # LBQID elements in order.
            for hour, (x, y) in (
                (7.5, (50, 50)),
                (8.5, (950, 950)),
                (17.2, (950, 950)),
                (18.2, (50, 50)),
            ):
                event = engine.process(
                    ALICE,
                    STPoint(x, y, time_at(week=week, day=day, hour=hour)),
                    service="navigation",
                )
                context = event.request.context
                print(
                    f"week {week} day {day} {hour:5.1f}h  "
                    f"{event.decision.value:12s}  area "
                    f"{context.rect.width:6.1f} x "
                    f"{context.rect.height:6.1f} m, "
                    f"interval {context.interval.duration:7.1f} s"
                    + ("  << pattern complete" if event.lbqid_matched
                       else "")
                )

    # What did the SP learn?  Group Alice's forwarded requests and check
    # Definition 8 against the ground-truth store.
    forwarded = [
        e.request for e in engine.events
        if e.forwarded and e.request.user_id == ALICE
        and e.lbqid_name is not None
    ]
    ok = satisfies_historical_k(forwarded, engine.store.histories, k=K)
    print(f"\n{len(forwarded)} generalized requests forwarded to the SP")
    print(f"historical {K}-anonymity of Alice's trace: {ok}")
    counts = {d.value: c for d, c in engine.decision_counts().items() if c}
    print(f"decisions: {counts}")

    # The same tallies — plus set-size, box-geometry, and latency
    # histograms — as recorded live by the instrumentation layer.
    print()
    print(telemetry.summary())


if __name__ == "__main__":
    main()
