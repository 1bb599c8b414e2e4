#!/usr/bin/env python
"""Deriving LBQIDs from movement history (Section 4's open problem).

The paper requires LBQIDs as *input* but notes that deriving them "will
have to be based on statistical analysis of the data about users
movement history", that common patterns are useless as identifiers, and
that the Trusted Server "is probably a good candidate to offer tools for
LBQID definition".  This example is that tool in action:

1. mine each commuter's anchor places (home/work) and assemble the
   candidate commute pattern with windows and recurrence fitted to the
   observed behaviour;
2. validate each candidate against its owner's own history;
3. score distinctiveness against the whole city — patterns matched by
   many users are discarded;
4. hand the surviving quasi-identifiers straight to the engine.

Run:  python examples/lbqid_mining.py
"""

import statistics

from repro.core.matching import request_set_matches
from repro.experiments.harness import Table
from repro.experiments.workloads import small_city
from repro.mining import mine_commute_lbqid, score_candidates


def main() -> None:
    city = small_city(seed=11)
    store = city.store
    population = len(store)

    candidates = []
    self_matching = 0
    for commuter in city.commuters:
        history = store.history(commuter.user_id)
        mined = mine_commute_lbqid(history)
        if mined is None:
            continue
        candidates.append(mined)
        if request_set_matches(mined.lbqid, history.points):
            self_matching += 1

    print(
        f"mined {len(candidates)} candidate commute patterns from "
        f"{len(city.commuters)} commuters "
        f"({self_matching} match their owner's own history)"
    )

    kept = score_candidates(candidates, store)
    matches = [score.matching_users for _c, score in kept]
    print(
        f"distinctiveness filter kept {len(kept)} / {len(candidates)} "
        f"candidates (median {statistics.median(matches):.0f} matching "
        f"user(s) out of {population})"
    )

    table = Table(
        "sample of mined quasi-identifiers",
        ["owner", "recurrence", "round trips seen", "users matching"],
    )
    for mined, score in kept[:8]:
        table.add_row(
            [
                mined.lbqid.name,
                str(mined.lbqid.recurrence),
                mined.observations,
                score.matching_users,
            ]
        )
    table.print()

    ground_truth_hit = 0
    for mined, _score in kept:
        owner = int(mined.lbqid.name.rsplit("u", 1)[1])
        commuter = city.commuters[owner]
        if mined.home.area.expanded(100).contains(commuter.home_point):
            ground_truth_hit += 1
    print(
        f"{ground_truth_hit}/{len(kept)} mined home anchors agree with "
        "the generator's ground truth — the TS can propose these "
        "LBQIDs to users (or an adversary could mine them from a leak, "
        "which is exactly why they must be protected)."
    )


if __name__ == "__main__":
    main()
