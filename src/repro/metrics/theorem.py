"""Theorem 1 as an executable check.

Theorem 1: with the Section 6.1 strategy, Algorithm 1, and an Unlinking
action that always succeeds with likelihood Θ, "any set of requests issued
to an SP by a certain user that matches one of his/her LBQIDs and is link
connected with likelihood Θ will satisfy Historical k-anonymity".

:func:`verify_theorem1` walks a run's audit trail and checks exactly
that statement: for every user and every registered LBQID, the forwarded
requests that were generalized for that LBQID are grouped by pseudonym
(pseudonym equality is the Θ-link-connected unit once unlinking bounds
cross-pseudonym links below Θ); every group whose exact locations match
the LBQID must satisfy Definition 8 against the ground-truth PHL store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.historical_k import historical_anonymity_set
from repro.core.lbqid import LBQID
from repro.core.matching import request_set_matches
from repro.core.phl import PersonalHistory
from repro.core.requests import Request
from repro.engine.context import AnonymizerEvent
from repro.mod.store import TrajectoryStore


@dataclass(frozen=True)
class Theorem1Violation:
    """One (user, pseudonym, LBQID) group that broke Definition 8."""

    user_id: int
    pseudonym: str
    lbqid_name: str
    requests: int
    achieved_k: int


@dataclass
class Theorem1Report:
    """Outcome of a Theorem 1 verification pass."""

    k: int
    groups_checked: int = 0
    groups_matching_lbqid: int = 0
    violations: list[Theorem1Violation] = field(default_factory=list)

    @property
    def holds(self) -> bool:
        """Whether Theorem 1 held on every matched group."""
        return not self.violations


def verify_theorem1(
    events: Sequence[AnonymizerEvent],
    histories: Mapping[int, PersonalHistory],
    lbqids: Mapping[int, Sequence[LBQID]],
    k: int,
) -> Theorem1Report:
    """Check Theorem 1 over a run's audit trail.

    ``lbqids`` maps each user id to the LBQIDs registered for them;
    ``histories`` is the ground-truth PHL store of the run.  Only
    *forwarded* generalized requests enter the check — suppressed ones
    never reached the SP, so they are outside the theorem's statement.

    The mapping is loaded into a columnar
    :class:`~repro.mod.store.TrajectoryStore` once so every group's
    LT-consistency scan runs vectorized; the verdicts are identical to
    the per-observation python scan it replaces.
    """
    report = Theorem1Report(k=k)
    store = TrajectoryStore.from_histories(histories)
    by_name: dict[tuple[int, str], LBQID] = {}
    for user_id, specs in lbqids.items():
        for lbqid in specs:
            by_name[(user_id, lbqid.name)] = lbqid

    groups: dict[tuple[int, str, str], list[Request]] = {}
    for event in events:
        if not event.forwarded or event.lbqid_name is None:
            continue
        key = (
            event.request.user_id,
            event.request.pseudonym,
            event.lbqid_name,
        )
        groups.setdefault(key, []).append(event.request)

    for (user_id, pseudonym, lbqid_name), requests in groups.items():
        lbqid = by_name.get((user_id, lbqid_name))
        if lbqid is None:
            continue
        report.groups_checked += 1
        locations = [request.location for request in requests]
        if not request_set_matches(lbqid, locations):
            continue
        report.groups_matching_lbqid += 1
        contexts = [request.context for request in requests]
        consistent = historical_anonymity_set(
            contexts, histories, exclude_user=user_id, store=store
        )
        achieved = 1 + len(consistent)
        if achieved < k:
            report.violations.append(
                Theorem1Violation(
                    user_id=user_id,
                    pseudonym=pseudonym,
                    lbqid_name=lbqid_name,
                    requests=len(requests),
                    achieved_k=achieved,
                )
            )
    return report
