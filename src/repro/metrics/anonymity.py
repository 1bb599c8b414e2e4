"""Achieved-anonymity metrics.

Two views:

* per-request anonymity sets (the [11]-style measure): how many users'
  PHLs intersect each forwarded context;
* per-user historical anonymity (the paper's Definition 8 measure): how
  many *other* users remain LT-consistent with the whole set of contexts
  an SP can attribute to one pseudonym.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.historical_k import (
    anonymity_entropy,
    historical_anonymity_set,
    request_anonymity_set,
)
from repro.core.phl import PersonalHistory
from repro.engine.context import AnonymizerEvent
from repro.mod.store import TrajectoryStore


@dataclass(frozen=True)
class AnonymitySummary:
    """Scalar anonymity summary over a set of forwarded requests."""

    requests: int
    mean_set_size: float
    min_set_size: int
    entropy_bits: float
    fraction_below_k: float

    def row(self) -> list[float]:
        return [
            self.requests,
            self.mean_set_size,
            self.min_set_size,
            self.entropy_bits,
            self.fraction_below_k,
        ]


def anonymity_summary(
    events: Sequence[AnonymizerEvent],
    histories: Mapping[int, PersonalHistory],
    k: int,
    generalized_only: bool = True,
) -> AnonymitySummary:
    """Per-request anonymity sets of forwarded contexts.

    ``fraction_below_k`` is the share of requests whose single-context
    anonymity set has fewer than ``k`` members — the per-request failure
    measure the [11] baseline optimizes directly.
    """
    contexts = [
        e.request.context
        for e in events
        if e.forwarded and (e.lbqid_name is not None or not generalized_only)
    ]
    store = TrajectoryStore.from_histories(histories) if contexts else None
    sizes = [
        len(request_anonymity_set(context, histories, store=store))
        for context in contexts
    ]
    if not sizes:
        return AnonymitySummary(0, 0.0, 0, 0.0, 0.0)
    return AnonymitySummary(
        requests=len(sizes),
        mean_set_size=sum(sizes) / len(sizes),
        min_set_size=min(sizes),
        entropy_bits=anonymity_entropy(sizes),
        fraction_below_k=sum(1 for s in sizes if s < k) / len(sizes),
    )


def historical_k_per_user(
    events: Sequence[AnonymizerEvent],
    histories: Mapping[int, PersonalHistory],
    hk_only: bool = False,
    group_by_lbqid: bool = True,
) -> dict[int, int]:
    """Achieved historical anonymity per user, worst case over traces.

    Requests are grouped by (pseudonym, LBQID) — the scope of the
    paper's guarantee: Algorithm 1 keeps one anonymity set per LBQID, so
    Definition 8 is promised for the requests matching one LBQID under
    one pseudonym.  The reported value per user is the *minimum* over
    their groups of ``1 +`` the number of other users LT-consistent with
    the group's contexts.

    With ``group_by_lbqid=False`` all of a pseudonym's generalized
    requests are pooled regardless of LBQID — the stronger adversarial
    reading (the SP links by pseudonym alone), under which a user
    monitored for several LBQIDs may score below k because different
    LBQIDs use different anonymity sets.

    With ``hk_only`` only contexts Algorithm 1 certified (hk = True) are
    included; the default also counts forwarded-but-failed contexts (the
    final request of an unlinked trace), giving the warts-and-all number.
    """
    groups: dict[tuple, list] = {}
    for event in events:
        if not event.forwarded or event.lbqid_name is None:
            continue
        if hk_only and not event.hk_anonymity:
            continue
        key: tuple = (event.request.user_id, event.request.pseudonym)
        if group_by_lbqid:
            key = key + (event.lbqid_name,)
        groups.setdefault(key, []).append(event.request.context)
    store = TrajectoryStore.from_histories(histories) if groups else None
    worst: dict[int, int] = {}
    for key, contexts in groups.items():
        user_id = key[0]
        consistent = historical_anonymity_set(
            contexts, histories, exclude_user=user_id, store=store
        )
        achieved = 1 + len(consistent)
        if user_id not in worst or achieved < worst[user_id]:
            worst[user_id] = achieved
    return worst
