"""Unit tests for anonymity metrics."""

from repro.core.phl import PersonalHistory
from repro.core.requests import Request
from repro.engine.context import AnonymizerEvent, Decision
from repro.geometry.point import STPoint
from repro.geometry.region import Interval, Rect, STBox
from repro.metrics.anonymity import (
    anonymity_summary,
    historical_k_per_user,
)


def histories_at_origin(n):
    """``n`` users each with one sample at the origin at t=0..10."""
    return {
        user_id: PersonalHistory(
            user_id, [STPoint(0.0, 0.0, float(user_id))]
        )
        for user_id in range(n)
    }


def event(user_id, pseudonym, box, hk=True, forwarded=True, lbqid="q"):
    location = STPoint(box.rect.center.x, box.rect.center.y,
                       box.interval.center)
    request = Request.issue(
        1, user_id, pseudonym, location
    ).with_context(box)
    return AnonymizerEvent(
        request=request,
        decision=Decision.GENERALIZED if hk else Decision.UNLINKED,
        forwarded=forwarded,
        lbqid_name=lbqid,
        hk_anonymity=hk,
    )


ORIGIN_BOX = STBox(Rect(-10, -10, 10, 10), Interval(0, 20))
EMPTY_BOX = STBox(Rect(500, 500, 600, 600), Interval(0, 20))


class TestAnonymitySummary:
    def test_counts_potential_senders(self):
        histories = histories_at_origin(6)
        summary = anonymity_summary(
            [event(0, "p", ORIGIN_BOX)], histories, k=3
        )
        assert summary.mean_set_size == 6
        assert summary.min_set_size == 6
        assert summary.fraction_below_k == 0.0

    def test_fraction_below_k(self):
        histories = histories_at_origin(2)
        summary = anonymity_summary(
            [event(0, "p", ORIGIN_BOX)], histories, k=5
        )
        assert summary.fraction_below_k == 1.0

    def test_empty_events(self):
        summary = anonymity_summary([], histories_at_origin(3), k=2)
        assert summary.requests == 0

    def test_suppressed_excluded(self):
        histories = histories_at_origin(3)
        suppressed = event(0, "p", ORIGIN_BOX, forwarded=False)
        summary = anonymity_summary([suppressed], histories, k=2)
        assert summary.requests == 0


class TestHistoricalKPerUser:
    def test_counts_requester_plus_consistent(self):
        histories = histories_at_origin(5)
        events = [event(0, "p", ORIGIN_BOX)]
        achieved = historical_k_per_user(events, histories)
        # 4 other users are LT-consistent with the single context.
        assert achieved[0] == 5

    def test_worst_pseudonym_group_wins(self):
        histories = histories_at_origin(5)
        events = [
            event(0, "p1", ORIGIN_BOX),
            event(0, "p2", EMPTY_BOX),
        ]
        achieved = historical_k_per_user(events, histories)
        assert achieved[0] == 1

    def test_hk_only_filters_failed_contexts(self):
        histories = histories_at_origin(5)
        events = [
            event(0, "p", ORIGIN_BOX, hk=True),
            event(0, "p", EMPTY_BOX, hk=False),
        ]
        warts = historical_k_per_user(events, histories)
        clean = historical_k_per_user(events, histories, hk_only=True)
        assert warts[0] == 1
        assert clean[0] == 5

    def test_intersection_across_contexts(self):
        histories = histories_at_origin(5)
        histories[9] = PersonalHistory(9, [STPoint(550, 550, 10)])
        events = [
            event(0, "p", ORIGIN_BOX),
            event(0, "p", EMPTY_BOX),
        ]
        achieved = historical_k_per_user(events, histories)
        # Nobody but (vacuously) the requester fits both contexts.
        assert achieved[0] == 1

    def test_non_generalized_events_ignored(self):
        histories = histories_at_origin(3)
        plain = event(0, "p", ORIGIN_BOX, lbqid=None)
        assert historical_k_per_user([plain], histories) == {}
