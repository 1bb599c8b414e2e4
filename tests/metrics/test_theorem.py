"""Unit tests for the Theorem 1 verification pass."""

from repro.core.lbqid import commute_lbqid
from repro.core.phl import PersonalHistory
from repro.core.requests import Request
from repro.engine.context import AnonymizerEvent, Decision
from repro.geometry.point import STPoint
from repro.geometry.region import Rect, STBox
from repro.granularity.timeline import time_at
from repro.metrics.theorem import verify_theorem1

HOME = Rect(0, 0, 100, 100)
OFFICE = Rect(900, 900, 1000, 1000)
LBQID = commute_lbqid(HOME, OFFICE, name="commute")
USER = 0


def anchor_locations(week, day):
    return [
        STPoint(50, 50, time_at(week=week, day=day, hour=7.5)),
        STPoint(950, 950, time_at(week=week, day=day, hour=8.5)),
        STPoint(950, 950, time_at(week=week, day=day, hour=17.2)),
        STPoint(50, 50, time_at(week=week, day=day, hour=18.2)),
    ]


def matched_trace():
    """The 24 request locations of a fully matched commute pattern."""
    return [
        location
        for week in range(2)
        for day in range(3)
        for location in anchor_locations(week, day)
    ]


def events_for(locations, margin):
    """GENERALIZED events with square contexts of the given margin."""
    events = []
    for i, location in enumerate(locations):
        box = STBox.from_st_point(location).expanded(margin, 600.0)
        request = Request.issue(
            i, USER, "p", location
        ).with_context(box)
        events.append(
            AnonymizerEvent(
                request=request,
                decision=Decision.GENERALIZED,
                forwarded=True,
                lbqid_name="commute",
                hk_anonymity=True,
            )
        )
    return events


def neighbour_histories(n, offset=5.0):
    """``n`` users shadowing the commute (LT-consistent neighbours)."""
    histories = {USER: PersonalHistory(USER, matched_trace())}
    for user_id in range(1, n + 1):
        shifted = [
            STPoint(p.x + offset, p.y, p.t + 60.0)
            for p in matched_trace()
        ]
        histories[user_id] = PersonalHistory(user_id, shifted)
    return histories


class TestVerifyTheorem1:
    lbqids = {USER: [LBQID]}

    def test_holds_with_consistent_neighbours(self):
        events = events_for(matched_trace(), margin=50.0)
        histories = neighbour_histories(4)
        report = verify_theorem1(events, histories, self.lbqids, k=5)
        assert report.groups_matching_lbqid == 1
        assert report.holds

    def test_violation_detected_without_neighbours(self):
        events = events_for(matched_trace(), margin=1.0)
        histories = {USER: PersonalHistory(USER, matched_trace())}
        report = verify_theorem1(events, histories, self.lbqids, k=5)
        assert not report.holds
        violation = report.violations[0]
        assert violation.user_id == USER
        assert violation.achieved_k == 1

    def test_unmatched_groups_not_checked_for_k(self):
        """An incomplete pattern is outside the theorem's premise."""
        events = events_for(anchor_locations(0, 0), margin=1.0)
        histories = {USER: PersonalHistory(USER, matched_trace())}
        report = verify_theorem1(events, histories, self.lbqids, k=5)
        assert report.groups_checked == 1
        assert report.groups_matching_lbqid == 0
        assert report.holds

    def test_suppressed_requests_outside_statement(self):
        events = events_for(matched_trace(), margin=1.0)
        suppressed = [
            AnonymizerEvent(
                request=e.request,
                decision=Decision.SUPPRESSED,
                forwarded=False,
                lbqid_name="commute",
            )
            for e in events
        ]
        histories = {USER: PersonalHistory(USER, matched_trace())}
        report = verify_theorem1(
            suppressed, histories, self.lbqids, k=5
        )
        assert report.groups_checked == 0
        assert report.holds

    def test_pseudonym_split_breaks_the_match(self):
        """Rotating the pseudonym mid-pattern keeps both groups
        incomplete, so neither triggers the check."""
        locations = matched_trace()
        events = events_for(locations, margin=1.0)
        relabeled = []
        for i, e in enumerate(events):
            pseudonym = "p1" if i < 12 else "p2"
            relabeled.append(
                AnonymizerEvent(
                    request=e.request.with_pseudonym(pseudonym),
                    decision=e.decision,
                    forwarded=True,
                    lbqid_name="commute",
                )
            )
        histories = {USER: PersonalHistory(USER, locations)}
        report = verify_theorem1(
            relabeled, histories, self.lbqids, k=5
        )
        assert report.groups_checked == 2
        assert report.groups_matching_lbqid == 0
        assert report.holds
