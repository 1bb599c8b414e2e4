"""Unit tests for the unlinking-efficacy audit."""

from repro.core.phl import PersonalHistory
from repro.core.requests import Request
from repro.engine.context import AnonymizerEvent, Decision
from repro.geometry.point import STPoint
from repro.metrics.unlinking import audit_unlinking, split_by_motion


def event(msgid, user_id, pseudonym, x, t, forwarded=True):
    request = Request.issue(msgid, user_id, pseudonym, STPoint(x, 0.0, t))
    return AnonymizerEvent(
        request=request,
        decision=Decision.FORWARDED if forwarded else Decision.SUPPRESSED,
        forwarded=forwarded,
    )


def walk(user_id, pseudonym, start_msgid, x0, t0, steps=4):
    """Slow continuous walk: 60 m per minute."""
    return [
        event(start_msgid + i, user_id, pseudonym, x0 + 60.0 * i,
              t0 + 60.0 * i)
        for i in range(steps)
    ]


class TestAuditUnlinking:
    def test_no_rotations(self):
        events = walk(1, "a", 1, 0, 0)
        audit = audit_unlinking(events)
        assert audit.rotations == 0
        assert audit.relink_rate == 0.0

    def test_continuous_walk_relinked(self):
        """Rotating mid-walk without silence is bridged by continuity."""
        events = walk(1, "a", 1, 0, 0) + walk(1, "b", 10, 240, 240)
        audit = audit_unlinking(events)
        assert audit.rotations == 1
        assert audit.relinked == 1

    def test_long_silence_breaks_the_track(self):
        """A gap beyond the track timeout defeats the tracker."""
        events = walk(1, "a", 1, 0, 0) + walk(1, "b", 10, 240, 50_000)
        audit = audit_unlinking(events, track_timeout=3600.0)
        assert audit.rotations == 1
        assert audit.relinked == 0

    def test_suppressed_requests_carry_rotation_info(self):
        """A rotation visible only through suppressed events still counts
        as a rotation (the TS knows), and is unlinked if nothing under
        one pseudonym was ever forwarded."""
        events = walk(1, "a", 1, 0, 0)
        events.append(event(9, 1, "b", 240, 240, forwarded=False))
        events += walk(1, "c", 10, 300, 300)
        audit = audit_unlinking(events)
        assert audit.rotations == 2

    def test_records_expose_users_and_times(self):
        events = walk(1, "a", 1, 0, 0) + walk(1, "b", 10, 240, 240)
        audit = audit_unlinking(events)
        (record,) = audit.records
        assert record.user_id == 1
        assert record.t == 240.0


class TestSplitByMotion:
    def test_moving_vs_stationary(self):
        # User 1 walks through their rotation; user 2 dwells.
        events = walk(1, "a", 1, 0, 0) + walk(1, "b", 10, 240, 240)
        events += [
            event(20 + i, 2, "c", 5000, 60.0 * i) for i in range(4)
        ] + [
            event(30 + i, 2, "d", 5000, 240 + 60.0 * i) for i in range(4)
        ]
        audit = audit_unlinking(events)
        histories = {
            1: PersonalHistory(
                1, [STPoint(60.0 * i, 0, 60.0 * i) for i in range(9)]
            ),
            2: PersonalHistory(
                2, [STPoint(5000, 0, 60.0 * i) for i in range(9)]
            ),
        }
        by_motion = split_by_motion(audit, histories)
        assert by_motion[True].rotations == 1
        assert by_motion[False].rotations == 1
        # The dweller is trivially re-linked (same place).
        assert by_motion[False].relinked == 1

    def test_unknown_history_counts_as_stationary(self):
        events = walk(1, "a", 1, 0, 0) + walk(1, "b", 10, 240, 240)
        audit = audit_unlinking(events)
        by_motion = split_by_motion(audit, histories={})
        assert by_motion[False].rotations == 1
        assert by_motion[True].rotations == 0
