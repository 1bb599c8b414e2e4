"""Empirical unlinking efficacy.

Section 6.3 defines Unlinking by its outcome: after it, requests under
the old and new pseudonyms link with likelihood below Θ.  This module
*measures* the likelihood an actual adversary achieves, rather than
trusting the provider's declared Θ: run the multi-target tracker over
the SP-visible stream and count, for every pseudonym rotation the TS
performed, whether the tracker stitched the old and new pseudonyms onto
one track.

The fraction of rotations re-linked is the achieved Θ̂.  With a
continuous trajectory and no service silence, movement continuity
bridges the rotation almost every time — the paper's motivation for
mix-zones ("temporarily disabling the use of the service … for the time
sufficient to confuse the SP"), which the engine's ``quiet_period``
implements and benchmark E16 sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.attack.tracker import TrajectoryTracker
from repro.core.phl import PersonalHistory
from repro.engine.context import AnonymizerEvent
from repro.mod.interpolation import position_at


@dataclass(frozen=True)
class RotationRecord:
    """One audited pseudonym rotation."""

    user_id: int
    t: float
    relinked: bool


@dataclass(frozen=True)
class UnlinkAudit:
    """Outcome of auditing a run's rotations against a tracker."""

    rotations: int
    relinked: int
    records: tuple[RotationRecord, ...] = ()

    @property
    def relink_rate(self) -> float:
        """The achieved Θ̂: fraction of rotations the attacker bridged."""
        if self.rotations == 0:
            return 0.0
        return self.relinked / self.rotations


def audit_unlinking(
    events: Sequence[AnonymizerEvent],
    max_speed: float = 15.0,
    track_timeout: float = 3600.0,
) -> UnlinkAudit:
    """Measure how many pseudonym rotations the tracker re-links.

    The tracker (with same-pseudonym following enabled, as any real
    adversary would) runs over the forwarded stream; a rotation counts
    as *re-linked* when some request under the retiring pseudonym and
    some request under its successor share a track.
    """
    forwarded = [e.request for e in events if e.forwarded]
    tracker = TrajectoryTracker(
        max_speed=max_speed, track_timeout=track_timeout
    )
    tracker.run([request.sp_view() for request in forwarded])

    # Tracks touched by each pseudonym.
    tracks_of: dict[str, set[int]] = {}
    for request in forwarded:
        track = tracker.track_of(request.msgid)
        if track is not None:
            tracks_of.setdefault(request.pseudonym, set()).add(track)

    # Rotation pairs: per user, consecutive distinct pseudonyms in
    # event order (ground truth the auditor — the TS itself — holds).
    last_pseudonym: dict[int, str] = {}
    records: list[RotationRecord] = []
    for event in events:
        user = event.request.user_id
        pseudonym = event.request.pseudonym
        previous = last_pseudonym.get(user)
        if previous is not None and previous != pseudonym:
            old_tracks = tracks_of.get(previous, set())
            new_tracks = tracks_of.get(pseudonym, set())
            records.append(
                RotationRecord(
                    user_id=user,
                    t=event.request.t,
                    relinked=bool(old_tracks & new_tracks),
                )
            )
        last_pseudonym[user] = pseudonym
    return UnlinkAudit(
        rotations=len(records),
        relinked=sum(1 for r in records if r.relinked),
        records=tuple(records),
    )


def split_by_motion(
    audit: UnlinkAudit,
    histories: Mapping[int, PersonalHistory],
    speed_threshold: float = 0.5,
    half_window: float = 240.0,
) -> dict[bool, UnlinkAudit]:
    """Partition an audit's rotations by the user's motion state.

    A rotation counts as *moving* when the user's mean speed over
    ``±half_window`` seconds around it exceeds ``speed_threshold`` m/s.
    Returns ``{True: moving-audit, False: stationary-audit}``.  The
    distinction matters because service silence only unlinks users who
    *emerge somewhere else*; a dwell place bridges any silence — the
    place itself is the identifier, which is the LBQID thesis.
    """
    buckets: dict[bool, list[RotationRecord]] = {True: [], False: []}
    for record in audit.records:
        history = histories.get(record.user_id)
        moving = False
        if history is not None:
            before = position_at(history, record.t - half_window)
            after = position_at(history, record.t + half_window)
            if before is not None and after is not None:
                speed = before.distance_to(after) / (2 * half_window)
                moving = speed > speed_threshold
        buckets[moving].append(record)
    return {
        moving: UnlinkAudit(
            rotations=len(records),
            relinked=sum(1 for r in records if r.relinked),
            records=tuple(records),
        )
        for moving, records in buckets.items()
    }
