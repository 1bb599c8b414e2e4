"""The staged engine: builder operations, custom stages, batch replay.

Covers the PipelineBuilder contract (stages addressed by name, chained
mutators, bind-once), stage swapping as the supported extension point
(ablating unlinking, inserting a policy stage), the per-stage telemetry
(``engine.stage_ms`` / ``engine.stage_decisions``), and the equivalence
of :meth:`Engine.process_batch` with one-at-a-time processing.
"""

import pytest

from repro.core.generalization import ToleranceConstraint
from repro.core.lbqid import LBQID, LBQIDElement
from repro.core.policy import PolicyTable, PrivacyProfile
from repro.core.unlinking import AlwaysUnlink
from repro.engine.context import Decision
from repro.engine.pipeline import BatchItem, Engine, PipelineBuilder
from repro.engine.session import InMemorySessionStore, UserSession
from repro.engine.stages import (
    Audit,
    Generalize,
    MonitorMatch,
    QuietGate,
    RiskPolicy,
    Stage,
    Unlink,
)
from repro.geometry.point import STPoint
from repro.geometry.region import Rect
from repro.granularity.timeline import time_at
from repro.granularity.unanchored import UnanchoredInterval
from repro.mod.store import TrajectoryStore
from repro.obs.config import TelemetryConfig

HOME = Rect(0, 0, 100, 100)
USER = 1
LOOSE = ToleranceConstraint.square(5_000.0, 7_200.0)
TIGHT = ToleranceConstraint.square(1.0, 1.0)

DEFAULT_ORDER = [
    "quiet_gate",
    "monitor_match",
    "generalize",
    "unlink",
    "risk_policy",
    "audit",
]


def neighbour_updates(days=3):
    """Background presence near HOME from three other users."""
    return [
        (user, STPoint(40.0 + jitter, 40.0, time_at(day=day, hour=7.4)))
        for day in range(days)
        for user, jitter in ((2, 0.0), (3, 5.0), (4, 10.0))
    ]


def seeded_store():
    store = TrajectoryStore()
    for user, point in neighbour_updates():
        store.add_point(user, point)
    return store


def home_lbqid():
    return LBQID(
        "home-anytime",
        [LBQIDElement(HOME, UnanchoredInterval(0.0, 86_399.0))],
    )


def commute_2step():
    """A two-element pattern: incomplete after its first match, so a
    successful unlinking is not "too late" and reports UNLINKED."""
    office = Rect(900, 900, 1000, 1000)
    all_day = UnanchoredInterval(0.0, 86_399.0)
    return LBQID(
        "home-office",
        [LBQIDElement(HOME, all_day), LBQIDElement(office, all_day)],
    )


def make_engine(tolerance=LOOSE, store=None, **kwargs):
    policy = PolicyTable(
        default_profile=PrivacyProfile(k=3),
        default_tolerance=tolerance,
    )
    kwargs.setdefault("unlinker", AlwaysUnlink())
    return Engine(
        store if store is not None else seeded_store(),
        policy=policy,
        **kwargs,
    )


class Blocklist(Stage):
    """A toy policy stage: suppress one service outright."""

    name = "blocklist"

    def __init__(self, service: str) -> None:
        super().__init__()
        self.service = service

    def handle(self, ctx):
        if ctx.service == self.service:
            ctx.forwarded = False
            return Decision.SUPPRESSED
        return None


class TestPipelineBuilder:
    def test_default_order(self):
        assert PipelineBuilder.default().stage_names == DEFAULT_ORDER

    def test_mutators_chain_and_reorder(self):
        builder = (
            PipelineBuilder.default()
            .remove("unlink")
            .insert_before("generalize", Blocklist("spam"))
            .insert_after("blocklist", QuietGate())
            .replace("risk_policy", Blocklist("other"))
            .add(Blocklist("tail"))
        )
        assert builder.stage_names == [
            "quiet_gate",
            "monitor_match",
            "blocklist",
            "quiet_gate",
            "generalize",
            "blocklist",
            "audit",
            "blocklist",
        ]

    def test_unknown_stage_name_raises_keyerror(self):
        builder = PipelineBuilder.default()
        with pytest.raises(KeyError, match="no_such_stage"):
            builder.remove("no_such_stage")
        with pytest.raises(KeyError):
            builder.insert_before("no_such_stage", QuietGate())
        with pytest.raises(KeyError):
            builder.replace("no_such_stage", QuietGate())

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            make_engine(pipeline=PipelineBuilder())

    def test_stages_cannot_be_rebound_across_engines(self):
        builder = PipelineBuilder.default()
        make_engine(pipeline=builder)
        with pytest.raises(ValueError, match="already bound"):
            make_engine(pipeline=builder)

    def test_rebuilding_for_the_same_engine_is_fine(self):
        engine = make_engine()
        assert PipelineBuilder(engine.stages).build(engine)

    def test_plain_stage_sequence_accepted(self):
        engine = make_engine(
            pipeline=[
                QuietGate(),
                MonitorMatch(),
                Generalize(),
                Unlink(),
                RiskPolicy(),
                Audit(),
            ]
        )
        assert [s.name for s in engine.stages] == DEFAULT_ORDER


class TestCustomPipelines:
    def test_blocklist_stage_suppresses_before_matching(self):
        engine = make_engine(
            pipeline=PipelineBuilder.default().insert_before(
                "monitor_match", Blocklist("blocked")
            )
        )
        engine.register_lbqid(USER, home_lbqid())
        event = engine.process(
            USER, STPoint(50, 50, time_at(hour=7.5)), "blocked"
        )
        assert event.decision is Decision.SUPPRESSED
        assert not event.forwarded
        # The monitor never saw the request.
        assert not engine.session(USER).lbqids[0].monitor.partials
        # The audit tail still ran: tallied, retained, not forwarded.
        assert engine.decision_counts()[Decision.SUPPRESSED] == 1
        assert engine.events[-1] is event
        assert engine.sp_log() == []

    def test_removing_unlink_ablates_section_6_3(self):
        engine = make_engine(
            tolerance=TIGHT,
            pipeline=PipelineBuilder.default().remove("unlink"),
        )
        engine.register_lbqid(USER, commute_2step())
        event = engine.process(USER, STPoint(50, 50, time_at(hour=7.5)))
        # Generalization fails under the 1m tolerance; without the
        # unlink stage the always-willing unlinker is never consulted.
        assert event.decision is Decision.SUPPRESSED
        assert not event.pseudonym_rotated
        assert engine.sessions.pseudonyms_of(USER) == [
            engine.sessions.pseudonym(USER)
        ]

    def test_with_unlink_the_same_request_rotates(self):
        engine = make_engine(tolerance=TIGHT)
        engine.register_lbqid(USER, commute_2step())
        event = engine.process(USER, STPoint(50, 50, time_at(hour=7.5)))
        assert event.decision is Decision.UNLINKED
        assert event.pseudonym_rotated

    def test_pipeline_without_audit_stage_is_an_error(self):
        engine = make_engine(
            pipeline=PipelineBuilder.default().remove("audit")
        )
        with pytest.raises(AssertionError, match="Audit"):
            engine.process(USER, STPoint(50, 50, time_at(hour=7.5)))


class TestSessions:
    def test_session_created_on_first_access(self):
        engine = make_engine()
        assert engine.sessions.get(3) is None
        session = engine.session(3)
        assert isinstance(session, UserSession)
        assert session.user_id == 3
        assert engine.sessions.get(3) is session
        assert session.lbqids == []
        assert session.quiet_until is None

    def test_default_store_issues_plain_p_pseudonyms(self):
        engine = make_engine()
        assert isinstance(engine.sessions, InMemorySessionStore)
        event = engine.process(9, STPoint(2_000, 2_000, time_at(hour=9)))
        assert event.request.pseudonym == engine.sessions.pseudonym(9)
        assert event.request.pseudonym == "p00000000"

    def test_given_store_issues_under_its_prefix(self):
        sessions = InMemorySessionStore(pseudonym_prefix="p3.")
        engine = make_engine(sessions=sessions)
        assert engine.sessions is sessions
        event = engine.process(9, STPoint(2_000, 2_000, time_at(hour=9)))
        assert event.request.pseudonym == "p3.00000000"

    def test_rotation_keeps_owner_and_issue_history(self):
        engine = make_engine(tolerance=TIGHT)
        engine.register_lbqid(USER, commute_2step())
        old = engine.sessions.pseudonym(USER)
        event = engine.process(USER, STPoint(50, 50, time_at(hour=7.5)))
        assert event.pseudonym_rotated
        new = engine.sessions.pseudonym(USER)
        assert new != old
        assert engine.sessions.pseudonyms_of(USER) == [old, new]
        assert engine.sessions.pseudonym_owner(old) == USER
        assert engine.sessions.pseudonym_owner(new) == USER
        assert engine.sessions.pseudonym_owner("p-nobody") is None
        assert engine.sessions.pseudonyms_issued == 2

    def test_users_listed_in_first_seen_order(self):
        engine = make_engine()
        for user_id in (7, 2, 5):
            engine.process(
                user_id, STPoint(2_000, 2_000, time_at(hour=9))
            )
        assert list(engine.sessions.users()) == [7, 2, 5]
        assert len(engine.sessions) == 3


class TestStageTelemetry:
    def test_stage_ms_and_stage_decisions_recorded(self):
        engine = make_engine(telemetry=TelemetryConfig(enabled=True))
        engine.register_lbqid(USER, home_lbqid())
        engine.process(USER, STPoint(50, 50, time_at(hour=7.5)))
        engine.process(9, STPoint(2_000, 2_000, time_at(hour=9.0)))
        snapshot = engine.telemetry.snapshot()
        for stage in ("quiet_gate", "monitor_match", "audit"):
            summary = snapshot.histogram_summary(
                "engine.stage_ms", stage=stage
            )
            assert summary is not None and summary.count == 2, stage
        # The matched request resolved in generalize, the unmatched one
        # in monitor_match — one decision counter tick each.
        assert snapshot.counter_value(
            "engine.stage_decisions",
            stage="generalize",
            decision="generalized",
        ) == 1
        assert snapshot.counter_value(
            "engine.stage_decisions",
            stage="monitor_match",
            decision="forwarded",
        ) == 1
        # Skipped stages record nothing: unlink never ran.
        assert snapshot.histogram_summary(
            "engine.stage_ms", stage="unlink"
        ) is None

    def test_disabled_telemetry_walks_without_instrumentation(self):
        engine = make_engine()
        engine.register_lbqid(USER, home_lbqid())
        event = engine.process(USER, STPoint(50, 50, time_at(hour=7.5)))
        assert event.decision is Decision.GENERALIZED
        assert not engine.telemetry.enabled


class TestBatchProcessing:
    def timeline(self):
        """Neighbour updates then one request, all inside the batch."""
        items = [
            BatchItem(user_id=user, location=point)
            for user, point in neighbour_updates()
        ]
        items.append(
            BatchItem(
                user_id=USER,
                location=STPoint(50, 50, time_at(day=2, hour=7.5)),
                service="poi",
            )
        )
        return items

    def test_batch_item_flags_requests(self):
        update = BatchItem(user_id=1, location=STPoint(0, 0, 0))
        request = BatchItem(
            user_id=1, location=STPoint(0, 0, 0), service="poi"
        )
        assert not update.is_request
        assert request.is_request

    def test_requests_see_earlier_updates_of_the_same_batch(self):
        engine = make_engine(store=TrajectoryStore())
        engine.register_lbqid(USER, home_lbqid())
        events = engine.process_batch(self.timeline())
        # Only the request yields an event, and its anonymity set could
        # only have come from updates flushed earlier in this batch.
        assert len(events) == 1
        assert events[0].decision is Decision.GENERALIZED

    def test_batch_matches_one_at_a_time_processing(self):
        items = self.timeline()

        batch = make_engine(store=TrajectoryStore())
        batch.register_lbqid(USER, home_lbqid())
        batch_events = batch.process_batch(items)

        sequential = make_engine(store=TrajectoryStore())
        sequential.register_lbqid(USER, home_lbqid())
        sequential_events = []
        for item in items:
            if item.is_request:
                sequential_events.append(
                    sequential.process(
                        item.user_id, item.location, item.service
                    )
                )
            else:
                sequential.report_location(item.user_id, item.location)

        assert len(batch_events) == len(sequential_events)
        for got, want in zip(batch_events, sequential_events):
            assert got.decision is want.decision
            assert got.request.msgid == want.request.msgid
            assert got.request.pseudonym == want.request.pseudonym
            assert got.request.context == want.request.context
        assert batch.store.total_points == sequential.store.total_points

    def test_batch_bumps_store_version_once_per_user_flush(self):
        items = self.timeline()
        engine = make_engine(store=TrajectoryStore())
        engine.register_lbqid(USER, home_lbqid())
        engine.process_batch(items)
        # One flush of three users' buffered updates (3 bumps) plus the
        # request's own ingest (1 bump) — not one bump per point.
        assert engine.store.version == 4
        n_updates = sum(1 for item in items if not item.is_request)
        assert engine.store.total_points == n_updates + 1

    def test_trailing_updates_are_flushed(self):
        engine = make_engine(store=TrajectoryStore())
        events = engine.process_batch(
            BatchItem(user_id=user, location=point)
            for user, point in neighbour_updates(days=1)
        )
        assert events == []
        assert engine.store.total_points == 3
        assert engine.store.version == 3  # one bump per user's run

    def test_batch_flush_telemetry(self):
        engine = make_engine(
            store=TrajectoryStore(),
            telemetry=TelemetryConfig(enabled=True),
        )
        engine.register_lbqid(USER, home_lbqid())
        engine.process_batch(self.timeline())
        snapshot = engine.telemetry.snapshot()
        assert snapshot.counter_value("engine.batch_flushes") == 1
        n_updates = len(neighbour_updates())
        # Buffered updates counted in bulk + the request's own ingest.
        assert (
            snapshot.counter_value("ts.location_updates")
            == n_updates + 1
        )
