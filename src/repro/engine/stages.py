"""The Section 6.1 strategy as six small, swappable pipeline stages.

Each stage implements ``handle(ctx) -> Decision | None``: return a
:class:`Decision` to resolve the request (the engine then skips straight
to the terminal stages), return ``None`` to pass the context on.  The
default order is the Section 6.1 strategy, step for step:

``QuietGate`` → ``MonitorMatch`` → ``Generalize`` → ``Unlink`` →
``RiskPolicy`` → ``Audit``

Stages are bound to one :class:`~repro.engine.pipeline.Engine` at build
time (:meth:`Stage.bind`) and reach the engine's collaborators — store,
generalizer, unlinker, session store, policy knobs — through it.  They
hold no per-request state of their own; everything request-scoped lives
on the :class:`~repro.engine.context.RequestContext`, which is what
makes stage insertion/replacement safe.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.generalization import GeneralizationResult, default_context
from repro.core.matching import MatchEvent, PartialMatch
from repro.core.policy import RiskAction
from repro.engine.context import (
    AnonymitySetScope,
    AnonymizerEvent,
    Decision,
    RequestContext,
)
from repro.engine.session import LBQIDState

if TYPE_CHECKING:
    from repro.engine.pipeline import Engine


class Stage:
    """Base class for pipeline stages.

    ``name`` labels the stage in builder operations and telemetry
    (``engine.stage_ms{stage=<name>}``); ``terminal`` marks stages that
    must run even after an earlier stage resolved the request (the
    audit tail of the pipeline).
    """

    #: Builder/telemetry label; subclasses must override.
    name: str = ""
    #: Terminal stages run unconditionally, after the decision.
    terminal: bool = False

    def __init__(self) -> None:
        self.engine: "Engine | None" = None

    def bind(self, engine: "Engine") -> "Stage":
        """Attach this stage to the engine whose pipeline it joins."""
        self.engine = engine
        return self

    def handle(self, ctx: RequestContext) -> Decision | None:
        """Process one request context; a Decision resolves it."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class QuietGate(Stage):
    """Suppress requests inside the post-unlinking quiet window.

    The Section 6.3 mix-zone mechanic: after a pseudonym rotation the
    service stays disabled for ``quiet_period`` seconds so the SP sees a
    gap, not a continuous trajectory, across the rotation.  The location
    update has already been ingested; nothing crosses the trust
    boundary.
    """

    name = "quiet_gate"

    def handle(self, ctx: RequestContext) -> Decision | None:
        quiet_until = ctx.session.quiet_until
        if quiet_until is not None and ctx.location.t < quiet_until:
            return Decision.QUIET
        return None


class MonitorMatch(Stage):
    """Feed the request to the user's LBQID monitors; pick the match.

    Implements the paper's simplifying assumption "each request can
    match an element in only one of the LBQIDs defined for a certain
    user": every monitor is fed, and with several candidates the
    most-advanced partial wins (ties break deterministically toward the
    earliest-registered LBQID — the sort is stable).  A request matching
    nothing is forwarded as-is under the default cloak.
    """

    name = "monitor_match"

    def handle(self, ctx: RequestContext) -> Decision | None:
        assert self.engine is not None
        state, match = self.select_match(ctx)
        if state is None or match is None:
            context = default_context(
                ctx.location, self.engine.default_cloak
            )
            ctx.request = ctx.request.with_context(context)
            ctx.forwarded = True
            return Decision.FORWARDED
        ctx.state = state
        ctx.match = match
        ctx.step = state.steps
        ctx.required_k = ctx.profile.required_k_at_step(state.steps)
        return None

    @staticmethod
    def select_match(
        ctx: RequestContext,
    ) -> tuple[LBQIDState | None, MatchEvent | None]:
        """Feed every monitor; return the winning (state, event) pair."""
        matched: list[tuple[int, LBQIDState, MatchEvent]] = []
        for state in ctx.session.lbqids:  # feed them all
            event = state.monitor.feed(ctx.location)
            if event.matched_any_element:
                progress = max(
                    (p.next_index for p in event.advanced), default=1
                )
                matched.append((progress, state, event))
        if not matched:
            return None, None
        matched.sort(key=lambda item: item[0], reverse=True)
        _progress, state, event = matched[0]
        return state, event


class Generalize(Stage):
    """Run the right Algorithm 1 branch for the matched request.

    On success (historical k-anonymity preserved within tolerance) the
    certified box — optionally re-placed by the Section 7 randomizer —
    becomes the outgoing context.  On failure the result is left on the
    context for the unlinking / risk stages to report.
    """

    name = "generalize"

    def handle(self, ctx: RequestContext) -> Decision | None:
        assert self.engine is not None
        state = ctx.state
        match = ctx.match
        assert state is not None and match is not None
        result = self._generalize(ctx, state, match)
        ctx.result = result
        state.steps += 1
        if not result.hk_anonymity:
            return None
        context = result.box
        randomizer = self.engine.randomizer
        if randomizer is not None:
            context = randomizer.randomize(
                context, ctx.location, ctx.tolerance
            )
        ctx.request = ctx.request.with_context(context)
        ctx.forwarded = True
        return Decision.GENERALIZED

    def _generalize(
        self,
        ctx: RequestContext,
        state: LBQIDState,
        match: MatchEvent,
    ) -> GeneralizationResult:
        assert self.engine is not None
        engine = self.engine
        generalizer = engine.generalizer
        required_k = ctx.profile.required_k_at_step(state.steps)
        initial_k = ctx.profile.required_k_at_step(0)

        if engine.scope is AnonymitySetScope.PER_LBQID:
            if state.anonymity_ids is None:
                result = generalizer.generalize_initial(
                    ctx.location,
                    initial_k,
                    ctx.tolerance,
                    requester=ctx.user_id,
                )
                if result.hk_anonymity:
                    # Cache the set only when the selection succeeded, so
                    # a failed attempt is retried from scratch next time
                    # (new candidates may have appeared by then).
                    state.anonymity_ids = result.selected_ids
                return result
            result = generalizer.generalize_subsequent(
                ctx.location,
                state.anonymity_ids,
                ctx.tolerance,
                required=max(required_k - 1, 0),
            )
            if result.hk_anonymity:
                # k' schedule: permanently drop the users not kept at
                # this step, so the per-step anonymity sets are *nested*
                # and the survivors stay LT-consistent with every
                # context of the trace ("decreasing its value at each
                # point in the trace", Section 6.2).
                state.anonymity_ids = result.selected_ids
            return result

        # PER_OBSERVATION scope: the id set lives on each partial match.
        partial = self._advanced_partial(match)
        if partial is not None and "anon_ids" in partial.payload:
            result = generalizer.generalize_subsequent(
                ctx.location,
                partial.payload["anon_ids"],
                ctx.tolerance,
                required=max(required_k - 1, 0),
            )
            if result.hk_anonymity:
                partial.payload["anon_ids"] = result.selected_ids
            return result
        result = generalizer.generalize_initial(
            ctx.location, initial_k, ctx.tolerance, requester=ctx.user_id
        )
        if match.started is not None and result.hk_anonymity:
            match.started.payload["anon_ids"] = result.selected_ids
        return result

    @staticmethod
    def _advanced_partial(match: MatchEvent) -> PartialMatch | None:
        """The most-progressed partial this request extended, if any."""
        if not match.advanced:
            return None
        return max(match.advanced, key=lambda p: p.next_index)


class Unlink(Stage):
    """Try to unlink future requests after a failed generalization.

    Unlinking only helps "before a complete LBQID is matched" — if the
    pattern is already complete (possibly completed by this very
    request), forwarding an under-generalized context would break
    Definition 8 for a matched, link-connected set, so the request falls
    through to the at-risk handling even when the pseudonym can still be
    rotated to protect the future.
    """

    name = "unlink"

    def handle(self, ctx: RequestContext) -> Decision | None:
        assert self.engine is not None
        engine = self.engine
        state = ctx.state
        result = ctx.result
        assert state is not None and result is not None
        outcome = engine.unlinker.attempt_unlink(
            ctx.user_id, ctx.location
        )
        too_late = state.monitor.matched
        if not outcome.success:
            return None
        engine.sessions.rotate_pseudonym(ctx.user_id)
        ctx.session.reset_patterns()  # Section 6.1 step 2
        ctx.pseudonym_rotated = True
        if engine.quiet_period > 0:
            ctx.session.quiet_until = (
                ctx.location.t + engine.quiet_period
            )
        if too_late:
            return None
        # Forward under the old pseudonym (already on the request);
        # that pseudonym is now retired with the LBQID incomplete.
        ctx.request = ctx.request.with_context(result.box)
        ctx.forwarded = True
        return Decision.UNLINKED


class RiskPolicy(Stage):
    """Handle the user "at risk of identification" per their policy.

    The paper: the user is notified "so that he may refrain from sending
    sensitive information, disrupt the service, or take other actions" —
    modeled as suppressing the request or forwarding it anyway.
    """

    name = "risk_policy"

    def handle(self, ctx: RequestContext) -> Decision | None:
        result = ctx.result
        assert result is not None
        ctx.request = ctx.request.with_context(result.box)
        if ctx.profile.on_risk is RiskAction.SUPPRESS:
            ctx.forwarded = False
            return Decision.SUPPRESSED
        ctx.forwarded = True
        return Decision.AT_RISK_FORWARDED


class Audit(Stage):
    """Terminal stage: freeze the audit record and hand it to the trail.

    Runs for every request, whatever earlier stage resolved it, and is
    the single place an :class:`AnonymizerEvent` is built — replacement
    pipelines keep a consistent audit trail for free as long as they end
    with this stage.
    """

    name = "audit"
    terminal = True

    def handle(self, ctx: RequestContext) -> Decision | None:
        assert self.engine is not None
        assert ctx.decision is not None
        event = AnonymizerEvent(
            request=ctx.request,
            decision=ctx.decision,
            forwarded=ctx.forwarded,
            lbqid_name=ctx.lbqid_name,
            hk_anonymity=(
                ctx.result.hk_anonymity if ctx.result is not None else None
            ),
            lbqid_matched=(
                ctx.match.lbqid_matched if ctx.match is not None else False
            ),
            generalization=ctx.result,
            step=ctx.step,
            required_k=ctx.required_k,
            pseudonym_rotated=ctx.pseudonym_rotated,
        )
        ctx.event = event
        self.engine.audit.record(event)
        return None
