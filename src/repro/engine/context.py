"""Decision vocabulary and the per-request context threaded through stages.

This module is the engine's value layer: the :class:`Decision` and
:class:`AnonymitySetScope` enums and the :class:`AnonymizerEvent` audit
record (the vocabulary the metrics, experiments and serving layers
import from here), plus :class:`RequestContext` — the mutable
scratchpad one request carries through the staged pipeline.

Anonymity-set scope — an interpretive choice the sketched Algorithm 1
leaves open (documented in DESIGN.md and measured in benchmark E5):

* ``AnonymitySetScope.PER_LBQID`` (default): the k users are selected once
  per (user, LBQID) — at the first generalized request — and reused for
  *every* later request matching that LBQID until an unlinking reset.
  This is the reading under which Theorem 1 holds for the full matched
  request set, because one fixed set of PHLs stays LT-consistent with all
  forwarded contexts.
* ``AnonymitySetScope.PER_OBSERVATION``: the k users are reselected at
  each sequence observation's first element (the literal reading of
  Algorithm 1's input/output signature).  Contexts are smaller, but the
  users consistent with the *union* of contexts may fall below k.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.core.generalization import (
    GeneralizationResult,
    ToleranceConstraint,
)
from repro.core.matching import MatchEvent
from repro.core.policy import PrivacyProfile
from repro.core.requests import Request
from repro.geometry.point import STPoint

if TYPE_CHECKING:
    from repro.engine.session import LBQIDState, UserSession


class Decision(enum.Enum):
    """What the TS did with one request."""

    #: No LBQID element matched; forwarded with the default context.
    FORWARDED = "forwarded"
    #: Matched an LBQID element; forwarded with an Algorithm 1 context
    #: that preserved historical k-anonymity.
    GENERALIZED = "generalized"
    #: Generalization failed; unlinking succeeded before a complete LBQID
    #: was matched.  The request is forwarded under the *old* pseudonym
    #: (unlinking protects "future requests from the previous ones"),
    #: which is then retired: the old pseudonym's request group is frozen
    #: with the LBQID incomplete, so Theorem 1's premise can never hold
    #: for it.
    UNLINKED = "unlinked"
    #: Generalization and unlinking both failed; user notified and the
    #: request forwarded anyway (policy ``RiskAction.FORWARD``).
    AT_RISK_FORWARDED = "at_risk_forwarded"
    #: Generalization and unlinking both failed; user notified and the
    #: request suppressed (policy ``RiskAction.SUPPRESS``).
    SUPPRESSED = "suppressed"
    #: Request fell inside the post-unlinking quiet period — the
    #: Section 6.3 mix-zone mechanic of "temporarily disabling the use
    #: of the service … for the time sufficient to confuse the SP".
    QUIET = "quiet"


class AnonymitySetScope(enum.Enum):
    """When Algorithm 1 reselects the k anonymity users (see module doc)."""

    PER_LBQID = "per_lbqid"
    PER_OBSERVATION = "per_observation"


@dataclass(frozen=True)
class AnonymizerEvent:
    """Audit record of one processed request (TS-side, ground truth).

    ``request`` carries the final outgoing context and pseudonym (for a
    suppressed request: the context that *would* have been sent).
    ``hk_anonymity`` is Algorithm 1's boolean output, ``None`` when no
    generalization ran.  ``lbqid_matched`` flags that the LBQID's
    recurrence formula became satisfied at this request.
    """

    request: Request
    decision: Decision
    forwarded: bool
    lbqid_name: str | None = None
    hk_anonymity: bool | None = None
    lbqid_matched: bool = False
    generalization: GeneralizationResult | None = None
    step: int | None = None
    required_k: int | None = None
    #: Whether this request triggered a pseudonym rotation (successful
    #: unlinking), regardless of whether the request itself was forwarded.
    pseudonym_rotated: bool = False


@dataclass
class RequestContext:
    """Everything one request accumulates while crossing the pipeline.

    The engine seeds the identity fields (request, profile, tolerance,
    session) before the first stage runs; each stage reads what earlier
    stages produced and records its own outcome.  A stage resolves the
    request by *returning* a :class:`Decision` — the engine stores it in
    :attr:`decision` and skips ahead to the terminal stages (audit).
    """

    #: TS-side ground-truth requester identity.
    user_id: int
    #: Exact ``⟨x, y, t⟩`` of the request.
    location: STPoint
    service: str
    #: The outgoing request; stages replace it via ``with_context`` as
    #: the forwarded context firms up.
    request: Request
    profile: PrivacyProfile
    tolerance: ToleranceConstraint
    #: The requester's mutable per-user state (from the session store).
    session: "UserSession"
    data: Mapping[str, object] | None = None

    # -- produced by MonitorMatch ------------------------------------
    #: The (user, LBQID) state whose monitor this request matched.
    state: "LBQIDState | None" = None
    match: MatchEvent | None = None
    #: Index of this request in the matched trace (drives the k′
    #: schedule); ``None`` when no LBQID element matched.
    step: int | None = None
    required_k: int | None = None

    # -- produced by Generalize --------------------------------------
    result: GeneralizationResult | None = None

    # -- produced by Unlink / RiskPolicy -----------------------------
    pseudonym_rotated: bool = False

    # -- resolution ---------------------------------------------------
    decision: Decision | None = None
    forwarded: bool = False
    #: The audit record, set by the terminal Audit stage.
    event: AnonymizerEvent | None = None
    #: Free-form scratch space for experimental stages; the built-in
    #: stages never touch it.
    extras: dict[str, object] = field(default_factory=dict)

    @property
    def lbqid_name(self) -> str | None:
        """Name of the matched LBQID, when one matched."""
        if self.state is None:
            return None
        return self.state.monitor.lbqid.name
