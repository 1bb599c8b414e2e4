"""The paper's primary contribution: the privacy-preservation framework.

Modules map one-to-one onto the paper's formal machinery:

* :mod:`repro.core.requests` — service requests as seen by the Trusted
  Server (exact) and by Service Providers (generalized), Section 3.
* :mod:`repro.core.lbqid` — Location-Based Quasi-Identifiers,
  Definition 1.
* :mod:`repro.core.matching` — request/LBQID matching (Definitions 2–3)
  and the incremental timed-automaton monitor of Section 4.
* :mod:`repro.core.linkability` — the ``Link()`` function and
  Θ-link-connected request sets, Definitions 4–5.
* :mod:`repro.core.phl` — Personal Histories of Locations and
  LT-consistency, Definitions 6–7.
* :mod:`repro.core.historical_k` — Historical k-anonymity, Definition 8.
* :mod:`repro.core.generalization` — the spatio-temporal generalization
  procedure, Algorithm 1.
* :mod:`repro.core.pseudonyms` — pseudonym lifecycle management.
* :mod:`repro.core.unlinking` — the abstract Unlinking action of
  Section 6.3.
* :mod:`repro.core.policy` — qualitative privacy preferences and service
  tolerance constraints, Sections 3 and 6.

The Section 6.1 preservation strategy that ties these together is the
staged :class:`~repro.engine.pipeline.Engine` in :mod:`repro.engine`,
which builds on this package; nothing here imports it.
"""

from repro.core.requests import Request, SPRequest
from repro.core.lbqid import LBQID, LBQIDElement
from repro.core.matching import LBQIDMonitor, MatchEvent, request_set_matches
from repro.core.linkability import (
    LinkFunction,
    PseudonymLink,
    is_link_connected,
    theta_components,
)
from repro.core.phl import PersonalHistory
from repro.core.historical_k import (
    historical_anonymity_set,
    satisfies_historical_k,
)
from repro.core.generalization import (
    GeneralizationResult,
    SpatioTemporalGeneralizer,
    ToleranceConstraint,
)
from repro.core.pseudonyms import PseudonymManager
from repro.core.randomization import BoxRandomizer
from repro.core.unlinking import (
    AlwaysUnlink,
    NeverUnlink,
    ProbabilisticUnlink,
    UnlinkOutcome,
    UnlinkingProvider,
)
from repro.core.policy import PrivacyLevel, PrivacyProfile, PolicyTable

__all__ = [
    "Request",
    "SPRequest",
    "LBQID",
    "LBQIDElement",
    "LBQIDMonitor",
    "MatchEvent",
    "request_set_matches",
    "LinkFunction",
    "PseudonymLink",
    "is_link_connected",
    "theta_components",
    "PersonalHistory",
    "historical_anonymity_set",
    "satisfies_historical_k",
    "ToleranceConstraint",
    "GeneralizationResult",
    "SpatioTemporalGeneralizer",
    "PseudonymManager",
    "BoxRandomizer",
    "UnlinkingProvider",
    "UnlinkOutcome",
    "AlwaysUnlink",
    "NeverUnlink",
    "ProbabilisticUnlink",
    "PrivacyLevel",
    "PrivacyProfile",
    "PolicyTable",
]
