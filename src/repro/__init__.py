"""Reproduction of Bettini, Wang & Jajodia (2005):
*Protecting Privacy Against Location-based Personal Identification*.

A from-scratch implementation of the paper's privacy framework —
location-based quasi-identifiers (LBQIDs), service-request linkability,
Historical k-anonymity, and the Trusted-Server preservation strategy built
on spatio-temporal generalization (Algorithm 1) and mix-zone unlinking —
together with every substrate the evaluation needs: a moving-object
database, synthetic mobility models, the anonymous LBS service model,
tracking/re-identification attackers, and the prior-work baselines the
paper compares against.

Quickstart::

    from repro import (
        TrustedAnonymizer, TrajectoryStore, PolicyTable,
        commute_lbqid, Rect,
    )

See ``examples/quickstart.py`` for a complete runnable scenario and
DESIGN.md for the full system inventory.
"""

import logging as _logging

# Library convention: emit through the "repro" logger tree, never to a
# handler we install ourselves.  Consumers opt into output with standard
# logging configuration (e.g. logging.basicConfig); by default the
# NullHandler keeps the library silent.
_logging.getLogger("repro").addHandler(_logging.NullHandler())

from repro.geometry import Interval, Point, Rect, STBox, STPoint
from repro.granularity import (
    DAY,
    HOUR,
    MINUTE,
    WEEK,
    RecurrenceFormula,
    UnanchoredInterval,
    time_at,
)
from repro.core import (
    LBQID,
    AlwaysUnlink,
    AnonymizerEvent,
    Decision,
    LBQIDElement,
    LBQIDMonitor,
    NeverUnlink,
    PersonalHistory,
    PolicyTable,
    PrivacyLevel,
    PrivacyProfile,
    ProbabilisticUnlink,
    PseudonymLink,
    Request,
    SPRequest,
    SpatioTemporalGeneralizer,
    ToleranceConstraint,
    TrustedAnonymizer,
    historical_anonymity_set,
    is_link_connected,
    request_set_matches,
    satisfies_historical_k,
    theta_components,
)
from repro.core.lbqid import commute_lbqid
from repro.core.randomization import BoxRandomizer
from repro.engine import (
    BatchItem,
    Engine,
    InMemorySessionStore,
    PipelineBuilder,
    ShardedSessionStore,
)
from repro.mining import mine_commute_lbqid
from repro.mod import TrajectoryStore
from repro.obs import Telemetry, TelemetryConfig

__version__ = "1.0.0"

__all__ = [
    "Point",
    "STPoint",
    "Rect",
    "Interval",
    "STBox",
    "MINUTE",
    "HOUR",
    "DAY",
    "WEEK",
    "time_at",
    "UnanchoredInterval",
    "RecurrenceFormula",
    "LBQID",
    "LBQIDElement",
    "commute_lbqid",
    "LBQIDMonitor",
    "request_set_matches",
    "PseudonymLink",
    "is_link_connected",
    "theta_components",
    "PersonalHistory",
    "historical_anonymity_set",
    "satisfies_historical_k",
    "Request",
    "SPRequest",
    "ToleranceConstraint",
    "SpatioTemporalGeneralizer",
    "PrivacyLevel",
    "PrivacyProfile",
    "PolicyTable",
    "AlwaysUnlink",
    "NeverUnlink",
    "ProbabilisticUnlink",
    "TrustedAnonymizer",
    "Engine",
    "PipelineBuilder",
    "BatchItem",
    "InMemorySessionStore",
    "ShardedSessionStore",
    "Decision",
    "AnonymizerEvent",
    "BoxRandomizer",
    "mine_commute_lbqid",
    "TrajectoryStore",
    "Telemetry",
    "TelemetryConfig",
    "__version__",
]
