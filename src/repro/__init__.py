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

Quickstart (the README's, abridged)::

    from repro import (
        AlwaysUnlink, Engine, PolicyTable, PrivacyProfile, Rect, STPoint,
        ToleranceConstraint, TrajectoryStore, commute_lbqid, time_at,
    )

    engine = Engine(
        TrajectoryStore(),
        policy=PolicyTable(
            default_profile=PrivacyProfile(k=5),
            default_tolerance=ToleranceConstraint.square(1500.0, 1800.0),
        ),
        unlinker=AlwaysUnlink(),
    )
    engine.register_lbqid(1, commute_lbqid(Rect(0, 0, 100, 100),
                                           Rect(900, 900, 1000, 1000)))
    engine.report_location(2, STPoint(40, 40, time_at(hour=7.4)))
    event = engine.process(1, STPoint(50, 50, time_at(hour=7.5)), "poi")

See ``examples/quickstart.py`` for a complete runnable scenario and
DESIGN.md for the full system inventory.  The names below resolve on
first use, so ``import repro.serve.server`` does not load the mining
or simulation layers.
"""

import logging as _logging

# Library convention: emit through the "repro" logger tree, never to a
# handler we install ourselves.  Consumers opt into output with standard
# logging configuration (e.g. logging.basicConfig); by default the
# NullHandler keeps the library silent.
_logging.getLogger("repro").addHandler(_logging.NullHandler())

from repro._lazy import lazy_exports

__version__ = "1.0.0"

#: Each public name and the module it comes from, imported on first use.
_EXPORTS = {
    "repro.geometry": ("Point", "STPoint", "Rect", "Interval", "STBox"),
    "repro.granularity": (
        "MINUTE",
        "HOUR",
        "DAY",
        "WEEK",
        "time_at",
        "UnanchoredInterval",
        "RecurrenceFormula",
    ),
    "repro.core": (
        "LBQID",
        "LBQIDElement",
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
    ),
    "repro.core.lbqid": ("commute_lbqid",),
    "repro.core.randomization": ("BoxRandomizer",),
    "repro.engine": (
        "Engine",
        "PipelineBuilder",
        "BatchItem",
        "InMemorySessionStore",
        "AnonymitySetScope",
        "Decision",
        "AnonymizerEvent",
    ),
    "repro.mining": ("mine_commute_lbqid",),
    "repro.mod": ("TrajectoryStore",),
    "repro.obs": ("Telemetry", "TelemetryConfig"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__all__.append("__version__")

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
