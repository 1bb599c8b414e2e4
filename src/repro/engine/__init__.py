"""The Trusted Server as a staged request pipeline.

The Section 6.1 preservation strategy, as an explicit architecture:

* :mod:`repro.engine.context` — the :class:`Decision` vocabulary, the
  :class:`AnonymizerEvent` audit record, the
  :class:`AnonymitySetScope` choice, and the :class:`RequestContext`
  threaded through the stages;
* :mod:`repro.engine.stages` — the six stages (``QuietGate``,
  ``MonitorMatch``, ``Generalize``, ``Unlink``, ``RiskPolicy``,
  ``Audit``), each a small ``handle(ctx) -> Decision | None`` class;
* :mod:`repro.engine.pipeline` — the :class:`Engine` driving requests
  through a :class:`PipelineBuilder`-assembled stage order, plus the
  :class:`BatchItem` bulk-replay path;
* :mod:`repro.engine.session` — all per-user mutable state
  (:class:`UserSession`), kept by one :class:`InMemorySessionStore`
  per engine;
* :mod:`repro.engine.audit` — bounded audit-trail retention
  (``audit="full" | "counts"``).

:class:`Engine` is the one way to build a Trusted Server: the offline
simulation (:class:`~repro.ts.simulation.LBSSimulation`), every serving
shard (:func:`~repro.serve.city.build_engine`) and the examples all
construct it directly.  See DESIGN.md § "Engine architecture".
"""

from repro.engine.audit import AUDIT_MODES, AuditTrail
from repro.engine.context import (
    AnonymitySetScope,
    AnonymizerEvent,
    Decision,
    RequestContext,
)
from repro.engine.pipeline import BatchItem, Engine, PipelineBuilder
from repro.engine.session import (
    InMemorySessionStore,
    LBQIDState,
    UserSession,
)
from repro.engine.stages import (
    Audit,
    Generalize,
    MonitorMatch,
    QuietGate,
    RiskPolicy,
    Stage,
    Unlink,
)

__all__ = [
    "AUDIT_MODES",
    "AuditTrail",
    "AnonymitySetScope",
    "AnonymizerEvent",
    "Decision",
    "RequestContext",
    "BatchItem",
    "Engine",
    "PipelineBuilder",
    "UserSession",
    "LBQIDState",
    "InMemorySessionStore",
    "Stage",
    "QuietGate",
    "MonitorMatch",
    "Generalize",
    "Unlink",
    "RiskPolicy",
    "Audit",
]
