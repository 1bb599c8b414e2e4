"""The anonymous location-based service model (Section 3, Figure 1).

Users → Trusted Server → Service Providers.  The TS side is
:class:`~repro.engine.pipeline.Engine`; this subpackage adds
the other two corners of Figure 1 and the event loop joining them:

* :mod:`repro.ts.providers` — service providers that receive
  ``(msgid, UserPseudonym, Area, TimeInterval, Data)`` messages, answer
  them, and keep the logs an attacker would mine;
* :mod:`repro.ts.simulation` — replays a synthetic city's location
  updates and service requests through the full pipeline and gathers the
  ground-truth audit trail for the experiments.
"""

from repro.ts.providers import ServiceProvider
from repro.ts.simulation import (
    LBSSimulation,
    RequestProfile,
    SimulationReport,
)

__all__ = [
    "ServiceProvider",
    "LBSSimulation",
    "RequestProfile",
    "SimulationReport",
]
