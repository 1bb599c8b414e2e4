"""Mix-zones (paper references [1, 2]; Section 6.3).

"A mix-zone … can be intuitively described as a spatial area such that,
if an individual crosses it, then it won't be possible to link his future
positions (outside the area) with known positions (before entering the
area)."

* :mod:`repro.mixzone.zones` — static geometric mix-zones: crossing
  detection over trajectories, plus the attacker's entry/exit
  re-association game that *measures* the unlinking likelihood Θ a zone
  actually achieves (benchmark E8);
* :mod:`repro.mixzone.on_demand` — the paper's proposal to "define
  mix-zones on-demand": given the request point, find k users nearby with
  *diverging* trajectories; implements the
  :class:`~repro.core.unlinking.UnlinkingProvider` protocol so the
  engine can use it directly.
"""

from repro.mixzone.zones import Crossing, MixZone, reassociation_game
from repro.mixzone.on_demand import OnDemandMixZone

__all__ = [
    "MixZone",
    "Crossing",
    "reassociation_game",
    "OnDemandMixZone",
]
