"""The beacon a profiled thread publishes its activity through.

Every enabled :class:`~repro.obs.config.Telemetry` owns one slot; the
engine writes to it only while a
:class:`~repro.obs.profile.SamplingProfiler` runs.  It lives apart from
the profiler so that telemetry, and so every daemon, loads the sampler
only when a ``profile`` op (or tool) starts one.
"""

from __future__ import annotations


class ActivitySlot:
    """What the profiled thread is doing *right now*.

    A tiny mutable beacon shared between the profiled thread (writer)
    and the sampler thread (reader).  Reads and writes are single
    attribute operations — atomic under the GIL — so no lock is
    needed; a torn read across fields merely attributes one 5 ms
    sample to a neighbouring stage.
    """

    __slots__ = ("in_request", "stage", "trace_id")

    def __init__(self) -> None:
        #: True while the engine is processing a service request.
        self.in_request = False
        #: Name of the stage currently in ``handle()``, else None.
        self.stage: str | None = None
        #: Wire trace id of the active request, else None.
        self.trace_id: str | None = None

    def clear(self) -> None:
        self.in_request = False
        self.stage = None
        self.trace_id = None
