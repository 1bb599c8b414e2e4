"""The random-waypoint mobility model.

Background population for the experiments: each user repeatedly picks a
uniform destination in the city rectangle, travels to it in a straight
line at a uniformly drawn speed, pauses, and repeats.  Random-waypoint is
the standard mobility baseline in the location-privacy literature (it is
the model used to evaluate the paper's reference [11]).
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry.point import STPoint
from repro.geometry.region import Rect


def random_waypoint_trajectory(
    bounds: Rect,
    t_start: float,
    t_end: float,
    rng: np.random.Generator,
    speed_range: tuple[float, float] = (1.0, 10.0),
    pause_range: tuple[float, float] = (0.0, 600.0),
    sample_period: float = 120.0,
) -> list[STPoint]:
    """Generate one user's samples over ``[t_start, t_end]``.

    ``speed_range`` in m/s and ``pause_range`` in seconds are sampled
    uniformly per leg.  Samples are emitted every ``sample_period``
    seconds, in chronological order.
    """
    lo_speed, hi_speed = speed_range
    if not 0 < lo_speed <= hi_speed:
        raise ValueError(f"invalid speed range {speed_range}")
    lo_pause, hi_pause = pause_range
    if not 0 <= lo_pause <= hi_pause:
        raise ValueError(f"invalid pause range {pause_range}")
    if sample_period <= 0:
        raise ValueError(
            f"sample_period must be positive, got {sample_period}"
        )

    # Every leg draws x, y, speed and pause, in that order.  One
    # ``rng.random(4)`` per leg, mapped as ``lo + (hi - lo) * u``, is
    # exactly what four scalar ``rng.uniform`` calls return (same
    # doubles, same generator state after), at a fraction of the cost.
    x_lo, x_span = bounds.x_min, bounds.x_max - bounds.x_min
    y_lo, y_span = bounds.y_min, bounds.y_max - bounds.y_min
    speed_span = hi_speed - lo_speed
    pause_span = hi_pause - lo_pause
    u_x, u_y = rng.random(2).tolist()
    x, y = x_lo + x_span * u_x, y_lo + y_span * u_y
    points: list[STPoint] = []
    append = points.append
    t = t_start
    next_sample = t_start
    while t < t_end:
        u_x, u_y, u_speed, u_pause = rng.random(4).tolist()
        to_x, to_y = x_lo + x_span * u_x, y_lo + y_span * u_y
        speed = lo_speed + speed_span * u_speed
        leg_duration = math.hypot(x - to_x, y - to_y) / speed
        leg_end = t + leg_duration
        stop = min(leg_end, t_end)
        if next_sample <= stop:
            step_x, step_y = to_x - x, to_y - y
            while next_sample <= stop:
                alpha = (
                    0.0 if leg_duration == 0
                    else (next_sample - t) / leg_duration
                )
                append(
                    STPoint(
                        x + alpha * step_x, y + alpha * step_y, next_sample
                    )
                )
                next_sample += sample_period
        x, y = to_x, to_y
        t = leg_end
        pause_end = t + (lo_pause + pause_span * u_pause)
        stop = min(pause_end, t_end)
        while next_sample <= stop:
            append(STPoint(x, y, next_sample))
            next_sample += sample_period
        t = pause_end
    return points
