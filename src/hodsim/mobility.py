"""Random Way Point mobility as pure state transitions.

Each mobile terminal alternates between pausing at a point and moving in a
straight line toward a uniformly drawn waypoint.  All randomness comes from
the generator passed in, so trajectories are reproducible per terminal.
"""

import math
from typing import NamedTuple, Tuple

import numpy as np

from .scenario import UserProfile

# A terminal counts as arrived when this close to its waypoint (meters);
# avoids float oscillation around the exact point.
ARRIVAL_EPS = 1e-6

PAUSED = "paused"
MOVING = "moving"


class MobilityState(NamedTuple):
    """Kinematic state of one terminal between decision steps."""

    position: Tuple[float, float]
    waypoint: Tuple[float, float]
    phase: str
    pause_remaining: float


def draw_pause(profile: UserProfile, rng: np.random.Generator) -> float:
    lo, hi = profile.pause_range
    return float(rng.uniform(lo, hi))


def draw_waypoint(area: Tuple[float, float], rng: np.random.Generator) -> Tuple[float, float]:
    return (float(rng.uniform(0.0, area[0])), float(rng.uniform(0.0, area[1])))


def init_mobility(profile: UserProfile, area: Tuple[float, float],
                  rng: np.random.Generator) -> MobilityState:
    """Start a terminal paused at its initial position with a fresh pause draw."""
    x, y = profile.initial_position
    if not (0.0 <= x <= area[0] and 0.0 <= y <= area[1]):
        raise ValueError(f"initial_position {profile.initial_position} outside area {area}")
    return MobilityState(
        position=(x, y),
        waypoint=(x, y),
        phase=PAUSED,
        pause_remaining=draw_pause(profile, rng),
    )


def step_mobility(state: MobilityState, dt: float, area: Tuple[float, float],
                  profile: UserProfile, rng: np.random.Generator) -> MobilityState:
    """Advance one terminal by dt seconds.

    Pausing counts down; on expiry a uniform waypoint is drawn and movement
    starts next step.  Moving advances min(speed*dt, remaining distance); on
    arrival the terminal pauses immediately, discarding leftover dt.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")

    if state.phase == PAUSED:
        remaining = state.pause_remaining - dt
        if remaining > 0:
            return MobilityState(state.position, state.waypoint, PAUSED, remaining)
        return MobilityState(state.position, draw_waypoint(area, rng), MOVING, 0.0)

    px, py = state.position
    wx, wy = state.waypoint
    dist = math.hypot(wx - px, wy - py)
    travel = profile.speed * dt
    if travel + ARRIVAL_EPS >= dist:
        return MobilityState((wx, wy), state.waypoint, PAUSED, draw_pause(profile, rng))
    frac = travel / dist
    return MobilityState((px + frac * (wx - px), py + frac * (wy - py)), state.waypoint,
                         state.phase, state.pause_remaining)
