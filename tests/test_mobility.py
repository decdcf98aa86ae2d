import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodsim.mobility import (
    MOVING,
    PAUSED,
    MobilityState,
    draw_waypoint,
    init_mobility,
    step_mobility,
    walk_mobility,
)
from hodsim.scenario import UserProfile

from reference import ref_step

AREA = (100.0, 100.0)

# chi-square critical value, 15 degrees of freedom, significance 0.01
CHI2_CRIT_DF15_P01 = 30.5779


def profile(pos=(50.0, 50.0), speed=0.8, pause=(1.0, 5.0)):
    return UserProfile(id="m", mobile=True, initial_position=pos, speed=speed,
                       pause_range=pause, app_requirements={})


def test_degenerate_pause_range_is_exact():
    state = init_mobility(profile(pause=(2.0, 2.0)), AREA, np.random.default_rng(0))
    assert state.pause_remaining == 2.0
    assert state.phase == PAUSED
    assert state.position == (50.0, 50.0)


def test_init_outside_area_rejected():
    with pytest.raises(ValueError):
        init_mobility(profile(pos=(150.0, 50.0)), AREA, np.random.default_rng(0))


def test_init_is_reproducible_with_same_seed():
    a = init_mobility(profile(), AREA, np.random.default_rng(42))
    b = init_mobility(profile(), AREA, np.random.default_rng(42))
    assert a == b


def test_pause_draw_mean_matches_uniform_law():
    # Monte Carlo oracle: mean of U[1, 5] is 3
    rng = np.random.default_rng(7)
    draws = [init_mobility(profile(), AREA, rng).pause_remaining for _ in range(10_000)]
    assert 2.8 <= sum(draws) / len(draws) <= 3.2


def test_pause_counts_down():
    state = init_mobility(profile(pause=(1.0, 1.0)), AREA, np.random.default_rng(0))
    stepped = step_mobility(state, 0.5, AREA, profile(), np.random.default_rng(0))
    assert stepped.phase == PAUSED
    assert stepped.pause_remaining == 0.5


def test_pause_expiry_draws_waypoint_and_starts_moving():
    state = init_mobility(profile(pause=(0.5, 0.5)), AREA, np.random.default_rng(0))
    stepped = step_mobility(state, 0.5, AREA, profile(), np.random.default_rng(3))
    assert stepped.phase == MOVING
    assert stepped.position == state.position
    x, y = stepped.waypoint
    assert 0 <= x <= AREA[0] and 0 <= y <= AREA[1]


def test_straight_line_advance():
    state = init_mobility(profile(pos=(0.0, 0.0)), AREA, np.random.default_rng(0))
    state = state.__class__(position=(0.0, 0.0), waypoint=(10.0, 0.0),
                            phase=MOVING, pause_remaining=0.0)
    stepped = step_mobility(state, 0.5, AREA, profile(), np.random.default_rng(0))
    assert stepped.position == (0.4, 0.0)
    assert stepped.phase == MOVING


def test_arrival_clamps_to_waypoint_and_pauses():
    state = init_mobility(profile(pos=(0.0, 0.0)), AREA, np.random.default_rng(0))
    state = state.__class__(position=(9.9, 0.0), waypoint=(10.0, 0.0),
                            phase=MOVING, pause_remaining=0.0)
    stepped = step_mobility(state, 0.5, AREA, profile(), np.random.default_rng(1))
    assert stepped.position == (10.0, 0.0)
    assert stepped.phase == PAUSED
    assert 1.0 <= stepped.pause_remaining <= 5.0


def test_positions_stay_in_area_and_speed_bounded():
    # random step schedules; every intermediate position must stay inside
    rng = np.random.default_rng(1234)
    for _ in range(300):
        p = profile(pos=(float(rng.uniform(0, 100)), float(rng.uniform(0, 100))))
        walk = np.random.default_rng(int(rng.integers(1 << 31)))
        state = init_mobility(p, AREA, walk)
        for _ in range(60):
            dt = float(rng.uniform(0.1, 1.5))
            nxt = step_mobility(state, dt, AREA, p, walk)
            assert 0 <= nxt.position[0] <= AREA[0]
            assert 0 <= nxt.position[1] <= AREA[1]
            moved = math.dist(state.position, nxt.position)
            assert moved <= p.speed * dt + 1e-9
            state = nxt


def test_identical_seeds_identical_trajectories():
    def trajectory(seed):
        walk = np.random.default_rng(seed)
        p = profile(pause=(0.5, 1.5))
        state = init_mobility(p, AREA, walk)
        out = []
        for _ in range(200):
            state = step_mobility(state, 0.5, AREA, p, walk)
            out.append(state.position)
        return out

    assert trajectory(99) == trajectory(99)


def test_waypoints_uniform_chi_square():
    rng = np.random.default_rng(2024)
    counts = np.zeros((4, 4))
    n = 10_000
    for _ in range(n):
        x, y = draw_waypoint(AREA, rng)
        counts[min(int(4 * x / AREA[0]), 3), min(int(4 * y / AREA[1]), 3)] += 1
    expected = n / 16
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < CHI2_CRIT_DF15_P01


coordinates = st.floats(0.0, 100.0)
points = st.tuples(coordinates, coordinates)


@st.composite
def walk_cases(draw):
    """A start state, a profile and a step: pauses of zero length, ones that
    end exactly on a step and waypoints at or within reach of the position
    are all drawn, so arrivals and immediate pauses come up."""
    position = draw(points)
    waypoint = draw(st.sampled_from([position]) | points
                    | points.map(lambda p: (p[0], position[1])))
    dt = draw(st.sampled_from([0.5, 0.25, 1.0]) | st.floats(1e-3, 10.0))
    pause = draw(st.sampled_from([0.0, dt, 2 * dt]) | st.floats(0.0, 20.0))
    low = draw(st.sampled_from([0.0, dt]) | st.floats(0.0, 5.0))
    high = draw(st.sampled_from([low, low + dt]) | st.floats(low, 10.0))
    speed = draw(st.sampled_from([0.0, 0.8]) | st.floats(0.0, 200.0))
    phase = draw(st.sampled_from([PAUSED, MOVING]))
    user = UserProfile(id="m", mobile=True, initial_position=position, speed=speed,
                       pause_range=(low, high), app_requirements={})
    return MobilityState(position, waypoint, phase, pause), user, dt


@settings(max_examples=300, deadline=None)
@given(walk_cases(), st.integers(0, 60), st.integers(0, 2 ** 32 - 1))
def test_a_walk_is_repeated_reference_steps(case, nb_steps, seed):
    state, user, dt = case
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    positions, end = walk_mobility(state, dt, nb_steps, AREA, user, rng)
    expected = []
    ref_state = tuple(state)
    for _ in range(nb_steps):
        ref_state = ref_step(ref_state, dt, AREA, user, ref_rng)
        expected.append(ref_state[0])
    assert positions == expected
    assert tuple(end) == ref_state
    # the same draws, no more
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    first = step_mobility(state, dt, AREA, user, np.random.default_rng(seed))
    assert tuple(first) == ref_step(tuple(state), dt, AREA, user, np.random.default_rng(seed))
