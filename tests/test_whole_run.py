"""Whole runs against ``reference.ref_run``, the plain step loop.

Each layer of a run has its own reference; these tests check how the layers
compose.  A run on its own and every run of a grid in one scope, which
replay and resume their family's tape, must print the reference's events
CSV byte for byte.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from hodsim.engine import events_csv, run_simulation, shared_worlds
from hodsim.radio import ap_qos
from hodsim.scenario import STRATEGY_KINDS, load_scenario, with_strategy

from reference import ref_run

# parameter grid index -> value: hysteresis margins step by 0.05, waits by 0.5 s
GRID_STEP = {"none": 0.0, "hysteresis": 0.05, "waiting_time": 0.5, "randomized_wait": 0.5}


def crowded(ap, load):
    """``ap_qos`` as if two more users shared the AP."""
    return ap_qos(ap, load + 2)


# Positions on a 10 m grid and a few QoS and radius values, so that distances
# and scores often tie and every tie-break is exercised.
coordinate = st.integers(0, 6).map(lambda i: i * 10.0)


@st.composite
def documents(draw):
    """A small valid scenario: 1-6 APs with symmetric wired links, 1-8 users
    of whom at least one is mobile, nonzero requirements, every strategy kind,
    the gate on or off, jitter on or off."""
    n_aps = draw(st.integers(1, 6))
    # a few nominal QoS vectors shared by the APs, so that scores tie
    palette = draw(st.lists(st.fixed_dictionaries({
        "bandwidth": st.sampled_from([11.0, 36.0, 54.0]),
        "delay": st.sampled_from([0.0, 2.0, 5.0])}), min_size=1, max_size=3))
    aps = [{
        "id": f"ap{j}",
        "position": [draw(coordinate), draw(coordinate)],
        "coverage_radius": draw(st.sampled_from([15.0, 25.0, 40.0, 80.0])),
        "base_qos": dict(draw(st.sampled_from(palette))),
        "wired_neighbors": [],
    } for j in range(n_aps)]
    pairs = [(a, b) for a in range(n_aps) for b in range(a + 1, n_aps)]
    links = draw(st.one_of(st.just(pairs), st.lists(st.sampled_from(pairs), unique=True)
                           if pairs else st.just([])))
    for a, b in links:
        aps[a]["wired_neighbors"].append(aps[b]["id"])
        aps[b]["wired_neighbors"].append(aps[a]["id"])
    n_users = draw(st.integers(1, 8))
    n_mobile = draw(st.integers(1, n_users))
    users = [{
        "id": f"u{i}",
        "mobile": i < n_mobile,
        "initial_position": [draw(coordinate), draw(coordinate)],
        "speed": draw(st.sampled_from([2.0, 8.0, 20.0])),
        "pause_range": [0.0, draw(st.sampled_from([0.0, 1.0, 3.0]))],
        "app_requirements": {"bandwidth": draw(st.sampled_from([0.0, 5.0, 20.0])),
                             "delay": draw(st.sampled_from([0.0, 3.0, 10.0]))},
    } for i in range(n_users)]
    return {
        "sim_time": 0.5 * draw(st.integers(4, 30)),
        "decision_step": 0.5,
        "diffusion_period": 0.5 * draw(st.integers(1, 3)),
        "area": [60.0, 60.0],
        "rng_seed": 1,
        "mobility_ratio": n_mobile / n_users,
        "criteria": [{"id": "bandwidth", "direction": "benefit", "alpha": 0.5},
                     {"id": "delay", "direction": "cost", "alpha": 1.0}],
        "gate_candidates": draw(st.booleans()),
        "qos_jitter_sigma": draw(st.one_of(st.just(0.0), st.sampled_from([0.5, 5.0]))),
        "handover_cost_steps": draw(st.integers(0, 3)),
        "aps": aps,
        "users": users,
    }


@settings(max_examples=100, deadline=None)
@given(doc=documents(), kind=st.sampled_from(STRATEGY_KINDS),
       grid=st.lists(st.integers(0, 20), min_size=3, max_size=5),
       seed=st.integers(0, 2 ** 16), qos_model=st.sampled_from([ap_qos, crowded]))
def test_runs_equal_the_reference_run(doc, kind, grid, seed, qos_model):
    config = load_scenario(doc)
    configs = [with_strategy(config, kind, round(i * GRID_STEP[kind], 10)) for i in grid]
    expected = [ref_run(c, seed, qos_model) for c in configs]
    assert events_csv(run_simulation(configs[0], seed, qos_model)) == expected[0]
    with shared_worlds():
        for c, text in zip(configs, expected):
            assert events_csv(run_simulation(c, seed, qos_model)) == text


def test_default_sweep_runs_equal_the_reference_run(default_config):
    margins = [0.0, 0.05, 0.1, 0.2, 0.3]
    with shared_worlds():
        for seed in (1, 2):
            for margin in margins:
                config = with_strategy(default_config, "hysteresis", margin)
                assert events_csv(run_simulation(config, seed)) == ref_run(config, seed, ap_qos)
