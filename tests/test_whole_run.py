"""Whole runs against ``reference.ref_run``, the plain step loop.

Each layer of a run has its own reference; these tests check how the layers
compose.  A run on its own and every run of a grid in one scope, where
hysteresis runs replay and resume their family's tape, must print the
reference's events CSV byte for byte, and a sweep or a compare the CSV that
``reference.ref_sweep_csv`` builds from those texts.  A hysteresis run
resumed at any entry of its tape must print the fresh run's CSV.
"""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hodsim.engine
from hodsim.cli import compare_csv
from hodsim.engine import events_csv, run_simulation, shared_worlds
from hodsim.metrics import sweep, sweep_csv, sweeps
from hodsim.radio import ap_qos
from hodsim.scenario import STRATEGY_KINDS, load_scenario, with_strategy

from reference import ref_run, ref_sweep_csv

# parameter grid index -> value: hysteresis margins step by 0.05, waits by 0.5 s
GRID_STEP = {"none": 0.0, "hysteresis": 0.05, "waiting_time": 0.5, "randomized_wait": 0.5}


def crowded(ap, load):
    """``ap_qos`` as if two more users shared the AP."""
    return ap_qos(ap, load + 2)


# Positions on a 10 m grid and a few QoS and radius values, so that distances
# and scores often tie and every tie-break is exercised.
coordinate = st.integers(0, 6).map(lambda i: i * 10.0)

# Ids are drawn shuffled from these, so that their sorted order differs from
# the document's and from the numeric order of their digits ("ap10" < "ap9").
AP_NAMES = ("ap9", "ap10", "b", "a0", "ap2", "ap11")
USER_NAMES = ("u9", "u10", "m", "a1", "u2", "u11", "ua", "b0")


@st.composite
def documents(draw):
    """A small valid scenario: 1-6 APs with symmetric wired links, 1-8 users
    of whom at least one is mobile, nonzero requirements, every strategy kind,
    the gate on or off, jitter on or off, and ids out of sorted order."""
    n_aps = draw(st.integers(1, 6))
    ap_ids = draw(st.permutations(AP_NAMES))[:n_aps]
    # a few nominal QoS vectors shared by the APs, so that scores tie
    palette = draw(st.lists(st.fixed_dictionaries({
        "bandwidth": st.sampled_from([11.0, 36.0, 54.0]),
        "delay": st.sampled_from([0.0, 2.0, 5.0])}), min_size=1, max_size=3))
    aps = [{
        "id": ap_ids[j],
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
    user_ids = draw(st.permutations(USER_NAMES))[:n_users]
    users = [{
        "id": user_ids[i],
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


def flip_margins(log, rnd, size):
    """Margins at the flip points of ``log``'s fired rows, shuffled: for a
    sample of ``size`` distinct gaps ``d = c_best - c_asso``, ``d`` and its
    two float neighbours, those >= 0."""
    gaps = sorted({row[3] - row[2] for m in log.mt_ids for row in log.outcomes[m]
                   if row[3] > row[2]})
    margins = [h for d in rnd.sample(gaps, min(size, len(gaps)))
               for h in (math.nextafter(d, -math.inf), d, math.nextafter(d, math.inf)) if h >= 0]
    rnd.shuffle(margins)
    return margins


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_margins_at_flip_points_equal_fresh_runs(default_config, seed):
    # a grid that steps by 0.05 never lands on a flip; these margins sit on
    # either side of one, in one scope, so that every replay decides a
    # fired row of its tape as close to its margin as floats allow
    log = run_simulation(with_strategy(default_config, "hysteresis", 0.0), seed)
    configs = [with_strategy(default_config, "hysteresis", h)
               for h in flip_margins(log, random.Random(seed), 24)]
    fresh = [events_csv(run_simulation(c, seed)) for c in configs]
    with shared_worlds():
        assert [events_csv(run_simulation(c, seed)) for c in configs] == fresh
    assert len(set(fresh)) > 1


@settings(max_examples=50, deadline=None)
@given(doc=documents(), seed=st.integers(0, 2 ** 16), rnd=st.randoms(use_true_random=False))
def test_margins_at_flip_points_equal_the_reference_run(doc, seed, rnd):
    config = load_scenario(doc)
    log = run_simulation(with_strategy(config, "hysteresis", 0.0), seed)
    with shared_worlds():
        for h in flip_margins(log, rnd, 3):
            c = with_strategy(config, "hysteresis", h)
            assert events_csv(run_simulation(c, seed)) == ref_run(c, seed, ap_qos)


def resumed_at_every_step(config, seed):
    """Record one hysteresis run of ``config`` in a scope, then resume it at
    each entry of its tape in turn, at the same margin; every resumed run
    must print the fresh run's events CSV and record the same tape again.
    Return the tape."""
    fresh = events_csv(run_simulation(config, seed))
    with shared_worlds(), pytest.MonkeyPatch.context() as patch:
        assert events_csv(run_simulation(config, seed)) == fresh
        (family,) = hodsim.engine._slot.get()
        tape = family.steps
        for index in range(len(tape)):
            patch.setattr(hodsim.engine, "_replay", lambda family, margin: index)
            assert events_csv(run_simulation(config, seed)) == fresh, tape[index].k
            assert family.steps == tape
    return tape


@pytest.mark.parametrize("margin", [0.0, 0.02, 0.05])
@pytest.mark.parametrize("seed", [1, 2])
def test_a_run_resumed_at_any_tape_entry_equals_the_fresh_run(default_config, seed, margin):
    # a switching cost and a diffusion period of two steps, so that the
    # snapshots hold disconnected terminals and steps between rounds
    config = with_strategy(replace(default_config, handover_cost_steps=2, diffusion_period=1.0),
                           "hysteresis", margin)
    tape = resumed_at_every_step(config, seed)
    assert any(any(step.disconnected) for step in tape)
    assert {step.k % 2 for step in tape} == {0, 1}


@settings(max_examples=50, deadline=None)
@given(doc=documents(), seed=st.integers(0, 2 ** 16), margin=st.sampled_from([0.0, 0.02, 0.05]))
def test_a_run_resumed_at_any_tape_entry_equals_the_fresh_run_on_any_world(doc, seed, margin):
    # the documents draw jitter on and off, switching costs and periods
    resumed_at_every_step(with_strategy(load_scenario(doc), "hysteresis", margin), seed)


def test_default_sweep_runs_equal_the_reference_run(default_config):
    margins = [0.0, 0.05, 0.1, 0.2, 0.3]
    with shared_worlds():
        for seed in (1, 2):
            for margin in margins:
                config = with_strategy(default_config, "hysteresis", margin)
                assert events_csv(run_simulation(config, seed)) == ref_run(config, seed, ap_qos)


@settings(max_examples=100, deadline=None)
@given(doc=documents(), kinds=st.lists(st.sampled_from(STRATEGY_KINDS), min_size=2, max_size=2),
       grids=st.lists(st.lists(st.integers(0, 20), min_size=1, max_size=3), min_size=2, max_size=2),
       seeds=st.lists(st.integers(0, 2 ** 16), min_size=1, max_size=3, unique=True))
def test_sweep_and_compare_csvs_equal_the_reference(doc, kinds, grids, seeds):
    config = load_scenario(doc)
    plans = [(kind, [round(i * GRID_STEP[kind], 10) for i in grid])
             for kind, grid in zip(kinds, grids)]
    expected = [ref_sweep_csv([(v, with_strategy(config, kind, v)) for v in values], seeds, ap_qos)
                for kind, values in plans]
    assert sweep_csv(sweep(config, *plans[0], seeds)) == expected[0]
    rows = [f"{kind},{line}" for (kind, _), text in zip(plans, expected)
            for line in text.splitlines()[2:]]
    compare = "\n".join(["# hodsim compare schema v1", "strategy," + expected[0].splitlines()[1]]
                        + rows) + "\n"
    assert compare_csv(*sweeps(config, plans, seeds)) == compare
