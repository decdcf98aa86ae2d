"""The world pass (movement and sensing) is shared by the runs of one sweep
or one compare and by nothing else, and sharing it never changes a run's
events."""

import gc
import weakref
from dataclasses import replace

import pytest

import hodsim.engine
from hodsim.cli import compare_csv, compare_sweeps
from hodsim.engine import events_csv, run_simulation, shared_worlds
from hodsim.metrics import sweep
from hodsim.scenario import with_strategy


@pytest.fixture
def world_spy(monkeypatch):
    """Weak references to every world computed while the test runs."""
    made = []
    world = hodsim.engine._world

    def recording(config, seed):
        result = world(config, seed)
        made.append(weakref.ref(result))
        return result

    monkeypatch.setattr(hodsim.engine, "_world", recording)
    return made


def test_sweep_moves_each_seeds_terminals_once(tiny_config, monkeypatch):
    calls = []
    step_mobility = hodsim.engine.step_mobility

    def counting(*args):
        calls.append(1)
        return step_mobility(*args)

    monkeypatch.setattr(hodsim.engine, "step_mobility", counting)
    values, seeds = [0.0, 0.1, 0.2], [1, 2]
    sweep(tiny_config, "hysteresis", values, seeds)
    mobile = len(tiny_config.mobile_users())
    assert len(calls) == len(seeds) * tiny_config.nb_steps * mobile


def test_paused_terminals_are_not_sensed_again(default_config, monkeypatch):
    calls = []
    sensed_aps = hodsim.engine.sensed_aps

    def counting(*args):
        calls.append(1)
        return sensed_aps(*args)

    monkeypatch.setattr(hodsim.engine, "sensed_aps", counting)
    xy = hodsim.engine._world(default_config, 1).xy
    mobile = sorted(default_config.mobile_users(), key=lambda u: u.id)
    previous = [list(u.initial_position) for u in mobile]
    moves = 0
    for positions in xy.tolist():
        moves += sum(p != q for p, q in zip(positions, previous))
        previous = positions
    # one sensing per user at t=0, then one per step on which a terminal moved
    assert moves < xy.shape[0] * xy.shape[1]
    assert len(calls) == len(default_config.users) + moves


def test_no_world_outlives_a_call(tiny_config, world_spy):
    run_simulation(tiny_config, 1)
    run_simulation(tiny_config, 1)
    assert len(world_spy) == 2
    sweep(tiny_config, "hysteresis", [0.0, 0.5], [1, 2])
    assert len(world_spy) == 4
    assert hodsim.engine._worlds.get() is None
    gc.collect()
    assert all(ref() is None for ref in world_spy)


def test_compare_computes_each_seeds_world_once(tiny_config, world_spy):
    seeds = [1, 2]
    plan_a, plan_b = ("hysteresis", [0.0, 0.05]), ("randomized_wait", [0.0, 3.0])
    separate = compare_csv(sweep(tiny_config, *plan_a, seeds), sweep(tiny_config, *plan_b, seeds))
    assert len(world_spy) == 2 * len(seeds)

    shared = compare_csv(*compare_sweeps(tiny_config, plan_a, plan_b, seeds, seeds))
    assert len(world_spy) - 2 * len(seeds) == len(seeds)
    assert shared == separate
    assert hodsim.engine._worlds.get() is None


def test_nested_scopes_share_one_dict(tiny_config, world_spy):
    with shared_worlds():
        outer = hodsim.engine._worlds.get()
        sweep(tiny_config, "hysteresis", [0.0, 0.5], [1, 2])
        with shared_worlds():
            assert hodsim.engine._worlds.get() is outer
            run_simulation(tiny_config, 1)
        # the inner block kept the outer scope's worlds alive
        assert hodsim.engine._worlds.get() is outer and len(outer) == 2
        sweep(tiny_config, "waiting_time", [0.0, 2.0], [2, 1])
    assert len(world_spy) == 2
    assert hodsim.engine._worlds.get() is None


def test_scope_is_dropped_when_a_run_fails(tiny_config):
    with pytest.raises(RuntimeError, match="run failed"):
        sweep(replace(tiny_config, decision_step=0.3), "hysteresis", [0.0], [1])
    assert hodsim.engine._worlds.get() is None


def test_shared_worlds_match_fresh_runs(default_config, world_spy):
    aps = list(default_config.aps)
    aps[0] = replace(aps[0], position=(aps[0].position[0] + 40.0, aps[0].position[1]))
    moved_ap = replace(default_config, aps=tuple(aps))
    wider = replace(default_config, area=(default_config.area[0] + 50.0, default_config.area[1]))
    hysteresis = with_strategy(default_config, "hysteresis", 0.3)
    plan = [(default_config, 1), (moved_ap, 1), (hysteresis, 2), (wider, 1),
            (hysteresis, 1), (default_config, 2), (moved_ap, 1), (wider, 2)]

    fresh = [events_csv(run_simulation(cfg, seed)) for cfg, seed in plan]
    assert len(world_spy) == len(plan)
    # the moved AP and the wider area change the events, so a key that
    # missed either would show
    assert fresh[1] != fresh[0] and fresh[3] != fresh[0]

    with shared_worlds():
        shared = [events_csv(run_simulation(cfg, seed)) for cfg, seed in plan]
        # one world per distinct (world inputs, seed): the strategy is not one
        assert len(world_spy) - len(plan) == 5
        assert all(not ref().xy.flags.writeable for ref in world_spy[len(plan):])
    assert shared == fresh
