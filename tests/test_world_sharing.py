"""The world pass (movement and sensing) is shared by the runs of one seed
in a sweep or a compare and by nothing else, and sharing it never changes a
run's events.  Nor does replaying the decision prefix a run has in common
with the latest run of its family (same seed, QoS model and config but for
the strategy).  A scope holds one family's record at a time."""

import gc
import math
import weakref
from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hodsim.engine
import hodsim.metrics
from hodsim.cli import compare_csv
from hodsim.engine import events_csv, run_simulation, shared_worlds
from hodsim.metrics import run_metrics, sweep, sweeps
from hodsim.radio import ap_qos
from hodsim.scenario import STRATEGY_KINDS, default_scenario, with_strategy

from logcheck import check_log

# The default scenario cut to 15 s (30 steps), so that a property example
# makes a few dozen runs in well under a second.
SHORT = replace(default_scenario(), sim_time=15.0)
# parameter grid index -> value: hysteresis margins step by 0.05, waits by 0.5 s
GRID_STEP = {"none": 0.0, "hysteresis": 0.05, "waiting_time": 0.5, "randomized_wait": 0.5}


@pytest.fixture
def world_spy(monkeypatch):
    """The seed of every world pass made while the test runs."""
    made = []
    world = hodsim.engine._world

    def recording(config, seed, index):
        made.append(seed)
        return world(config, seed, index)

    monkeypatch.setattr(hodsim.engine, "_world", recording)
    return made


def test_sweep_moves_each_seeds_terminals_once(tiny_config, monkeypatch):
    walks = []
    walk_mobility = hodsim.engine.walk_mobility

    def counting(state, dt, nb_steps, *args):
        walks.append(nb_steps)
        return walk_mobility(state, dt, nb_steps, *args)

    monkeypatch.setattr(hodsim.engine, "walk_mobility", counting)
    values, seeds = [0.0, 0.1, 0.2], [1, 2]
    sweep(tiny_config, "hysteresis", values, seeds)
    mobile = sum(u.mobile for u in tiny_config.users)
    # one walk through the whole run per seed and mobile terminal
    assert walks == [tiny_config.nb_steps] * (len(seeds) * mobile)


def test_world_pass_senses_in_blocks_of_whole_steps(default_config, monkeypatch):
    calls = []
    sensed_aps = hodsim.engine.sensed_aps

    def recording(positions, aps):
        result = sensed_aps(positions, aps)
        calls.append((np.array(positions, dtype=float).reshape(-1, 2), result))
        return result

    monkeypatch.setattr(hodsim.engine, "sensed_aps", recording)
    returned = []
    world = hodsim.engine._world
    monkeypatch.setattr(hodsim.engine, "_world",
                        lambda *args: returned.append(world(*args)) or returned[-1])
    family = hodsim.engine._Family(1, default_config, ap_qos)
    ((at_start, sensed, xy),) = returned
    assert sensed is family.sensed and xy is family.xy
    users = sorted(default_config.users, key=lambda u: u.id)
    n = sum(u.mobile for u in users)
    steps, checks = default_config.nb_steps, n * len(default_config.aps)
    # one call for every user at t=0, then one per block: as many whole
    # steps as fit in _SENSE_BLOCK position x AP checks, in step order, at
    # the mobile terminals' positions after each step's move
    per_block = hodsim.engine._SENSE_BLOCK // checks
    assert 1 < per_block < steps
    assert len(calls) == 1 + -(-steps // per_block)
    # the world holds AP indices in ascending order, which name the ids
    # sensed_aps returned in id order
    ap_order = family.ap_order
    assert ap_order == sorted(ap.id for ap in default_config.aps)
    assert family.index == {ap_id: j for j, ap_id in enumerate(ap_order)}

    def named(row):
        assert all(list(hits) == sorted(hits) for hits in row)
        return [tuple(ap_order[j] for j in hits) for hits in row]

    assert calls[0][0].tolist() == [list(u.initial_position) for u in users]
    assert named(at_start) == calls[0][1]
    k = 0
    for positions, result in calls[1:]:
        assert len(positions) == n * min(per_block, steps - k)
        for i in range(0, len(positions), n):
            assert np.array_equal(positions[i:i + n], xy[k])
            assert named(sensed[k]) == result[i:i + n]
            k += 1
    assert k == steps == len(sensed)
    # equal sensed tuples are one object
    everything = list(at_start) + [hits for row in sensed for hits in row]
    assert len({id(hits) for hits in everything}) == len(set(everything)) < len(everything)


def test_no_world_outlives_a_call(tiny_config, world_spy, family_spy):
    # a world lives only in its family's record
    run_simulation(tiny_config, 1)
    run_simulation(tiny_config, 1)
    assert len(world_spy) == len(family_spy) == 2
    sweep(tiny_config, "hysteresis", [0.0, 0.5], [1, 2])
    assert len(world_spy) == len(family_spy) == 4
    assert hodsim.engine._slot.get() is None
    gc.collect()
    assert all(ref() is None for ref in family_spy)


def test_compare_computes_each_seeds_world_once(tiny_config, world_spy):
    seeds = [1, 2]
    plan_a, plan_b = ("hysteresis", [0.0, 0.05]), ("randomized_wait", [0.0, 3.0])
    separate = compare_csv(sweep(tiny_config, *plan_a, seeds), sweep(tiny_config, *plan_b, seeds))
    assert len(world_spy) == 2 * len(seeds)

    shared = compare_csv(*sweeps(tiny_config, [plan_a, plan_b], seeds))
    assert len(world_spy) - 2 * len(seeds) == len(seeds)
    assert shared == separate
    assert hodsim.engine._slot.get() is None


def test_a_nested_scope_leaves_the_outer_record_in_place(tiny_config, world_spy):
    # a block inside another holds its own record; when it exits, the outer
    # block's record is back in place and later runs of its family use it
    with shared_worlds():
        outer = hodsim.engine._slot.get()
        run_simulation(tiny_config, 1)
        (family,) = outer
        with shared_worlds():
            inner = hodsim.engine._slot.get()
            assert inner is not outer and inner == []
            run_simulation(tiny_config, 1)
            run_simulation(tiny_config, 2)
            assert len(inner) == 1 and inner[0] is not family
        assert hodsim.engine._slot.get() is outer and outer == [family]
        # a sweep opens its own scope, so it leaves the outer record alone too
        sweep(tiny_config, "hysteresis", [0.0, 0.5], [1, 2])
        assert hodsim.engine._slot.get() is outer and outer == [family]
        run_simulation(with_strategy(tiny_config, "waiting_time", 2.0), 1)
        assert outer == [family] and family.rows is not None
    # the outer block's family, the inner block's two and the sweep's two
    assert len(world_spy) == 5
    assert hodsim.engine._slot.get() is None


def test_scope_is_dropped_when_a_run_fails(tiny_config):
    with pytest.raises(RuntimeError, match="run failed"):
        sweep(replace(tiny_config, decision_step=0.3), "hysteresis", [0.0], [1])
    assert hodsim.engine._slot.get() is None


def test_shared_worlds_match_fresh_runs(default_config, world_spy):
    aps = list(default_config.aps)
    aps[0] = replace(aps[0], position=(aps[0].position[0] + 40.0, aps[0].position[1]))
    moved_ap = replace(default_config, aps=tuple(aps))
    wider = replace(default_config, area=(default_config.area[0] + 50.0, default_config.area[1]))
    hysteresis = with_strategy(default_config, "hysteresis", 0.3)
    plan = [(default_config, 1), (moved_ap, 1), (hysteresis, 1), (wider, 1),
            (hysteresis, 2), (default_config, 2), (moved_ap, 1), (wider, 2)]

    fresh = [events_csv(run_simulation(cfg, seed)) for cfg, seed in plan]
    assert len(world_spy) == len(plan)
    # the moved AP and the wider area change the events, and each follows a
    # run of its seed, so a key that missed either would show
    assert fresh[1] != fresh[0] and fresh[3] != fresh[0]

    shared = []
    with shared_worlds():
        for cfg, seed in plan:
            shared.append(events_csv(run_simulation(cfg, seed)))
            # the scope's record holds the latest world
            (family,) = hodsim.engine._slot.get()
            assert not family.xy.flags.writeable
        # a scope holds one record, so a world is made at each change of
        # family: every run but (default_config, 2) after (hysteresis, 2)
        assert len(world_spy) - len(plan) == len(plan) - 1
    assert shared == fresh


@settings(max_examples=40, deadline=None)
@given(
    plan=st.lists(st.tuples(st.sampled_from(STRATEGY_KINDS), st.integers(0, 20)),
                  min_size=2, max_size=6),
    grid=st.lists(st.integers(0, 20), min_size=1, max_size=5),
    swept=st.sampled_from(STRATEGY_KINDS[1:]),
    seeds=st.lists(st.integers(1, 3), min_size=1, max_size=2, unique=True),
    sigma=st.sampled_from([0.0, 0.5]),
    cost=st.integers(0, 2),
    period=st.integers(1, 3),
)
def test_shared_runs_equal_fresh_runs(plan, grid, swept, seeds, sigma, cost, period):
    # unsorted plans and grids with duplicates, every strategy kind in one
    # scope, jitter on and off, and the switching cost and diffusion period
    # both varied
    config = replace(SHORT, qos_jitter_sigma=sigma, handover_cost_steps=cost,
                     diffusion_period=period * SHORT.decision_step)

    def value(kind, index):
        return round(index * GRID_STEP[kind], 10)

    runs = [(kind, value(kind, index), seed) for kind, index in plan for seed in seeds]
    values = [value(swept, index) for index in grid]
    runs += [(swept, v, seed) for v in values for seed in seeds]
    fresh = {}
    for kind, v, seed in runs:
        if (kind, v, seed) not in fresh:
            log = run_simulation(with_strategy(config, kind, v), seed)
            fresh[kind, v, seed] = (events_csv(log), run_metrics(log))

    def checked(cfg, seed):
        log = run_simulation(cfg, seed)
        check_log(log)
        key = (cfg.strategy.kind, cfg.strategy.parameter, seed)
        assert events_csv(log) == fresh[key][0], key
        return log

    with shared_worlds():
        for kind, v, seed in runs[:len(plan) * len(seeds)]:
            checked(with_strategy(config, kind, v), seed)
        # the sweep's own runs are checked the same way
        hodsim.metrics.run_simulation = checked
        try:
            report = sweep(config, swept, values, seeds)
        finally:
            hodsim.metrics.run_simulation = run_simulation
    assert hodsim.engine._slot.get() is None
    assert sorted(report.runs) == sorted(set(values))
    for v in values:
        assert report.runs[v] == tuple(fresh[swept, v, seed][1] for seed in seeds)


def _hysteresis_grid():
    return [round(i * 0.05, 10) for i in range(21)]


def test_replayed_runs_make_the_same_decide_calls(default_config, monkeypatch):
    # every run inside a scope calls decide with the arguments, strategy,
    # wait time and generator state that the same run makes on its own
    calls = []
    decide = hodsim.engine.decide

    def recording(c_asso, c_best, strategy, wait_until, now, rng=None):
        drawn = None if rng is None else rng.bit_generator.state["state"]["state"]
        calls.append((c_asso, c_best, strategy, wait_until, now, drawn))
        return decide(c_asso, c_best, strategy, wait_until, now, rng)

    monkeypatch.setattr(hodsim.engine, "decide", recording)
    plan = [("hysteresis", 0.3, 1), ("hysteresis", 0.05, 1), ("waiting_time", 2.0, 1),
            ("randomized_wait", 3.0, 1), ("hysteresis", 0.3, 2), ("none", 0.0, 1),
            ("randomized_wait", 1.5, 1), ("hysteresis", 0.05, 1)]

    def sequence(in_scope):
        per_run = []
        with shared_worlds() if in_scope else nullcontext():
            for kind, parameter, seed in plan:
                calls.clear()
                run_simulation(with_strategy(default_config, kind, parameter), seed)
                per_run.append(list(calls))
        return per_run

    alone, shared = sequence(False), sequence(True)
    assert all(alone) and [len(c) for c in shared] == [len(c) for c in alone]
    assert shared == alone


def test_a_sweep_executes_fewer_steps_than_independent_runs(default_config, monkeypatch):
    # a run whose decisions agree with its family's latest run for a prefix
    # of the steps does not execute that prefix: it takes no views there
    calls = []
    known = hodsim.engine.known

    def counting(*args):
        calls.append(1)
        return known(*args)

    monkeypatch.setattr(hodsim.engine, "known", counting)
    grid = _hysteresis_grid()
    for value in grid:
        run_simulation(with_strategy(default_config, "hysteresis", value), 1)
    independent = len(calls)
    calls.clear()
    sweep(default_config, "hysteresis", grid, [1])
    assert 0 < len(calls) < independent / 2


def test_a_resumed_run_derives_each_rounds_views_once(default_config, monkeypatch):
    # A resumed run builds its first step's QoS map anew; a map equal to the
    # last measured one is kept as that one, so the next diffusion round
    # reuses its views instead of deriving them again.  The counts are those
    # of commit 939a71e, whose resume restored the measured map itself; with
    # the extra round the hysteresis sweep made 2,799 calls.
    calls = []
    known = hodsim.engine.known

    def counting(*args):
        calls.append(1)
        return known(*args)

    monkeypatch.setattr(hodsim.engine, "known", counting)
    counts = {}
    for kind, grid in (("hysteresis", _hysteresis_grid()),
                       ("waiting_time", [round(i * 0.5, 10) for i in range(21)])):
        calls.clear()
        sweep(default_config, kind, grid, [1, 2])
        counts[kind] = len(calls)
    assert counts == {"hysteresis": 2737, "waiting_time": 19468}


def test_only_runs_of_one_family_share_a_prefix(default_config, world_spy):
    # every field but the strategy, the seed and the QoS model set a run's
    # family.  A scope holds one record, so each variant runs directly after
    # a base run: a variant that shared the base run's record would show here
    def crowded(ap, load):
        return ap_qos(ap, load + 2)

    base = with_strategy(default_config, "hysteresis", 0.05)
    step = default_config.decision_step
    variants = [(replace(base, handover_cost_steps=2), 1, ap_qos),
                (replace(base, diffusion_period=2 * step), 1, ap_qos),
                (replace(base, criteria=(replace(base.criteria[0], alpha=1.0),) + base.criteria[1:]),
                 1, ap_qos),
                (replace(base, qos_jitter_sigma=0.5), 1, ap_qos), (base, 2, ap_qos),
                (base, 1, crowded), (with_strategy(base, "hysteresis", 0.1), 1, ap_qos)]
    fresh_base = events_csv(run_simulation(base, 1))
    fresh = [events_csv(run_simulation(cfg, seed, qos_model)) for cfg, seed, qos_model in variants]
    assert len({fresh_base, *fresh}) == len(variants) + 1 == len(world_spy)
    shared = []
    with shared_worlds():
        for cfg, seed, qos_model in variants:
            assert events_csv(run_simulation(base, 1)) == fresh_base
            shared.append(events_csv(run_simulation(cfg, seed, qos_model)))
            assert len(hodsim.engine._slot.get()) == 1
        # one world pass per change of family: every run but the last, which
        # is of the base run's family
        assert len(world_spy) - len(variants) - 1 == 2 * len(variants) - 1
    assert shared == fresh


@pytest.fixture
def family_spy(monkeypatch):
    """Weak references to every family record made while the test runs."""
    made = []

    class Recorded(hodsim.engine._Family):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(weakref.ref(self))

    monkeypatch.setattr(hodsim.engine, "_Family", Recorded)
    return made


def test_no_family_record_outlives_its_scope(tiny_config, family_spy):
    run_simulation(tiny_config, 1)
    # outside a scope a run's record records no tape and dies with the run
    (lone,) = family_spy
    gc.collect()
    assert lone() is None
    sweep(tiny_config, "hysteresis", [0.0, 0.5, 0.05], [1, 2])
    assert len(family_spy) == 3
    with shared_worlds():
        for value in (0.0, 2.0):
            run_simulation(with_strategy(tiny_config, "waiting_time", value), 1)
        run_simulation(with_strategy(tiny_config, "randomized_wait", 3.0), 1)
        # one record per family: the latest run of (tiny_config, seed 1)
        (family,) = hodsim.engine._slot.get()
        assert family.table and family.rows and family.steps
        del family
    assert len(family_spy) == 4 and hodsim.engine._slot.get() is None
    gc.collect()
    assert all(ref() is None for ref in family_spy)


def test_a_familys_rows_and_noise_are_left_to_the_gc_untracked():
    # rows and noise slices are plain tuples of atoms, so one collection
    # untracks them and no later collection walks them again
    config = replace(SHORT, qos_jitter_sigma=0.5)
    families = []
    with shared_worlds():
        for seed in (1, 2):
            for value in (0.0, 1.0, 2.5):
                run_simulation(with_strategy(config, "randomized_wait", value), seed)
            families += hodsim.engine._slot.get()
        gc.collect()
        rows = [row for family in families for column in family.rows for row in column]
        noise = [share for family in families for step in family.noise for share in step]
        assert len(families) == 2 and rows and noise
        assert not any(gc.is_tracked(o) for o in rows + noise)


def test_a_family_and_its_runs_share_one_frozen_log(tiny_config):
    # a run freezes its log once; its family keeps those tuples, and a run
    # that replays the whole tape hands them out again without a copy
    with shared_worlds():
        first = run_simulation(with_strategy(tiny_config, "hysteresis", 0.5), 1)
        (family,) = hodsim.engine._slot.get()
        columns = [first.outcomes[m] for m in first.mt_ids]
        assert len(family.rows) == len(columns)
        assert all(a is b for a, b in zip(family.rows, columns))
        replayed = run_simulation(with_strategy(tiny_config, "hysteresis", 0.5), 1)
        assert all(replayed.outcomes[m] is first.outcomes[m] for m in first.mt_ids)


def test_a_jitter_family_computes_each_vector_and_score_once(tiny_config, monkeypatch):
    # inside one scope the runs of a family share its QoS tables: the model
    # is called once per (AP, load), each jittered vector is built once per
    # (step, AP, load) and scored once per profile, across all of its runs
    config = replace(tiny_config, qos_jitter_sigma=2.0)
    modelled, built, scored = [], [], []
    score_network, apply_jitter = hodsim.engine.score_network, hodsim.engine.apply_jitter

    def model(ap, load):
        modelled.append((ap.id, load))
        return ap_qos(ap, load)

    def jittering(qos, noise):
        built.append(1)
        return apply_jitter(qos, noise)

    def scoring(ap_id, offered, required, *args, gated=True, **kwargs):
        scored.append((tuple(offered.items()), tuple(required.items()), gated))
        return score_network(ap_id, offered, required, *args, gated=gated, **kwargs)

    monkeypatch.setattr(hodsim.engine, "apply_jitter", jittering)
    monkeypatch.setattr(hodsim.engine, "score_network", scoring)
    values = [0.0, 2.0, 3.0, 6.0]
    fresh = [events_csv(run_simulation(with_strategy(config, "randomized_wait", v), 1, model))
             for v in values]
    alone = (len(modelled), len(built), len(scored))
    for spy in (modelled, built, scored):
        spy.clear()
    with shared_worlds():
        shared = [events_csv(run_simulation(with_strategy(config, "randomized_wait", v), 1, model))
                  for v in values]
        (family,) = hodsim.engine._slot.get()
        # jittered[k] holds step k's jittered vector numbers by (AP, load)
        assert len(built) == sum(map(len, family.jittered))
    assert shared == fresh and len(set(fresh)) == len(values)
    assert modelled and len(modelled) == len(set(modelled))
    assert scored and len(scored) == len(set(scored))
    # the runs after the first executed steps, and found their vectors built
    assert len(modelled) < alone[0] and len(built) < alone[1] and len(scored) < alone[2]


def test_a_familys_strategy_generators_draw_as_fresh_streams(tiny_config, monkeypatch):
    # the family keeps each terminal's initial strategy-generator state; a
    # later run starts from it instead of seeding the stream again
    config = with_strategy(tiny_config, "randomized_wait", 3.0)
    mt_order = sorted(u.id for u in config.users if u.mobile)
    streams = []
    stream = hodsim.engine._stream
    monkeypatch.setattr(hodsim.engine, "_stream", lambda *a: streams.append(a[1:]) or stream(*a))
    with shared_worlds():
        run_simulation(config, 2)
        assert [labels for labels in streams if labels[0] == "strategy"] == \
            [("strategy", m) for m in mt_order]
        (family,) = hodsim.engine._slot.get()
        states = family.strategy
        assert len(states) == len(mt_order)
        for m, state in zip(mt_order, states):
            restored = hodsim.engine._restored(state)
            assert restored.bit_generator.state == stream(2, "strategy", m).bit_generator.state
            assert restored.random(64).tolist() == stream(2, "strategy", m).random(64).tolist()
        streams.clear()
        shared = events_csv(run_simulation(with_strategy(config, "randomized_wait", 1.0), 2))
        assert not any(labels[0] == "strategy" for labels in streams)
    assert shared == events_csv(run_simulation(with_strategy(config, "randomized_wait", 1.0), 2))


def test_a_failing_sweep_drops_its_records(tiny_config, family_spy, monkeypatch):
    # every value of every plan is checked before the first run, so a bad
    # value in either plan raises before any run or validation
    runs, validated = [], []
    validate = hodsim.engine.validate
    monkeypatch.setattr(hodsim.engine, "validate", lambda c: validated.append(c) or validate(c))

    def counting(config, seed):
        # the fifth run, the first of seed 2, fails
        runs.append(seed)
        if len(runs) == 5:
            raise RuntimeError("run refused")
        return run_simulation(config, seed)

    monkeypatch.setattr(hodsim.metrics, "run_simulation", counting)
    good = ("waiting_time", [0.0, 2.0])
    for bad, message in ((("hysteresis", [0.0, 0.05, -1.0]), "value=-1.0: .*must be >= 0"),
                         (("randomized_wait", [1.0, math.nan]), "value=nan: .*must be finite"),
                         (("hover", [0.0]), "value=0.0: strategy.kind: must be one of")):
        for plans in ([bad], [bad, good], [good, bad]):
            with pytest.raises(ValueError, match=message):
                sweeps(tiny_config, plans, [1, 2])
    assert not runs and not validated and not family_spy
    # a run that fails part way drops the records made before it
    with pytest.raises(RuntimeError, match="value=0.0 seed=2: run refused"):
        sweeps(tiny_config, [good, ("hysteresis", [0.0, 0.05])], [1, 2])
    assert runs == [1, 1, 1, 1, 2] and len(family_spy) == 1 and hodsim.engine._slot.get() is None
    gc.collect()
    assert all(ref() is None for ref in family_spy)


def test_a_sweep_drops_each_seeds_record_before_the_next(tiny_config, family_spy, monkeypatch):
    # a sweep runs seed by seed, and a seed's record is freed before the
    # next seed's world pass starts, with no help from the cyclic GC
    alive = []
    world = hodsim.engine._world

    def spying(config, seed, index):
        alive.append([ref() is not None for ref in family_spy])
        return world(config, seed, index)

    monkeypatch.setattr(hodsim.engine, "_world", spying)
    sweeps(tiny_config, [("hysteresis", [0.0, 0.05, 0.2]), ("waiting_time", [0.0, 2.0])], [1, 2, 3])
    assert alive == [[], [False], [False, False]]


def test_a_run_that_fails_leaves_its_family_usable(monkeypatch):
    # a resumed run detaches its family's tape before it executes, so a
    # failure after that leaves the family's world and tables without a tape
    config = replace(default_scenario(), sim_time=30.0)
    values = [0.3, 0.05, 0.0]
    fresh = [events_csv(run_simulation(with_strategy(config, "hysteresis", v), 1)) for v in values]
    decide = hodsim.engine.decide

    def failing(c_asso, c_best, strategy, wait_until, now, rng=None):
        if now >= 20.0:
            raise RuntimeError("decide failed")
        return decide(c_asso, c_best, strategy, wait_until, now, rng)

    with shared_worlds():
        run_simulation(with_strategy(config, "hysteresis", 0.0), 1)
        (family,) = hodsim.engine._slot.get()
        assert family.rows is not None
        monkeypatch.setattr(hodsim.engine, "decide", failing)
        with pytest.raises(RuntimeError, match="decide failed"):
            run_simulation(with_strategy(config, "hysteresis", 0.3), 1)
        # the run had resumed: the tape was detached, the record kept
        assert hodsim.engine._slot.get() == [family] and family.rows is None
        monkeypatch.setattr(hodsim.engine, "decide", decide)
        shared = [events_csv(run_simulation(with_strategy(config, "hysteresis", v), 1))
                  for v in values]
        assert family.rows is not None
    assert shared == fresh and len(set(fresh)) > 1


def test_a_familys_start_is_made_once(monkeypatch):
    # the initial association and the jitter noise do not depend on the
    # strategy, so the runs of one family in a scope make them once, at the
    # first run, and a run that fails part way leaves them to the next run,
    # which starts afresh from them
    config = replace(SHORT, qos_jitter_sigma=0.5)
    values = [0.0, 0.05, 0.1, 0.2, 0.3]
    fresh = [events_csv(run_simulation(with_strategy(config, "hysteresis", v), 1)) for v in values]
    picks, draws = [], []
    best_candidate, stream, known = (hodsim.engine.best_candidate, hodsim.engine._stream,
                                     hodsim.engine.known)
    monkeypatch.setattr(hodsim.engine, "best_candidate", lambda c: picks.append(1) or best_candidate(c))

    def drawing(seed, *labels):
        if labels == ("qos-jitter",):
            draws.append(seed)
        return stream(seed, *labels)

    def failing(*args):
        raise RuntimeError("known failed")

    monkeypatch.setattr(hodsim.engine, "_stream", drawing)
    shared = []
    with shared_worlds():
        for index, v in enumerate(values):
            if index == 2:
                monkeypatch.setattr(hodsim.engine, "known", failing)
                with pytest.raises(RuntimeError, match="known failed"):
                    run_simulation(with_strategy(config, "waiting_time", 2.0), 1)
                monkeypatch.setattr(hodsim.engine, "known", known)
                # the failed run had resumed: the tape is gone, the record kept
                (family,) = hodsim.engine._slot.get()
                assert family.rows is None
            shared.append(events_csv(run_simulation(with_strategy(config, "hysteresis", v), 1)))
    assert shared == fresh and len(set(fresh)) > 1
    # one pick per user, and the noise drawn once
    assert len(picks) == len(config.users) and draws == [1]


def test_a_run_that_reuses_its_familys_whole_log_does_no_table_work(default_config, monkeypatch):
    # every decision of the second run agrees with the first run's tape, so
    # it only feeds the tape to decide: no world pass, QoS model, score,
    # initial pick, view, sensing or stream
    calls = dict.fromkeys(("decide", "_world", "score_network", "best_candidate", "known",
                           "sensed_aps", "_stream", "qos_model"), 0)

    def counted(name, function):
        def counting(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return counting

    model = counted("qos_model", ap_qos)
    with shared_worlds():
        first = run_simulation(with_strategy(default_config, "hysteresis", 0.5), 1, model)
        (family,) = hodsim.engine._slot.get()
        tape = sum(len(step.fired) for step in family.steps)
        calls["qos_model"] = 0
        for name in calls:
            if name != "qos_model":
                monkeypatch.setattr(hodsim.engine, name, counted(name, getattr(hodsim.engine, name)))
        second = run_simulation(with_strategy(default_config, "hysteresis", 0.6), 1, model)
    assert all(second.outcomes[m] is first.outcomes[m] for m in first.mt_ids)
    assert tape == 521 and calls.pop("decide") == tape
    assert not any(calls.values()), calls


def test_a_family_whose_start_fails_leaves_no_record(tiny_config, world_spy):
    # a family's record is made whole or not kept: a QoS model that raises
    # during the initial association leaves the scope's slot empty, and the
    # family's next run makes a fresh world pass and equals a fresh run
    failing = []

    def model(ap, load):
        if failing:
            raise RuntimeError("model failed")
        return ap_qos(ap, load)

    fresh = events_csv(run_simulation(tiny_config, 1, model))
    with shared_worlds():
        run_simulation(tiny_config, 2, model)
        failing.append(True)
        with pytest.raises(RuntimeError, match="model failed"):
            run_simulation(tiny_config, 1, model)
        # its world pass was made; seed 2's record had been dropped before it
        assert len(world_spy) == 3 and hodsim.engine._slot.get() == []
        failing.clear()
        assert events_csv(run_simulation(tiny_config, 1, model)) == fresh
        assert len(world_spy) == 4 and len(hodsim.engine._slot.get()) == 1
