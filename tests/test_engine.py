import hashlib
from dataclasses import replace

import numpy as np
import pytest

from hodsim.engine import EventLog, events_csv, run_simulation, shared_worlds, _stream
from hodsim.radio import ap_qos
from hodsim.scenario import ScenarioError, load_scenario, with_strategy

from conftest import tiny_document
from logcheck import Row, check_log, named
from reference import ref_events_csv


def test_same_config_and_seed_bitwise_identical(tiny_config):
    a = events_csv(run_simulation(tiny_config, 3))
    b = events_csv(run_simulation(tiny_config, 3))
    assert a == b


def test_different_seeds_differ(default_config):
    # the tiny fixture is position-degenerate (every AP covers everything),
    # so seed sensitivity is checked on the shipped scenario
    a = events_csv(run_simulation(default_config, 3))
    b = events_csv(run_simulation(default_config, 4))
    assert a != b


def test_seed_defaults_to_config_seed(tiny_config):
    assert events_csv(run_simulation(tiny_config)) == \
        events_csv(run_simulation(tiny_config, tiny_config.rng_seed))


def test_single_ap_never_hands_over():
    doc = tiny_document()
    doc["aps"] = [doc["aps"][0]]
    doc["aps"][0]["wired_neighbors"] = []
    log = run_simulation(load_scenario(doc), 1)
    assert all(count == 0 for count in log.nb_ho.values())


def test_every_mt_has_one_outcome_per_step(tiny_config):
    log = run_simulation(tiny_config, 1)
    assert log.nb_steps == 20
    for mt in log.mt_ids:
        assert len(log.outcomes[mt]) == 20


def test_invalid_config_rejected(tiny_config):
    broken = replace(tiny_config, decision_step=0.3)
    with pytest.raises(ValueError):
        run_simulation(broken, 1)


def test_handover_applies_next_step(tiny_config):
    log = run_simulation(tiny_config, 2)
    switched = 0
    for mt in log.mt_ids:
        outs = named(log, mt)
        for k, o in enumerate(outs):
            if o.action == "handover" and k + 1 < len(outs):
                assert outs[k + 1].associated is not None
                assert outs[k + 1].associated != o.associated
                switched += 1
    assert switched > 0, "seed chosen to produce at least one handover"


def test_nb_ho_matches_handover_actions(tiny_config):
    log = run_simulation(tiny_config, 5)
    for mt in log.mt_ids:
        assert log.nb_ho[mt] == sum(1 for o in named(log, mt) if o.action == "handover")


def test_margin_wider_than_score_range_freezes_associations(tiny_config):
    # combined scores live in [0, k) for k criteria, so a margin of k can
    # never be cleared
    k = len(tiny_config.criteria)
    frozen = with_strategy(tiny_config, "hysteresis", float(k))
    log = run_simulation(frozen, 1)
    assert all(count == 0 for count in log.nb_ho.values())
    for mt in log.mt_ids:
        column = {o.associated for o in named(log, mt)}
        assert len(column) == 1 and None not in column


def test_association_intervals_contiguous(tiny_config):
    # the associated column is the association history: in an always-covered
    # world it has no gap, up to and including the last step
    log = run_simulation(tiny_config, 8)
    assert sum(log.nb_ho.values()) > 0
    for mt in log.mt_ids:
        assert all(o.associated is not None for o in named(log, mt))


def test_switching_step_scores_zero_with_cost():
    doc = tiny_document(handover_cost_steps=1)
    log = run_simulation(load_scenario(doc), 2)
    costed = 0
    for mt in log.mt_ids:
        outs = named(log, mt)
        for k, o in enumerate(outs):
            if o.action == "handover" and k + 1 < len(outs):
                nxt = outs[k + 1]
                assert nxt.c_asso == 0.0
                assert nxt.action == "stay"
                costed += 1
    assert costed > 0, "seed chosen to produce at least one handover"


def test_zero_cost_keeps_scoring_through_switch():
    doc = tiny_document(handover_cost_steps=0)
    log = run_simulation(load_scenario(doc), 2)
    switch_steps = [
        (mt, k + 1)
        for mt in log.mt_ids
        for k, o in enumerate(named(log, mt))
        if o.action == "handover" and k + 1 < len(log.outcomes[mt])
    ]
    assert switch_steps
    assert any(named(log, mt)[k].c_asso > 0 for mt, k in switch_steps)


def knowledge_spy(monkeypatch):
    """Record every QoS record a decision reads from a terminal's knowledge.

    The engine reads knowledge only through the views knowledge.known
    builds, tuples of vector numbers by AP index; each view is wrapped so
    that every lookup is logged, through the tables of the run's family, as
    (AP id, QoS vector or None when the AP is not known).
    """
    import hodsim.engine

    lookups, families = [], []
    known = hodsim.engine.known

    class Recorded(hodsim.engine._Family):
        def __init__(self, *args):
            super().__init__(*args)
            families.append(self)

    class RecordingView(tuple):
        def __getitem__(self, j):
            number = tuple.__getitem__(self, j)
            family = families[-1]
            lookups.append((family.ap_order[j], None if number is None else family.table[number]))
            return number

    monkeypatch.setattr(hodsim.engine, "_Family", Recorded)
    monkeypatch.setattr(hodsim.engine, "known", lambda *args: RecordingView(known(*args)))
    return lookups


def test_knowledge_chain_never_fabricates_qos(tiny_config, monkeypatch):
    # every record a decision ever read, the candidates' and the associated
    # AP's, must carry a QoS vector the radio layer actually offered for
    # that AP.  With jitter nearly every offered vector is new, so a
    # fabricated or mixed-up record would show.
    import hodsim.engine
    from hodsim.radio import apply_jitter

    lookups = knowledge_spy(monkeypatch)
    for config in (tiny_config, replace(tiny_config, qos_jitter_sigma=2.0)):
        jittered = config.qos_jitter_sigma > 0
        offered = {}
        modelled = {}
        built = []
        lookups.clear()

        def spying_model(ap, load):
            out = ap_qos(ap, load)
            modelled.setdefault(tuple(out.items()), set()).add(ap.id)
            if not jittered:
                offered.setdefault(ap.id, []).append(dict(out))
            return out

        def spying_jitter(qos, noise):
            # the engine jitters a vector the model gave, with one noise
            # value per component; the model gave it for exactly one AP
            out = apply_jitter(qos, noise)
            (ap_id,) = modelled[tuple(qos.items())]
            assert len(noise) == len(qos) == len(out)
            built.append(ap_id)
            offered.setdefault(ap_id, []).append(dict(out))
            return out

        monkeypatch.setattr(hodsim.engine, "apply_jitter", spying_jitter)
        run_simulation(config, 4, qos_model=spying_model)
        # a run on its own builds, at every step, one vector for each AP in
        # AP id order
        assert built == (sorted(ap.id for ap in config.aps) * config.nb_steps if jittered else [])
        checked = 0
        for ap_id, qos in lookups:
            if qos is not None:
                assert qos in offered[ap_id]
                checked += 1
        assert checked > 0


def test_each_distinct_score_input_is_scored_once(default_config, monkeypatch):
    # within a run a score depends only on (offered QoS, requirements, gate),
    # so the engine calls score_network once per distinct input
    import hodsim.engine

    keys = []
    score_network = hodsim.engine.score_network

    def counting(ap_id, offered, required, *args, gated=True, **kwargs):
        keys.append((tuple(offered.items()), tuple(required.items()), gated))
        return score_network(ap_id, offered, required, *args, gated=gated, **kwargs)

    monkeypatch.setattr(hodsim.engine, "score_network", counting)
    lookups = knowledge_spy(monkeypatch)
    log = run_simulation(default_config, 1)
    assert keys
    assert len(keys) == len(set(keys))
    # far fewer calls than scored candidates: the inputs repeat across steps.
    # Besides its candidates a decision reads one record, its associated
    # AP's, and only a step with an association can be a decision; so the
    # scored candidates number at least the records read minus those steps.
    read = sum(qos is not None for _, qos in lookups)
    associated = sum(o.associated is not None for m in log.mt_ids for o in named(log, m))
    assert len(keys) < read - associated


def test_decide_gets_row_scores_and_best_candidate_gets_ap_ids(default_config, monkeypatch):
    # decide gets, as floats, the c_asso and c_best that the row it decides
    # logs, and every CombinedScore the engine hands to best_candidate names
    # its AP by the config's id: in a fresh hysteresis run, in a jittered
    # randomized_wait run, and in runs that replay their family's tape in a
    # scope
    import hodsim.engine

    ids = {ap.id for ap in default_config.aps}
    seen = {"decide": [], "best_candidate": []}
    decide, best_candidate = hodsim.engine.decide, hodsim.engine.best_candidate

    def deciding(c_asso, c_best, strategy, wait_until, now, rng=None):
        seen["decide"].append((now, c_asso, c_best))
        return decide(c_asso, c_best, strategy, wait_until, now, rng)

    def picking(candidates):
        seen["best_candidate"] += [c.ap_id for c in candidates]
        return best_candidate(candidates)

    def names(config):
        for got in seen.values():
            got.clear()
        log = run_simulation(config, 1)
        assert set(seen["best_candidate"]) <= ids
        # the base rule fires exactly where c_best beats c_asso, and decide
        # is called once per such row, in step and then terminal order
        fired = [(k * config.decision_step, row[2], row[3]) for k in range(log.nb_steps)
                 for row in (log.outcomes[m][k] for m in log.mt_ids) if row[3] > row[2]]
        assert seen["decide"] == fired
        assert all(type(c_asso) is float and type(c_best) is float
                   for _, c_asso, c_best in seen["decide"])
        return {name: len(got) for name, got in seen.items()}

    hysteresis = with_strategy(default_config, "hysteresis", 0.05)
    jittered = with_strategy(replace(default_config, qos_jitter_sigma=0.5), "randomized_wait", 3.0)
    monkeypatch.setattr(hodsim.engine, "decide", deciding)
    monkeypatch.setattr(hodsim.engine, "best_candidate", picking)
    assert all(names(hysteresis).values()) and all(names(jittered).values())
    with shared_worlds():
        for first, then in ((hysteresis, with_strategy(default_config, "hysteresis", 0.1)),
                            (jittered, with_strategy(jittered, "randomized_wait", 1.5))):
            names(first)
            (family,) = hodsim.engine._slot.get()
            assert family.rows is not None
            # the run takes the family's start, so it picks no initial AP;
            # decide is reached by the replay and the steps executed after it
            counts = names(then)
            assert counts["decide"] > 0 and counts["best_candidate"] == 0


def test_stationary_users_hold_their_association(tiny_config):
    log = run_simulation(tiny_config, 1)
    # stationary users are not logged as terminals
    assert set(log.mt_ids) == {"m0", "m1"}


def test_world_without_mobile_terminals_is_refused(tiny_config):
    # a run logs and measures only its mobile terminals, so a world without
    # one is refused before any run; so is a world without users
    doc = tiny_document(mobility_ratio=0.0, qos_jitter_sigma=1.0)
    for user in doc["users"]:
        user["mobile"] = False
    with pytest.raises(ScenarioError, match="^users: at least one mobile user required$"):
        load_scenario(doc)
    static = replace(tiny_config, mobility_ratio=0.0,
                     users=tuple(replace(u, mobile=False) for u in tiny_config.users))
    with pytest.raises(ValueError, match="users: at least one mobile user required"):
        run_simulation(static, 2)
    with pytest.raises(ScenarioError, match="^users: at least one mobile user required$"):
        load_scenario(tiny_document(users=[]))


def test_terminal_outside_all_coverage_is_logged_not_fatal():
    doc = tiny_document()
    for ap in doc["aps"]:
        ap["coverage_radius"] = 12.0
    # m0 starts far from both small disks
    doc["users"][0]["initial_position"] = [99.0, 1.0]
    log = run_simulation(load_scenario(doc), 6)
    first = named(log, "m0")[0]
    assert first.associated is None
    assert first.c_asso == 0.0 and first.action == "stay"
    assert len(log.outcomes["m0"]) == log.nb_steps
    # an unassociated step never contributes score
    for o in named(log, "m0"):
        if o.associated is None:
            assert o.c_asso == 0.0
    # coverage loss ends an association without counting a handover
    for mt in log.mt_ids:
        assert log.nb_ho[mt] == sum(1 for o in named(log, mt) if o.action == "handover")


def test_streams_are_independent_and_stable():
    a1 = _stream(1, "mobility", "m0").uniform(size=4).tolist()
    a2 = _stream(1, "mobility", "m0").uniform(size=4).tolist()
    b = _stream(1, "mobility", "m1").uniform(size=4).tolist()
    c = _stream(1, "strategy", "m0").uniform(size=4).tolist()
    assert a1 == a2
    assert a1 != b
    assert a1 != c


@pytest.mark.parametrize("labels", [("mobility", "m0"), ("qos-jitter",)])
@pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1])
def test_a_stream_is_the_generator_of_its_seed_sequence(seed, labels):
    # the seed, then the label digest's first four big-endian 32-bit words
    digest = hashlib.sha256("/".join(labels).encode("utf-8")).digest()
    words = [int.from_bytes(digest[i:i + 4], "big") for i in range(0, 16, 4)]
    expected = np.random.default_rng(np.random.SeedSequence([seed] + words))
    assert _stream(seed, *labels).bit_generator.state == expected.bit_generator.state


@pytest.mark.parametrize("seed", [-1, -(2 ** 32)])
def test_a_negative_seed_has_no_stream(seed):
    with pytest.raises(ValueError):
        _stream(seed, "mobility", "m0")


def test_event_log_holds_exactly_the_csv_fields(tiny_config):
    # time and terminal id come from the row's position; the row is a plain
    # tuple of the other five columns, in the header's order
    log = run_simulation(tiny_config, 2)
    rows = iter(events_csv(log).splitlines()[2:])
    for k in range(log.nb_steps):
        for mt in log.mt_ids:
            o = log.outcomes[mt][k]
            assert type(o) is tuple and len(o) == 5
            associated, action, c_asso, c_best, suppressed = o
            assert next(rows).split(",") == [
                repr(k * tiny_config.decision_step), mt, associated or "", action,
                repr(c_asso), repr(c_best), str(int(suppressed))]
    assert next(rows, None) is None


def test_events_csv_shape(tiny_config):
    lines = events_csv(run_simulation(tiny_config, 1)).splitlines()
    assert lines[0].startswith("# hodsim events schema")
    assert lines[1] == "time,mt,associated_ap,action,c_asso,c_best,suppressed"
    # 20 steps x 2 terminals
    assert len(lines) == 2 + 40
    first = lines[2].split(",")
    assert first[0] == "0.0"
    assert first[1] == "m0"


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_events_csv_is_the_per_row_text(default_config, seed):
    log = run_simulation(default_config, seed)
    assert events_csv(log) == ref_events_csv(log)


def test_events_csv_keeps_the_sign_of_a_zero_score(tiny_config):
    # 0.0 == -0.0, but they print apart, so equal rows may not share a text
    rows = [("apA", "stay", 0.0, -0.0, False), ("apA", "stay", -0.0, 0.0, False),
            ("apA", "stay", 0.0, 0.0, False), (None, "stay", -0.0, -0.0, False),
            ("apB", "handover", 0.5, 0.75, False), ("apB", "stay", 0.5, -0.0, True)]
    steps = tiny_config.nb_steps
    log = EventLog(seed=1, config=tiny_config, mt_ids=["m0", "m1"], outcomes={
        "m0": tuple(rows[k % len(rows)] for k in range(steps)),
        "m1": tuple(rows[(k * 5 + 1) % len(rows)] for k in range(steps))})
    text = events_csv(log)
    assert text == ref_events_csv(log)
    lines = text.splitlines()
    assert lines[2] == "0.0,m0,apA,stay,0.0,-0.0,0"
    assert lines[3] == "0.0,m1,apA,stay,-0.0,0.0,0"
    assert lines[8] == "1.5,m0,,stay,-0.0,-0.0,0"


def test_check_log_rejects_broken_logs(default_config):
    # a switching step after each handover, and both handovers and
    # suppressions in the log
    config = replace(with_strategy(default_config, "hysteresis", 0.05), handover_cost_steps=1)
    log = run_simulation(config, 1)
    check_log(log)
    m, k = next((m, k) for m in log.mt_ids for k, o in enumerate(named(log, m)[:-2])
                if o.action == "handover")
    suppressed = next((m, k) for m in log.mt_ids for k, o in enumerate(named(log, m))
                      if o.suppressed)
    after = named(log, m)[k + 1]

    def swapped(target, k, row):
        column = list(log.outcomes[target])
        column[k] = row
        return replace(log, outcomes={**log.outcomes, target: tuple(column)}, nb_ho=dict(log.nb_ho))

    def broken(target, k, **fields):
        return swapped(target, k, tuple(Row._make(log.outcomes[target][k])._replace(**fields)))

    handover = log.outcomes[m][k]
    corrupt = [
        replace(log, nb_ho={**log.nb_ho, m: log.nb_ho[m] + 1}),
        broken(m, k, action="stay"),  # the handover count no longer matches
        broken(m, k + 1, c_asso=0.5, c_best=0.4),  # a scored row in the switching step
        broken(m, k + 1, associated=handover[0]),  # handover kept the AP
        broken(*suppressed, c_best=0.0),  # suppressed without the base rule firing
        broken(*suppressed, c_asso=float(len(config.criteria))),
        # equal values in other types: a row is a plain tuple of five
        # fields, a log's column a tuple of rows
        replace(log, outcomes={**log.outcomes, m: list(log.outcomes[m])}),
        swapped(m, k, Row._make(handover)),
        swapped(m, k, handover + (None,)),
        broken(m, k, c_best=np.float64(handover[3])),
        broken(m, k, suppressed=0),
    ]
    if after.associated is not None:
        # an AP change at a step that follows no handover or re-join
        corrupt.append(broken(m, k + 2, associated=handover[0]))
    for bad in corrupt:
        with pytest.raises(AssertionError):
            check_log(bad)


def odd_load_qos(ap, load):
    """``ap_qos`` with one key more on ``apB`` while it serves an odd number
    of users: a model whose vector length changes with load."""
    qos = ap_qos(ap, load)
    if ap.id == "apB" and load % 2:
        return {**qos, "pilot": 1.0}
    return qos


def test_jitter_needs_one_vector_length_per_ap(tiny_config):
    # each AP takes a fixed share of every step's noise, so with jitter on a
    # model whose vector length changes with load is refused, naming the
    # AP, inside a scope as outside one; without jitter it runs
    config = with_strategy(tiny_config, "randomized_wait", 3.0)
    jittered = replace(config, qos_jitter_sigma=1.0)
    log = run_simulation(config, 1, qos_model=odd_load_qos)
    check_log(log)
    with pytest.raises(ValueError, match="'apB'"):
        run_simulation(jittered, 1, qos_model=odd_load_qos)
    with shared_worlds():
        assert events_csv(run_simulation(config, 1, qos_model=odd_load_qos)) == events_csv(log)
        with pytest.raises(ValueError, match="'apB'"):
            run_simulation(jittered, 1, qos_model=odd_load_qos)
        with pytest.raises(ValueError, match="'apB'"):
            run_simulation(with_strategy(jittered, "hysteresis", 0.05), 1, qos_model=odd_load_qos)
