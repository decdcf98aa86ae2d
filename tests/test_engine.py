from dataclasses import replace

import pytest

from hodsim.engine import events_csv, run_simulation, _stream
from hodsim.radio import ap_qos
from hodsim.scenario import load_scenario, with_strategy

from conftest import tiny_document
from logcheck import check_log


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
        outs = log.outcomes[mt]
        for k, o in enumerate(outs):
            if o.action == "handover" and k + 1 < len(outs):
                assert outs[k + 1].associated is not None
                assert outs[k + 1].associated != o.associated
                switched += 1
    assert switched > 0, "seed chosen to produce at least one handover"


def test_nb_ho_matches_handover_actions(tiny_config):
    log = run_simulation(tiny_config, 5)
    for mt in log.mt_ids:
        assert log.nb_ho[mt] == sum(1 for o in log.outcomes[mt] if o.action == "handover")


def test_margin_wider_than_score_range_freezes_associations(tiny_config):
    # combined scores live in [0, k) for k criteria, so a margin of k can
    # never be cleared
    k = len(tiny_config.criteria)
    frozen = with_strategy(tiny_config, "hysteresis", float(k))
    log = run_simulation(frozen, 1)
    assert all(count == 0 for count in log.nb_ho.values())
    for mt in log.mt_ids:
        column = {o.associated for o in log.outcomes[mt]}
        assert len(column) == 1 and None not in column


def test_association_intervals_contiguous(tiny_config):
    # the associated column is the association history: in an always-covered
    # world it has no gap, up to and including the last step
    log = run_simulation(tiny_config, 8)
    assert sum(log.nb_ho.values()) > 0
    for mt in log.mt_ids:
        assert all(o.associated is not None for o in log.outcomes[mt])


def test_switching_step_scores_zero_with_cost():
    doc = tiny_document(handover_cost_steps=1)
    log = run_simulation(load_scenario(doc), 2)
    costed = 0
    for mt in log.mt_ids:
        outs = log.outcomes[mt]
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
        for k, o in enumerate(log.outcomes[mt])
        if o.action == "handover" and k + 1 < len(log.outcomes[mt])
    ]
    assert switch_steps
    assert any(log.outcomes[mt][k].c_asso > 0 for mt, k in switch_steps)


def knowledge_spy(monkeypatch):
    """Record every QoS record a decision reads from a terminal's knowledge.

    The engine reads knowledge only through the views knowledge.known
    builds; each view is wrapped so that every lookup is logged as
    (AP id, QoS vector or None when the AP is not known).
    """
    import hodsim.engine

    lookups = []
    known = hodsim.engine.known

    class RecordingView(dict):
        def get(self, ap_id, default=None):
            qos = dict.get(self, ap_id, default)
            lookups.append((ap_id, qos))
            return qos

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
        lookups.clear()

        def spying_model(ap, load):
            out = ap_qos(ap, load)
            modelled[id(out)] = (ap.id, out)
            if not jittered:
                offered.setdefault(ap.id, []).append(dict(out))
            return out

        def spying_jitter(vectors, sigma, rng):
            # the engine jitters, once per step, the vector the model gave
            # for each AP, in AP id order; the i-th output is the i-th AP's
            out = apply_jitter(vectors, sigma, rng)
            ap_ids = [modelled[id(qos)][0] for qos in vectors]
            assert ap_ids == sorted(ap.id for ap in config.aps)
            for ap_id, jittered in zip(ap_ids, out):
                offered.setdefault(ap_id, []).append(dict(jittered))
            return out

        monkeypatch.setattr(hodsim.engine, "apply_jitter", spying_jitter)
        run_simulation(config, 4, qos_model=spying_model)
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
    associated = sum(o.associated is not None for m in log.mt_ids for o in log.outcomes[m])
    assert len(keys) < read - associated


def test_stationary_users_hold_their_association(tiny_config):
    log = run_simulation(tiny_config, 1)
    # stationary users are not logged as terminals
    assert set(log.mt_ids) == {"m0", "m1"}


def test_world_without_mobile_terminals_runs():
    doc = tiny_document(mobility_ratio=0.0, qos_jitter_sigma=1.0)
    for user in doc["users"]:
        user["mobile"] = False
    log = run_simulation(load_scenario(doc), 2)
    assert log.mt_ids == [] and log.outcomes == {}
    assert events_csv(log).count("\n") == 2


def test_terminal_outside_all_coverage_is_logged_not_fatal():
    doc = tiny_document()
    for ap in doc["aps"]:
        ap["coverage_radius"] = 12.0
    # m0 starts far from both small disks
    doc["users"][0]["initial_position"] = [99.0, 1.0]
    log = run_simulation(load_scenario(doc), 6)
    first = log.outcomes["m0"][0]
    assert first.associated is None
    assert first.c_asso == 0.0 and first.action == "stay"
    assert len(log.outcomes["m0"]) == log.nb_steps
    # an unassociated step never contributes score
    for o in log.outcomes["m0"]:
        if o.associated is None:
            assert o.c_asso == 0.0
    # coverage loss ends an association without counting a handover
    for mt in log.mt_ids:
        assert log.nb_ho[mt] == sum(1 for o in log.outcomes[mt] if o.action == "handover")


def test_streams_are_independent_and_stable():
    a1 = _stream(1, "mobility", "m0").uniform(size=4).tolist()
    a2 = _stream(1, "mobility", "m0").uniform(size=4).tolist()
    b = _stream(1, "mobility", "m1").uniform(size=4).tolist()
    c = _stream(1, "strategy", "m0").uniform(size=4).tolist()
    assert a1 == a2
    assert a1 != b
    assert a1 != c


def test_event_log_holds_exactly_the_csv_fields(tiny_config):
    # time and terminal id come from the row's position; the outcome holds
    # the other five columns
    from hodsim.engine import DecisionOutcome

    assert DecisionOutcome._fields == ("associated", "action", "c_asso", "c_best", "suppressed")
    log = run_simulation(tiny_config, 2)
    rows = iter(events_csv(log).splitlines()[2:])
    for k in range(log.nb_steps):
        for mt in log.mt_ids:
            o = log.outcomes[mt][k]
            assert next(rows).split(",") == [
                repr(k * tiny_config.decision_step), mt, o.associated or "", o.action,
                repr(o.c_asso), repr(o.c_best), str(int(o.suppressed))]
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


def test_check_log_rejects_broken_logs(default_config):
    # a switching step after each handover, and both handovers and
    # suppressions in the log
    config = replace(with_strategy(default_config, "hysteresis", 0.05), handover_cost_steps=1)
    log = run_simulation(config, 1)
    check_log(log)
    m, k = next((m, k) for m in log.mt_ids for k, o in enumerate(log.outcomes[m][:-2])
                if o.action == "handover")
    suppressed = next((m, k) for m in log.mt_ids for k, o in enumerate(log.outcomes[m])
                      if o.suppressed)
    after = log.outcomes[m][k + 1]

    def broken(target, k, **fields):
        rows = {mt: list(r) for mt, r in log.outcomes.items()}
        rows[target][k] = rows[target][k]._replace(**fields)
        return replace(log, outcomes=rows, nb_ho=dict(log.nb_ho))

    corrupt = [
        replace(log, nb_ho={**log.nb_ho, m: log.nb_ho[m] + 1}),
        broken(m, k, action="stay"),  # the handover count no longer matches
        broken(m, k + 1, c_asso=0.5, c_best=0.4),  # a scored row in the switching step
        broken(m, k + 1, associated=log.outcomes[m][k].associated),  # handover kept the AP
        broken(*suppressed, c_best=0.0),  # suppressed without the base rule firing
        broken(*suppressed, c_asso=float(len(config.criteria))),
    ]
    if after.associated is not None:
        # an AP change at a step that follows no handover or re-join
        corrupt.append(broken(m, k + 2, associated=log.outcomes[m][k].associated))
    for bad in corrupt:
        with pytest.raises(AssertionError):
            check_log(bad)
