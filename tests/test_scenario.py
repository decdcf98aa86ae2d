import copy
import functools
import hashlib
import json
import operator
import re
import typing
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from typing import Dict, Tuple

import pytest

from hodsim import scenario
from hodsim.scenario import (
    MAX_JITTER_AP_STEPS,
    MAX_STEPS,
    MAX_TERMINAL_STEPS,
    ApProfile,
    DecisionCriterion,
    ScenarioConfig,
    ScenarioError,
    StabilityStrategy,
    UserProfile,
    default_document,
    default_scenario,
    load_scenario,
    parse_scenario,
    serialize,
    validate,
)

from conftest import tiny_document


def test_default_scenario_is_valid():
    config = default_scenario()
    assert validate(config) == []


def test_default_timing_gives_150_steps():
    config = load_scenario(default_document())
    assert config.sim_time == 75.0
    assert config.decision_step == 0.5
    assert config.nb_steps == 150
    assert load_scenario(tiny_document(decision_step=0.25)).nb_steps == 40


def test_mobility_ratio_reported():
    config = default_scenario()
    assert sum(1 for u in config.users if u.mobile) == 14
    assert len(config.users) == 52
    assert round(sum(u.mobile for u in config.users) / len(config.users), 3) == 0.269


def test_missing_rng_seed_names_field():
    doc = default_document()
    del doc["rng_seed"]
    with pytest.raises(ScenarioError, match="rng_seed"):
        load_scenario(doc)


def test_missing_users_names_field():
    doc = default_document()
    del doc["users"]
    with pytest.raises(ScenarioError, match="users"):
        load_scenario(doc)


def test_unknown_top_level_key_rejected():
    doc = default_document()
    doc["sim_timee"] = 75
    with pytest.raises(ScenarioError, match="sim_timee"):
        load_scenario(doc)


def test_unknown_nested_key_rejected():
    doc = default_document()
    doc["aps"][0]["coverage"] = 10
    with pytest.raises(ScenarioError, match="coverage"):
        load_scenario(doc)


def test_malformed_json_is_parse_error():
    with pytest.raises(ScenarioError, match="parse error"):
        load_scenario("{not json")


def test_objectives_key_is_rejected():
    # a network is scored by its utility sum alone; a document written for
    # the weighted objectives must drop the key rather than run unchanged
    doc = tiny_document(objectives=[{"id": "application", "weight": 1.0}])
    with pytest.raises(ScenarioError, match=r"config: unknown key\(s\) \['objectives'\]"):
        load_scenario(doc)


def test_sim_time_must_be_multiple_of_step():
    doc = default_document()
    doc["decision_step"] = 0.4
    with pytest.raises(ScenarioError, match="multiple"):
        load_scenario(doc)
    # a step longer than the run leaves no whole step
    with pytest.raises(ScenarioError, match="multiple"):
        load_scenario(tiny_document(decision_step=20.0, diffusion_period=20.0))


def test_validate_bounds_a_runs_size():
    # a run's arrays and rows grow with its steps and its mobile terminals x
    # steps, so both are bounded before anything is allocated
    config = load_scenario(tiny_document())
    dt = config.decision_step
    assert validate(replace(config, sim_time=MAX_STEPS * dt)) == []
    too_long = "sim_time: sim_time / decision_step gives more than 100000 steps"
    for sim_time in ((MAX_STEPS + 1) * dt, 1e18, 1e300, 1e308):
        assert validate(replace(config, sim_time=sim_time)) == [too_long]
    # 50 mobile of 100 users
    crowd = replace(config, users=tuple(replace(u, id=f"{u.id}_{j}")
                                        for j in range(25) for u in config.users))
    steps = MAX_TERMINAL_STEPS // 50
    assert validate(replace(crowd, sim_time=steps * dt)) == []
    assert validate(replace(crowd, sim_time=(steps + 1) * dt)) == [
        f"sim_time: 50 mobile users x {steps + 1} steps (sim_time / decision_step) "
        f"is more than {MAX_TERMINAL_STEPS}"]
    # with jitter on, 40 APs x steps
    wide = replace(config, qos_jitter_sigma=0.5, aps=tuple(
        replace(config.aps[0], id=f"x{j}", wired_neighbors=()) for j in range(40)))
    steps = MAX_JITTER_AP_STEPS // 40
    assert validate(replace(wide, sim_time=steps * dt)) == []
    assert validate(replace(wide, sim_time=(steps + 1) * dt)) == [
        f"qos_jitter_sigma: with jitter on, 40 APs x {steps + 1} steps "
        f"is more than {MAX_JITTER_AP_STEPS}"]
    assert validate(replace(wide, sim_time=(steps + 1) * dt, qos_jitter_sigma=0.0)) == []


def test_validate_survives_a_step_ratio_beyond_the_float_range():
    # sim_time or diffusion_period over a tiny decision_step overflows to inf
    config = replace(load_scenario(tiny_document()), decision_step=1e-3)
    assert validate(replace(config, sim_time=1e308)) == [
        "sim_time: sim_time / decision_step gives more than 100000 steps"]
    assert validate(replace(config, sim_time=1.0, diffusion_period=1e308)) == [
        "diffusion_period: not an integer multiple of decision_step"]


def test_mobility_ratio_enforced_within_one_user():
    doc = tiny_document()
    doc["mobility_ratio"] = 0.9  # 2 mobile of 4 is not within one user of 3.6
    with pytest.raises(ScenarioError, match="mobility_ratio"):
        load_scenario(doc)


def test_neighbor_symmetry_checked():
    doc = tiny_document()
    doc["aps"][1]["wired_neighbors"] = []
    with pytest.raises(ScenarioError, match="symmetric"):
        load_scenario(doc)


def test_unknown_neighbor_checked():
    doc = tiny_document()
    doc["aps"][0]["wired_neighbors"] = ["nosuch"]
    with pytest.raises(ScenarioError, match="nosuch"):
        load_scenario(doc)


def test_qos_keys_must_match_criteria():
    doc = tiny_document()
    doc["aps"][0]["base_qos"] = {"bandwidth": 54.0}
    with pytest.raises(ScenarioError, match="base_qos"):
        load_scenario(doc)


def test_alpha_must_be_positive():
    doc = tiny_document()
    doc["criteria"][0]["alpha"] = 0.0
    with pytest.raises(ScenarioError, match="alpha"):
        load_scenario(doc)


def test_strategy_kind_checked():
    doc = tiny_document(strategy={"kind": "magic", "parameter": 1.0})
    with pytest.raises(ScenarioError, match="strategy.kind"):
        load_scenario(doc)


def test_defaults_applied_for_absent_fields():
    doc = tiny_document()
    for user in doc["users"]:
        user.pop("speed", None)
        user.pop("pause_range", None)
        user.pop("app_requirements", None)
    config = load_scenario(doc)
    mobile = next(u for u in config.users if u.mobile)
    assert mobile.speed == 0.8
    assert mobile.pause_range == (1.0, 5.0)
    assert mobile.app_requirements == {"bandwidth": 0.0, "delay": 0.0}
    assert config.diffusion_period == config.decision_step
    assert config.handover_cost_steps == 1
    assert config.gate_candidates is True


def test_serialize_keys_follow_field_order():
    doc = serialize(default_scenario())

    def names(cls):
        return [f.name for f in fields(cls)]

    assert list(doc) == names(ScenarioConfig)
    assert list(doc["strategy"]) == names(StabilityStrategy)
    for key, cls in (("aps", ApProfile), ("users", UserProfile), ("criteria", DecisionCriterion)):
        assert doc[key] and all(list(obj) == names(cls) for obj in doc[key])


def test_serialize_round_trip_is_identity():
    config = default_scenario()
    assert load_scenario(serialize(config)) == config
    # and through actual JSON text
    assert load_scenario(json.dumps(serialize(config))) == config


def test_validate_after_load_is_empty():
    assert validate(load_scenario(tiny_document())) == []


def test_validate_collects_violations_without_raising():
    from dataclasses import replace

    config = load_scenario(tiny_document())
    broken = replace(config, sim_time=75.0, decision_step=0.4)
    messages = validate(broken)
    assert any("multiple" in m for m in messages)


INTEGER_MESSAGES = {
    "handover_cost_steps": "must be a non-negative integer",
    "rng_seed": "must be a non-negative integer below 2**64",
}


@pytest.mark.parametrize("field", list(INTEGER_MESSAGES))
def test_validate_rejects_a_bool_where_an_integer_is_expected(field):
    # bool is a subclass of int, but True is not a count or a seed
    from dataclasses import replace

    messages = validate(replace(default_scenario(), **{field: True}))
    assert messages == [f"{field}: {INTEGER_MESSAGES[field]}"]


@pytest.mark.parametrize("seed, valid", [(2 ** 64 - 1, True), (2 ** 64, False), (10 ** 30, False)])
def test_rng_seed_is_below_two_to_the_64(seed, valid):
    # a seed names output files, so an unbounded one could name none
    from dataclasses import replace

    messages = validate(replace(default_scenario(), rng_seed=seed))
    assert messages == ([] if valid else [f"rng_seed: {INTEGER_MESSAGES['rng_seed']}"])


def set_path(doc, path, value):
    """Set a dot path such as "aps.0.position" in a raw document."""
    keys = [int(k) if k.isdigit() else k for k in path.split(".")]
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value


@pytest.mark.parametrize("path, value, field", [
    ("aps.0.coverage_radius", float("nan"), "coverage_radius"),
    ("aps.0.position", [float("nan"), 1.0], "position"),
    ("criteria.0.alpha", float("inf"), "alpha"),
    ("sim_time", float("inf"), "sim_time"),
    ("decision_step", float("nan"), "decision_step"),
    ("users.0.pause_range", [1.0, float("inf")], "pause_range"),
    ("aps.1.base_qos.delay", float("nan"), "base_qos"),
    ("strategy.parameter", float("inf"), "strategy.parameter"),
])
def test_nonfinite_numbers_rejected(path, value, field):
    doc = tiny_document()
    set_path(doc, path, value)
    with pytest.raises(ScenarioError, match=field) as excinfo:
        load_scenario(doc)
    assert "finite" in str(excinfo.value)
    # the same document as JSON text, where NaN and Infinity are literals
    with pytest.raises(ScenarioError, match=field):
        load_scenario(json.dumps(doc))



def _float_variants(obj, value, where=""):
    """(path, copy) for each field of dataclass ``obj`` that holds floats, the
    copy with that field, or one component of its pair or map, set to
    ``value``.  Fields are found from the type hints alone; nested dataclasses,
    single or in a tuple, are walked."""
    for name, hint in typing.get_type_hints(type(obj)).items():
        current = getattr(obj, name)
        if hint is float:
            yield where + name, replace(obj, **{name: value})
        elif hint == Tuple[float, float]:
            yield where + name, replace(obj, **{name: (current[0], value)})
        elif hint == Dict[str, float]:
            yield where + name, replace(obj, **{name: {**current, next(iter(current)): value}})
        elif is_dataclass(hint):
            for path, inner in _float_variants(current, value, f"{where}{name}."):
                yield path, replace(obj, **{name: inner})
        elif typing.get_origin(hint) is tuple and is_dataclass(typing.get_args(hint)[0]):
            for i, item in enumerate(current):
                for path, inner in _float_variants(item, value, f"{where}{name}[{item.id}]."):
                    yield path, replace(obj, **{name: current[:i] + (inner,) + current[i + 1:]})
        else:  # a new shape holding floats must be added above, not skipped
            assert "float" not in str(hint), (where + name, hint)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_every_float_field_must_be_finite(tiny_config, value):
    paths = set()
    for path, config in _float_variants(tiny_config, value):
        assert f"{path}: must be finite" in validate(config)
        paths.add(path)
    assert {"area", "strategy.parameter", "criteria[delay].alpha",
            "aps[apB].base_qos", "users[s1].pause_range"} <= paths

@pytest.mark.parametrize("path, value, field", [
    ("users.0.mobile", "false", "mobile"),
    ("users.0.mobile", 1, "mobile"),
    ("gate_candidates", "yes", "gate_candidates"),
    ("handover_cost_steps", 1.7, "handover_cost_steps"),
    ("handover_cost_steps", True, "handover_cost_steps"),
    ("rng_seed", 1.5, "rng_seed"),
    ("rng_seed", "7", "rng_seed"),
    ("sim_time", "10", "sim_time"),
    ("aps.0.base_qos.bandwidth", None, "bandwidth"),
    ("users.0.id", "m,0", r"\.id"),
    ("users.0.id", "", r"\.id"),
    ("aps.0.id", "ap\nA", r"\.id"),
    ("aps.0.id", 5, r"\.id"),
    ("aps", 5, "aps"),
    ("area", [10 ** 400, 50.0], "area"),
])
def test_values_are_parsed_with_types(path, value, field):
    doc = tiny_document()
    set_path(doc, path, value)
    with pytest.raises(ScenarioError, match=field):
        load_scenario(doc)


def test_integral_numbers_accepted_where_floats_expected():
    doc = tiny_document(sim_time=10, decision_step=1)
    doc["aps"][0]["coverage_radius"] = 90
    config = load_scenario(doc)
    assert config.sim_time == 10.0 and isinstance(config.sim_time, float)
    assert config.nb_steps == 10


# --- Golden of parse outcomes -------------------------------------------------
#
# Every key path of tiny_document(), containers included, set in turn to each
# value below, and every object key removed in turn: the outcome of
# parse_scenario (the error text, or "ok" and the parsed config) for each of
# these single-fault documents, hashed in order.  A document with several
# faults may report another of them first; only single faults are pinned.

BAD_VALUES = [None, "x", [], {}, True, 1.5, 10 ** 400]
PARSE_OUTCOMES = "6a6f0e3780d4aa05"


def _key_paths(node, prefix=()):
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in children:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _key_paths(child, prefix + (key,))


def _parse_outcome(doc) -> str:
    try:
        return f"ok {parse_scenario(doc)!r}"
    except ScenarioError as exc:
        return str(exc)


def _with_fault(base, path, *value):
    """A copy of ``base`` with ``path`` set to the one ``value``, or removed."""
    doc = copy.deepcopy(base)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value:
        node[path[-1]] = value[0]
    else:
        del node[path[-1]]
    return doc


def _parse_outcome_lines():
    base = tiny_document()
    for path in _key_paths(base):
        where = ".".join(str(k) for k in path)
        for value in BAD_VALUES:
            yield f"{where}={value!r:.20}: {_parse_outcome(_with_fault(base, path, value))}"
        if isinstance(path[-1], str):
            yield f"{where} removed: {_parse_outcome(_with_fault(base, path))}"


def test_single_fault_parse_outcomes_are_pinned():
    text = "\n".join(_parse_outcome_lines())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest()[:16] == PARSE_OUTCOMES



# --- Golden of validate outcomes ----------------------------------------------
#
# Every numeric leaf of tiny_document() with every optional number explicit,
# set in turn to each value below: the parse error, or else the sorted
# messages of validate, for each of these single-fault documents, hashed in
# order.  Sorted, because validate promises which messages, not their order.

EDGE_NUMBERS = [float("nan"), float("inf"), float("-inf"), -1.0, 0.0, 1e308, 5e-324, 0.5]
VALIDATE_OUTCOMES = "27a65ce9b7179322"


def _validate_outcome(doc) -> str:
    try:
        config = parse_scenario(doc)
    except ScenarioError as exc:
        return str(exc)
    return " | ".join(sorted(validate(config)))


def _validate_outcome_lines():
    base = tiny_document(diffusion_period=0.5, max_benefit=1e6, qos_jitter_sigma=0.0,
                         handover_cost_steps=1)
    for user in base["users"]:
        user.update(speed=0.8, pause_range=[1.0, 5.0],
                    app_requirements={"bandwidth": 0.0, "delay": 0.0})
    for path in _key_paths(base):
        leaf = functools.reduce(operator.getitem, path, base)
        if isinstance(leaf, (int, float)) and not isinstance(leaf, bool):
            where = ".".join(str(k) for k in path)
            for value in EDGE_NUMBERS:
                yield f"{where}={value!r}: {_validate_outcome(_with_fault(base, path, value))}"


def test_single_fault_validate_outcomes_are_pinned():
    lines = list(_validate_outcome_lines())
    assert len(lines) == 51 * len(EDGE_NUMBERS)
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest()[:16] == VALIDATE_OUTCOMES

def _documented_fields(heading: str) -> set:
    """First-column field names of the table under ``heading`` in docs/config.md."""
    text = (Path(__file__).parent.parent / "docs" / "config.md").read_text()
    section = text.split(f"\n{heading}\n", 1)[1].split("\n#", 1)[0]
    return {m.group(1) for m in re.finditer(r"^\| `(\w+)` \|", section, re.MULTILINE)}


@pytest.mark.parametrize("cls, table", [
    (ScenarioConfig, scenario._CONFIG_FIELDS),
    (DecisionCriterion, scenario._CRITERION_FIELDS),
    (StabilityStrategy, scenario._STRATEGY_FIELDS),
    (ApProfile, scenario._AP_FIELDS),
    (UserProfile, scenario._USER_FIELDS),
])
def test_each_field_table_lists_its_dataclass_fields(cls, table):
    assert list(table) == [f.name for f in fields(cls)]


def test_each_rule_names_a_field_of_its_table():
    for table, rules in ((scenario._CONFIG_FIELDS, scenario._CONFIG_RULES),
                         (scenario._CRITERION_FIELDS, scenario._CRITERION_RULES),
                         (scenario._STRATEGY_FIELDS, scenario._STRATEGY_RULES),
                         (scenario._AP_FIELDS, scenario._AP_RULES),
                         (scenario._USER_FIELDS, scenario._USER_RULES)):
        assert {name for name, _, _ in rules} <= set(table)


@pytest.mark.parametrize("heading, table", [
    ("## Top-level fields", scenario._CONFIG_FIELDS),
    ("## `criteria[]`", scenario._CRITERION_FIELDS),
    ("## `aps[]`", scenario._AP_FIELDS),
    ("## `users[]`", scenario._USER_FIELDS),
])
def test_documented_fields_are_the_parsed_keys(heading, table):
    assert _documented_fields(heading) == set(table)
