import json
import tracemalloc
from dataclasses import fields

import pytest

from hodsim.cli import MAX_GRID_VALUES, apply_override, main, parse_values
from hodsim.scenario import ScenarioError, load_scenario

from conftest import tiny_document


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(tiny_document()))
    return str(path)


def test_parse_values_inclusive_grid():
    values = parse_values("0:1:0.05")
    assert len(values) == 21
    assert values[0] == 0.0 and values[-1] == 1.0


def test_parse_values_rejects_garbage():
    with pytest.raises(ScenarioError):
        parse_values("1:0:-1")
    with pytest.raises(ScenarioError):
        parse_values("nope")


@pytest.mark.parametrize("grid", ["0:nan:0.1", "nan:1:0.1", "0:1:nan", "0:inf:1",
                                  "-inf:0:1", "0:1:inf"])
def test_parse_values_rejects_non_finite(grid):
    with pytest.raises(ScenarioError, match="--values"):
        parse_values(grid)


def test_parse_values_caps_the_grid_without_building_it():
    tracemalloc.start()
    try:
        with pytest.raises(ScenarioError, match="--values"):
            parse_values("0:1:1e-12")  # about 1e12 values
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert len(parse_values(f"1:{MAX_GRID_VALUES}:1")) == MAX_GRID_VALUES
    with pytest.raises(ScenarioError, match="--values"):
        parse_values(f"0:{MAX_GRID_VALUES}:1")
    with pytest.raises(ScenarioError, match="--values"):
        parse_values("0:1e308:1e-308")


def test_parse_values_rejects_steps_below_the_rounding():
    with pytest.raises(ScenarioError, match="repeats"):
        parse_values("0:1e-9:1e-12")


def test_override_sets_nested_key():
    doc = tiny_document()
    apply_override(doc, "strategy.parameter=0.4")
    apply_override(doc, "aps.0.coverage_radius=55")
    assert doc["strategy"]["parameter"] == 0.4
    assert doc["aps"][0]["coverage_radius"] == 55


def test_override_rejects_unknown_key():
    with pytest.raises(ScenarioError, match="unknown config key"):
        apply_override(tiny_document(), "strategy.margin=0.4")


def test_run_writes_events_and_metrics(tmp_path, config_file, capsys):
    rc = main(["run", "--config", config_file, "--out", str(tmp_path / "o"), "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "HO_rate" in out and "Score_rate" in out
    events = (tmp_path / "o" / "events_s1.csv").read_text()
    metrics = (tmp_path / "o" / "metrics_s1.csv").read_text()
    assert events.splitlines()[1].startswith("time,mt,")
    assert metrics.splitlines()[-1].startswith("ALL,")
    # every printed number is present in the metrics CSV
    printed = [tok for tok in out.split() if tok.replace(".", "").isdigit()]
    assert len(printed) >= 2
    for value in printed:
        assert value in metrics
    assert (tmp_path / "o" / "scenario.json").exists()


def test_run_is_reproducible(tmp_path, config_file):
    main(["run", "--config", config_file, "--out", str(tmp_path / "a"), "--seed", "2"])
    main(["run", "--config", config_file, "--out", str(tmp_path / "b"), "--seed", "2"])
    assert (tmp_path / "a" / "events_s2.csv").read_bytes() == \
        (tmp_path / "b" / "events_s2.csv").read_bytes()


def test_run_multiple_seeds(tmp_path, config_file):
    rc = main(["run", "--config", config_file, "--out", str(tmp_path / "o"), "--seeds", "1,2,3"])
    assert rc == 0
    for seed in (1, 2, 3):
        assert (tmp_path / "o" / f"events_s{seed}.csv").exists()


def test_invalid_config_exits_one(tmp_path, capsys):
    doc = tiny_document()
    del doc["rng_seed"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "rng_seed" in capsys.readouterr().err


def test_missing_file_exits_one(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == 1


@pytest.mark.parametrize("make", [
    lambda path: path.mkdir(),
    lambda path: path.write_bytes(b"\xff{}"),
], ids=["directory", "not-utf8"])
def test_unreadable_config_exits_one_naming_the_flag(make, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    make(path)
    assert main(["validate", "--config", str(path)]) == 1
    assert "--config" in capsys.readouterr().err
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    assert "--config" in capsys.readouterr().err
    assert not out.exists()


def test_validate_rejects_the_objectives_key(tmp_path, capsys):
    path = tmp_path / "old.json"
    path.write_text(json.dumps(tiny_document(objectives=[{"id": "application", "weight": 1.0}])))
    assert main(["validate", "--config", str(path)]) == 1
    assert "unknown key(s) ['objectives']" in capsys.readouterr().err


def test_validate_ok(config_file, capsys):
    assert main(["validate", "--config", config_file]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_reports_violations(tmp_path, capsys):
    doc = tiny_document()
    doc["decision_step"] = 0.3
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--config", str(path)]) == 1
    assert "multiple" in capsys.readouterr().err


@pytest.mark.parametrize("assignment, field", [
    ("aps.0.coverage_radius=NaN", "coverage_radius"),
    ("aps.0.position=[NaN,1]", "position"),
    ("criteria.0.alpha=Infinity", "alpha"),
    ("sim_time=Infinity", "sim_time"),
    ("users.0.mobile=\"false\"", "mobile"),
    ("handover_cost_steps=1.7", "handover_cost_steps"),
    ("users.0.id=\"u,0\"", "id"),
])
def test_bad_values_exit_one_naming_the_field(assignment, field, tmp_path, capsys):
    # every path above exists in the built-in scenario's document
    assert main(["validate", "--set", assignment]) == 1
    assert field in capsys.readouterr().err
    assert main(["run", "--set", assignment, "--out", str(tmp_path / "o")]) == 1
    assert field in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, flag", [
    (["run", "--seed", "-1"], "--seed"),
    (["run", "--seeds", "1,-2"], "--seeds"),
    (["sweep", "--values", "0:0.1:0.1", "--seeds", "1,-2"], "--seeds"),
    (["compare", "--strategy-a", "hysteresis", "--strategy-b", "waiting", "--seed", "-3"],
     "--seed"),
])
def test_negative_seeds_exit_one_before_writing(argv, flag, tmp_path, config_file, capsys):
    out = tmp_path / "o"
    assert main(argv + ["--config", config_file, "--out", str(out)]) == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb", [
    ["run"],
    ["sweep", "--values", "0:0.1:0.1"],
    ["compare", "--strategy-a", "hysteresis", "--strategy-b", "waiting"],
])
@pytest.mark.parametrize("seeds", [",", ""])
def test_seed_lists_naming_no_seed_exit_one_before_writing(verb, seeds, tmp_path, config_file,
                                                           capsys):
    out = tmp_path / "o"
    assert main(verb + ["--seeds", seeds, "--config", config_file, "--out", str(out)]) == 1
    assert "--seeds" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["sweep", "--values=-1:1:0.5"], "--values"),
    (["compare", "--strategy-a", "hysteresis", "--strategy-b", "waiting", "--values-b=-2:2:1"],
     "--values-b"),
    (["compare", "--strategy-a", "hysteresis", "--strategy-b", "waiting", "--values-b", "2:1:1"],
     "--values-b"),
    (["compare", "--strategy-a", "none", "--strategy-b", "waiting"], "--strategy-a"),
])
def test_bad_grids_exit_one_naming_their_flag_before_writing(argv, flag, tmp_path, config_file,
                                                             capsys):
    # a strategy parameter is never negative, so a grid starting below 0
    # is a malformed argument, not a failed run
    out = tmp_path / "o"
    assert main(argv + ["--seed", "1", "--config", config_file, "--out", str(out)]) == 1
    assert f"config error: {flag}:" in capsys.readouterr().err
    assert not out.exists()


def test_parse_values_names_the_flag_it_is_given():
    assert parse_values("0:1:0.5", "--values-a") == [0.0, 0.5, 1.0]
    with pytest.raises(ScenarioError, match="^--values-a: strategy parameters must be >= 0"):
        parse_values("-0.5:1:0.5", "--values-a")


def test_set_override_via_cli(tmp_path, config_file):
    rc = main(["run", "--config", config_file, "--out", str(tmp_path / "o"),
               "--seed", "1", "--set", "strategy.kind=hysteresis",
               "--set", "strategy.parameter=0.5"])
    assert rc == 0
    saved = json.loads((tmp_path / "o" / "scenario.json").read_text())
    assert saved["strategy"] == {"kind": "hysteresis", "parameter": 0.5}


def test_set_with_unknown_key_exits_one(tmp_path, config_file, capsys):
    rc = main(["run", "--config", config_file, "--out", str(tmp_path / "o"),
               "--set", "strategy.h=0.5"])
    assert rc == 1


@pytest.mark.parametrize("field, raw, value", [
    ("gate_candidates", "false", False),
    ("max_benefit", "1000", 1000.0),
    ("qos_jitter_sigma", "0.5", 0.5),
])
def test_set_reaches_fields_the_document_leaves_out(field, raw, value, tmp_path, capsys):
    # the built-in scenario's document omits these optional fields
    assert main(["validate", "--set", f"{field}={raw}"]) == 0
    out = tmp_path / "o"
    assert main(["run", "--set", "sim_time=5", "--set", f"{field}={raw}", "--seed", "1",
                 "--out", str(out)]) == 0
    assert json.loads((out / "scenario.json").read_text())[field] == value


@pytest.mark.parametrize("assignment, named", [
    ("qos_jitter=0.5", "'qos_jitter'"),
    ("aps.0.coverage=60", "'coverage'"),
    ("aps.0.base_qos.bw=1", "'bw'"),
    ("aps.99.coverage_radius=60", "'99'"),
    ("users.-53.speed=1", "'-53'"),
])
def test_set_still_rejects_unknown_keys_and_bad_indices(assignment, named, tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["run", "--set", assignment, "--out", str(out)]) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_set_below_a_field_the_document_leaves_out():
    doc = tiny_document()
    del doc["strategy"]
    with pytest.raises(ScenarioError, match="no object or list at 'strategy'"):
        apply_override(doc, "strategy.parameter=0.5")
    with pytest.raises(ScenarioError, match="no object or list at 'sim_time'"):
        apply_override(doc, "sim_time.x=1")
    apply_override(doc, 'strategy={"kind": "hysteresis", "parameter": 0.5}')
    assert load_scenario(doc).strategy.parameter == 0.5


def test_sweep_writes_report_and_recommendation(tmp_path, config_file, capsys):
    rc = main(["sweep", "--config", config_file, "--out", str(tmp_path / "o"),
               "--strategy", "hysteresis", "--values", "0:0.4:0.1",
               "--seeds", "1,2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "recommended" in out
    lines = (tmp_path / "o" / "sweep_hysteresis.csv").read_text().splitlines()
    assert len(lines) == 2 + 5


def test_sweep_grid_gets_zero_baseline(tmp_path, config_file):
    rc = main(["sweep", "--config", config_file, "--out", str(tmp_path / "o"),
               "--strategy", "waiting", "--values", "1:2:0.5", "--seed", "1"])
    assert rc == 0
    lines = (tmp_path / "o" / "sweep_waiting_time.csv").read_text().splitlines()
    assert lines[2].split(",")[0] == "0.0"


def test_compare_emits_side_by_side(tmp_path, config_file, capsys):
    rc = main(["compare", "--config", config_file, "--out", str(tmp_path / "o"),
               "--strategy-a", "hysteresis", "--strategy-b", "waiting",
               "--values-a", "0:0.2:0.1", "--values-b", "0:2:1",
               "--seeds", "1,2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mean HO_rate" in out
    content = (tmp_path / "o" / "compare_hysteresis_vs_waiting_time.csv").read_text()
    assert "hysteresis," in content and "waiting_time," in content


def test_compare_against_itself_matches(tmp_path, config_file):
    rc = main(["compare", "--config", config_file, "--out", str(tmp_path / "o"),
               "--strategy-a", "hysteresis", "--strategy-b", "hysteresis",
               "--values-a", "0:0.2:0.1", "--values-b", "0:0.2:0.1",
               "--seed", "3"])
    assert rc == 0
    lines = (tmp_path / "o" / "compare_hysteresis_vs_hysteresis.csv").read_text().splitlines()
    body = lines[2:]
    half = len(body) // 2
    assert body[:half] == body[half:]


def test_sweep_refuses_parameterless_strategy(tmp_path, config_file, capsys):
    rc = main(["sweep", "--config", config_file, "--out", str(tmp_path / "o"),
               "--strategy", "none", "--seed", "1"])
    assert rc == 1
    assert "cannot sweep" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["run", "--seed", "abc"], "--seed"),
    (["sweep", "--retention", "abc"], "--retention"),
    (["sweep", "--strategy", "bogus"], "--strategy"),
    ([], "verb"),
])
def test_bad_arguments_exit_one_naming_the_flag(argv, flag, capsys):
    assert main(argv) == 1
    assert flag in capsys.readouterr().err


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--help"])
    assert excinfo.value.code == 0
    assert "--retention" in capsys.readouterr().out


@pytest.mark.parametrize("retention", ["nan", "-1", "1.5"])
def test_retention_outside_the_unit_interval_exits_one(retention, tmp_path, config_file, capsys):
    out = tmp_path / "o"
    assert main(["sweep", "--config", config_file, "--out", str(out), "--seed", "1",
                 "--retention", retention]) == 1
    assert "--retention" in capsys.readouterr().err
    assert not out.exists()


def test_repeated_seeds_exit_one(tmp_path, config_file, capsys):
    out = tmp_path / "o"
    assert main(["sweep", "--config", config_file, "--out", str(out), "--seeds", "1,1"]) == 1
    assert "--seeds" in capsys.readouterr().err
    assert not out.exists()


def test_run_writes_the_resolved_scenario(tmp_path):
    doc = tiny_document()
    for key in ("sim_time", "decision_step", "area", "mobility_ratio", "strategy"):
        del doc[key]
    for ap in doc["aps"]:
        del ap["wired_neighbors"]
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    saved = json.loads((tmp_path / "o" / "scenario.json").read_text())
    config = load_scenario(doc)
    assert set(saved) == {f.name for f in fields(config)}
    assert all(set(u) == {f.name for f in fields(config.users[0])} for u in saved["users"])
    assert load_scenario(saved) == config
