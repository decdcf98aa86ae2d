import copy
import io
import json
import re
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import hodsim.cli
import hodsim.engine
import hodsim.metrics
from hodsim.cli import MAX_GRID_VALUES, apply_override, main, parse_values
from hodsim.engine import events_csv, run_simulation
from hodsim.scenario import DOCUMENT_KEYS, ScenarioError, default_document, load_scenario

from conftest import tiny_document
from logcheck import check_log
from test_boundary import _paths


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
    rc = main(["run", "--config", config_file, "--out", str(tmp_path / "o"), "--seeds", "1"])
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
    main(["run", "--config", config_file, "--out", str(tmp_path / "a"), "--seeds", "2"])
    main(["run", "--config", config_file, "--out", str(tmp_path / "b"), "--seeds", "2"])
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
    # a quote would open a quoted CSV field that runs to the end of the file
    ("users.0.id=\"\\\"u00\"", "users['\"u00'].id"),
    # the metrics CSV's summary row is named ALL
    ("users.0.id=\"ALL\"", "users[ALL].id"),
])
def test_bad_values_exit_one_naming_the_field(assignment, field, tmp_path, capsys):
    # every path above exists in the built-in scenario's document
    assert main(["validate", "--set", assignment]) == 1
    assert field in capsys.readouterr().err
    assert main(["run", "--set", assignment, "--out", str(tmp_path / "o")]) == 1
    assert field in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("verb", [
    ["validate"],
    ["run"],
    ["sweep", "--values", "0:0.1:0.1"],
    ["compare", "--strategy-a", "hysteresis", "--strategy-b", "waiting_time"],
])
def test_a_scenario_without_mobile_users_exits_one_before_writing(verb, tmp_path, capsys):
    # the built-in scenario made static: its 14 mobile users, u00-u13, stay put
    static = ["--set", "mobility_ratio=0"]
    for i in range(14):
        static += ["--set", f"users.{i}.mobile=false"]
    out = [] if verb == ["validate"] else ["--out", str(tmp_path / "o")]
    assert main(verb + static + out) == 1
    assert "users: at least one mobile user required" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("assignments", [
    ["sim_time=1e300"],
    ["sim_time=1e18"],
    ["sim_time=1e308", "decision_step=0.001"],
    ["diffusion_period=1e308", "decision_step=0.001"],
])
def test_a_run_too_large_to_hold_exits_one_before_any_allocation(assignments, tmp_path, capsys,
                                                                  monkeypatch):
    # these documents validated (or crashed validate) and then ended with
    # exit 2, from np.empty in the world pass or an overflow in validate
    def refused(config, seed, index):
        raise AssertionError("a world pass started")

    monkeypatch.setattr(hodsim.engine, "_world", refused)
    sets = [arg for a in assignments for arg in ("--set", a)]
    field = assignments[0].split("=")[0]
    assert main(["validate"] + sets) == 1
    assert field in capsys.readouterr().err
    tracemalloc.start()
    try:
        assert main(["run"] + sets + ["--out", str(tmp_path / "o")]) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err and "decision_step" in err
    assert peak < 2 ** 22 and not (tmp_path / "o").exists()


def test_a_jittered_run_with_too_many_ap_steps_exits_one_before_any_allocation(
        tmp_path, capsys, monkeypatch):
    # jitter keeps ~0.6 KB per AP and step, so 40 APs x 100,000 steps is
    # refused although the step and terminal-step counts are in bounds
    def refused(config, seed, index):
        raise AssertionError("a world pass started")

    monkeypatch.setattr(hodsim.engine, "_world", refused)
    doc = tiny_document(sim_time=50_000.0, qos_jitter_sigma=0.5)
    doc["aps"] += [dict(doc["aps"][0], id=f"x{j}", wired_neighbors=[]) for j in range(38)]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--config", str(path)]) == 1
    assert "qos_jitter_sigma: with jitter on, 40 APs x 100000 steps" in capsys.readouterr().err
    tracemalloc.start()
    try:
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "qos_jitter_sigma" in err
    assert peak < 2 ** 22 and not (tmp_path / "o").exists()
    # without jitter the same document is in bounds
    assert main(["validate", "--config", str(path), "--set", "qos_jitter_sigma=0"]) == 0


@pytest.mark.parametrize("argv, flag", [
    (["run", "--seeds", "-1"], "--seeds"),
    (["run", "--seeds", "1,-2"], "--seeds"),
    (["sweep", "--values", "0:0.1:0.1", "--seeds", "1,-2"], "--seeds"),
    (["compare", "--strategy-a", "hysteresis", "--strategy-b", "waiting_time", "--seeds", "-3"],
     "--seeds"),
    # int() would read these as 10, 3 and 4
    (["run", "--set", "sim_time=1", "--seeds", "1_0,+3, \u0664"], "--seeds"),
    # int() refuses more than 4,300 digits with a ValueError
    (["run", "--seeds", "1" * 5000], "--seeds"),
    # a seed names its output files, so it is below 2**64
    (["run", "--seeds", str(2 ** 64)], "--seeds"),
    (["sweep", "--values", "0:0.1:0.1", "--seeds", "1," + "1" * 300], "--seeds"),
    (["run", "--set", f"rng_seed={2 ** 64}"], "rng_seed"),
])
def test_negative_seeds_exit_one_before_writing(argv, flag, tmp_path, config_file, capsys):
    out = tmp_path / "o"
    assert main(argv + ["--config", config_file, "--out", str(out)]) == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_the_largest_seed_runs(tmp_path, config_file, capsys):
    out = tmp_path / "o"
    seed = 2 ** 64 - 1
    assert main(["run", "--seeds", str(seed), "--set", "sim_time=1", "--config", config_file,
                 "--out", str(out)]) == 0
    assert (out / f"events_s{seed}.csv").exists()


@pytest.mark.parametrize("verb", [
    ["run"],
    ["sweep", "--values", "0:0.1:0.1"],
    ["compare", "--strategy-a", "hysteresis", "--strategy-b", "waiting_time"],
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
    (["compare", "--strategy-a", "hysteresis", "--strategy-b", "waiting_time",
      "--values-b=-2:2:1"], "--values-b"),
    (["compare", "--strategy-a", "hysteresis", "--strategy-b", "waiting_time",
      "--values-b", "2:1:1"], "--values-b"),
    # float() would read the stop as 0.1
    (["sweep", "--values", "0:0.1_0:0.5"], "--values"),
])
def test_bad_grids_exit_one_naming_their_flag_before_writing(argv, flag, tmp_path, config_file,
                                                             capsys):
    # a strategy parameter is never negative, so a grid starting below 0
    # is a malformed argument, not a failed run
    out = tmp_path / "o"
    assert main(argv + ["--seeds", "1", "--config", config_file, "--out", str(out)]) == 1
    assert f"config error: {flag}:" in capsys.readouterr().err
    assert not out.exists()


def test_parse_values_names_the_flag_it_is_given():
    assert parse_values("0:1:0.5", "--values-a") == [0.0, 0.5, 1.0]
    with pytest.raises(ScenarioError, match="^--values-a: strategy parameters must be >= 0"):
        parse_values("-0.5:1:0.5", "--values-a")


def test_set_override_via_cli(tmp_path, config_file):
    rc = main(["run", "--config", config_file, "--out", str(tmp_path / "o"),
               "--seeds", "1", "--set", "strategy.kind=hysteresis",
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
    assert main(["run", "--set", "sim_time=5", "--set", f"{field}={raw}", "--seeds", "1",
                 "--out", str(out)]) == 0
    assert json.loads((out / "scenario.json").read_text())[field] == value


@pytest.mark.parametrize("assignment, named", [
    ("qos_jitter=0.5", "'qos_jitter'"),
    ("aps.0.coverage=60", "'coverage'"),
    ("aps.0.base_qos.bw=1", "'bw'"),
    ("aps.99.coverage_radius=60", "'99'"),
    ("users.-53.speed=1", "'-53'"),
    # a list index is plain digits, never read from the end or by int()'s leniency
    ("users.-1.speed=1", "bad list index '-1'"),
    ("aps.-9.coverage_radius=60", "bad list index '-9'"),
    ("users.+1.speed=1", "bad list index '+1'"),
    ("users. 1.speed=1", "bad list index ' 1'"),
    ("users.1_0.speed=1", "bad list index '1_0'"),
    ("users.\u0661.speed=1", "bad list index"),
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
               "--strategy", "waiting_time", "--values", "1:2:0.5", "--seeds", "1"])
    assert rc == 0
    lines = (tmp_path / "o" / "sweep_waiting_time.csv").read_text().splitlines()
    assert lines[2].split(",")[0] == "0.0"


def test_compare_emits_side_by_side(tmp_path, config_file, capsys):
    rc = main(["compare", "--config", config_file, "--out", str(tmp_path / "o"),
               "--strategy-a", "hysteresis", "--strategy-b", "waiting_time",
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
               "--seeds", "3"])
    assert rc == 0
    lines = (tmp_path / "o" / "compare_hysteresis_vs_hysteresis.csv").read_text().splitlines()
    body = lines[2:]
    half = len(body) // 2
    assert body[:half] == body[half:]


def test_sweep_refuses_parameterless_strategy(tmp_path, config_file, capsys):
    rc = main(["sweep", "--config", config_file, "--out", str(tmp_path / "o"),
               "--strategy", "none", "--seeds", "1"])
    assert rc == 1
    assert "argument --strategy: invalid choice: 'none'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, flag", [
    (["run", "--seeds", "abc"], "--seeds"),
    (["sweep", "--retention", "abc"], "--retention"),
    (["sweep", "--strategy", "bogus"], "--strategy"),
    ([], "verb"),
    # the strategy flags take the scenario's sweepable kinds only
    (["sweep", "--strategy", "waiting"], "--strategy:"),
    (["compare", "--strategy-a", "none", "--strategy-b", "waiting_time"], "--strategy-a:"),
])
def test_bad_arguments_exit_one_naming_the_flag(argv, flag, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where the default --out would be made
    assert main(argv) == 1
    assert flag in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--help"])
    assert excinfo.value.code == 0
    assert "--retention" in capsys.readouterr().out


@pytest.mark.parametrize("retention", ["nan", "-1", "1.5", "0.9_5"])
def test_retention_outside_the_unit_interval_exits_one(retention, tmp_path, config_file, capsys):
    out = tmp_path / "o"
    assert main(["sweep", "--config", config_file, "--out", str(out), "--seeds", "1",
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


@pytest.mark.parametrize("verb", [
    ["run"],
    ["sweep", "--values", "0:0.1:0.1"],
    ["compare", "--strategy-a", "hysteresis", "--strategy-b", "waiting_time"],
])
@pytest.mark.parametrize("below", ["", "sub"])
def test_an_out_that_is_a_file_exits_one_naming_the_flag_before_any_run(
        verb, below, tmp_path, config_file, capsys, monkeypatch):
    runs = []
    monkeypatch.setattr(hodsim.cli, "run_simulation", lambda *a, **k: runs.append(a))
    monkeypatch.setattr(hodsim.metrics, "run_simulation", lambda *a, **k: runs.append(a))
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    out = blocker / below if below else blocker
    assert main(verb + ["--seeds", "1", "--config", config_file, "--out", str(out)]) == 1
    assert "config error: --out:" in capsys.readouterr().err
    assert blocker.read_text() == "not a directory\n" and runs == []


# --- Multi-fault boundary properties -----------------------------------------
#
# A document or an argument list with several faults at once must end as exit
# 0 or 1, never as a traceback or exit 2; an exit 1 names a field or a flag,
# and a document that validates must run.

HOSTILE = [True, False, None, "", [], [1.0, 2.0], 1e300, 1e308, 1e-320, 2 ** 63, -1, 0]
# short runs, so that every valid document can be run; kept as JSON text,
# which loads faster than a deep copy
FAULT_BASES = [json.dumps(dict(default_document(), sim_time=5.0)), json.dumps(tiny_document())]
FIELD_NAMES = set(DOCUMENT_KEYS).union(*(keys for keys in DOCUMENT_KEYS.values() if keys))


def _cli(argv):
    """main(argv) with its output captured: (exit code, stderr text)."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _names_one_of(err, names) -> bool:
    """Whether every line of ``err`` names one of ``names``."""
    lines = err.splitlines()
    return bool(lines) and all(any(re.search(rf"(?<![\w-]){re.escape(n)}(?!\w)", line)
                                   for n in names) for line in lines)


@st.composite
def faulty_documents(draw):
    """A short base document with 1-4 faults.  A fault picks a key of the
    document, goes down into its value at random, one key per level, and
    then replaces the value it stops at with a hostile one, wraps it in a
    list, or deletes it from its object or duplicates it in its list."""
    doc = json.loads(draw(st.sampled_from(FAULT_BASES)))
    for _ in range(draw(st.integers(1, 4))):
        node, key = doc, draw(st.sampled_from(list(doc)))
        while isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
            node = node[key]
            key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        last = "delete" if isinstance(node, dict) else "duplicate"
        kind = draw(st.sampled_from(["replace", "wrap", last]))
        if kind == "replace":
            node[key] = copy.deepcopy(draw(st.sampled_from(HOSTILE)))
        elif kind == "wrap":
            node[key] = [node[key]]
        elif kind == "delete":
            del node[key]
        else:
            node.insert(key, copy.deepcopy(node[key]))
    return doc


@seed(20261019)
@settings(max_examples=300, deadline=None)
@given(faulty_documents())
def test_multi_fault_documents_exit_one_naming_a_field_or_run(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "s.json", Path(tmp) / "o"
        path.write_text(json.dumps(doc))
        code, err = _cli(["validate", "--config", str(path)])
        assert code in (0, 1), err
        if code == 1:
            assert _names_one_of(err, FIELD_NAMES), err
            return
        code, err = _cli(["run", "--config", str(path), "--seeds", "1", "--out", str(out)])
        assert code == 0, err
        log = run_simulation(load_scenario(doc), 1)
        check_log(log)
        assert (out / "events_s1.csv").read_text() == events_csv(log)


ARG_TOKENS = ["", " ", "x", "-1", "0", "1", "0.5", "1e300", "1e308", "1e-320",
              str(2 ** 63), str(2 ** 64), "nan", "inf", "true", "1_0", "+1", "\u0663"]
JSON_TEXTS = ["true", "null", '""', "[]", "[1,2]", "1e300", "1e308", "1e-320", str(2 ** 63),
              str(2 ** 64), "-1", "0", "{", "x"]
SET_PATHS = [".".join(map(str, p)) for p in _paths(tiny_document())] + [
    "", "x", "aps.9.id", "sim_time.x", "users.-1.speed", "aps..id", "users.+1.speed",
    "users.1_0.speed"]


def _arguments(valid, joiner, max_size):
    """No argument, a valid one, or 1..max_size hostile tokens joined."""
    hostile = st.lists(st.sampled_from(ARG_TOKENS), min_size=1, max_size=max_size).map(joiner.join)
    return st.none() | st.sampled_from(valid) | hostile


@seed(20261019)
@settings(max_examples=100, deadline=None)
@given(
    sets=st.lists(st.sampled_from(["qos_jitter_sigma=0.5", "handover_cost_steps=2",
                                   "gate_candidates=false"])
                  | st.tuples(st.sampled_from(SET_PATHS), st.sampled_from(JSON_TEXTS))
                  .map("=".join), max_size=3),
    values=_arguments(["0:1:0.5", "0.5:0.5:1"], ":", 4),
    seeds=_arguments(["1", "0,2"], ",", 3),
    retention=_arguments(["0", "1"], "", 1),
)
def test_hostile_argument_lists_exit_one_naming_a_flag_or_sweep(sets, values, seeds, retention):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "s.json", Path(tmp) / "o"
        path.write_text(json.dumps(tiny_document(sim_time=1.0)))
        argv = ["sweep", "--config", str(path), "--out", str(out)]
        for assignment in sets:
            argv += ["--set", assignment]
        flags = ["--set"] if sets else []
        for flag, arg in (("--values", values), ("--seeds", seeds), ("--retention", retention)):
            if arg is not None:
                argv.append(f"{flag}={arg}")
                flags.append(flag)
        code, err = _cli(argv)
        assert code in (0, 1), err
        if code == 1:
            assert _names_one_of(err, FIELD_NAMES | set(flags)), err
            assert not out.exists()
        else:
            assert (out / "sweep_hysteresis.csv").exists()
