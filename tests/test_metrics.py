import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hodsim.engine import EventLog, events_csv, run_simulation
from hodsim.metrics import (
    confidence_interval,
    ho_rate,
    run_metrics,
    score_rate,
    sweep,
    sweep_csv,
)
from hodsim.scenario import ScenarioError, load_scenario, with_strategy

from conftest import tiny_document
from logcheck import named


def synthetic_log(per_mt_scores, per_mt_ho, config):
    """EventLog stub with only the fields the metrics need."""
    log = EventLog(seed=0, config=config, mt_ids=sorted(per_mt_scores))
    for mt, scores in per_mt_scores.items():
        log.outcomes[mt] = tuple(("ap", "stay", s, 0.0, False) for s in scores)
        log.nb_ho[mt] = per_mt_ho[mt]
    return log


@pytest.fixture
def cfg20():
    return load_scenario(tiny_document())


def test_ho_rate_is_mean(cfg20):
    log = synthetic_log({"a": [0.0] * 20, "b": [0.0] * 20}, {"a": 4, "b": 6}, cfg20)
    assert ho_rate(log) == 5.0


def test_ho_rate_all_zero(cfg20):
    log = synthetic_log({"a": [0.0] * 20}, {"a": 0}, cfg20)
    assert ho_rate(log) == 0.0


def test_ho_rate_requires_terminals(cfg20):
    log = EventLog(seed=0, config=cfg20, mt_ids=[])
    with pytest.raises(ValueError):
        ho_rate(log)


def test_score_rate_constant(cfg20):
    log = synthetic_log({"a": [0.5] * 20}, {"a": 0}, cfg20)
    assert score_rate(log) == 0.5


def test_score_rate_half_and_half(cfg20):
    log = synthetic_log({"a": [1.0] * 10 + [0.0] * 10}, {"a": 0}, cfg20)
    assert score_rate(log) == 0.5


def test_score_rate_step_count_mismatch(cfg20):
    log = synthetic_log({"a": [0.5] * 7}, {"a": 0}, cfg20)
    with pytest.raises(ValueError):
        score_rate(log)


def test_metrics_match_recount_from_csv(default_config):
    """Recount oracle: parse the emitted CSV and recompute both criteria."""
    log = run_simulation(default_config, 1)
    rows = [line.split(",") for line in events_csv(log).splitlines()[2:]]
    counts = {}
    scores = {}
    for _time, mt, _ap, action, c_asso, _c_best, _sup in rows:
        counts[mt] = counts.get(mt, 0) + (action == "handover")
        scores.setdefault(mt, []).append(float(c_asso))
    recount_ho = sum(counts.values()) / len(counts)
    recount_score = sum(sum(v) / len(v) for v in scores.values()) / len(scores)
    assert recount_ho == ho_rate(log)
    assert abs(recount_score - score_rate(log)) < 1e-12


def test_nb_steps_default_timing(default_config):
    # the metrics divide by the log's step count, which is the scenario's
    assert default_config.nb_steps == 150
    assert EventLog(seed=0, config=default_config, mt_ids=[]).nb_steps == 150


def test_nb_steps_plain_division():
    config = load_scenario(tiny_document(sim_time=10.0, decision_step=1.0))
    assert config.nb_steps == 10
    assert run_simulation(config, 0).nb_steps == 10


def test_nb_steps_rejects_inexact():
    with pytest.raises(ScenarioError, match="multiple"):
        load_scenario(tiny_document(sim_time=75.0, decision_step=0.4))


def test_score_rate_is_the_mean_of_terminal_means(default_config):
    log = run_simulation(default_config, 2)
    rm = run_metrics(log)
    total = 0.0
    for mt in log.mt_ids:
        total += sum(o.c_asso for o in named(log, mt)) / log.nb_steps
        assert rm.mt_score[mt] == sum(o.c_asso for o in named(log, mt)) / log.nb_steps
    assert rm.score_rate == score_rate(log) == total / len(log.mt_ids)


def test_ci_zero_variance():
    assert confidence_interval([3.0, 3.0, 3.0]) == (3.0, 3.0)


def test_ci_against_t_table():
    # textbook oracle: n=5, mean 3, s = sqrt(2.5); t(0.975, df=4) = 2.7764451052
    samples = [1.0, 2.0, 3.0, 4.0, 5.0]
    half = 2.7764451052 * math.sqrt(2.5) / math.sqrt(5)
    low, high = confidence_interval(samples, 0.95)
    assert abs(low - (3.0 - half)) < 1e-9
    assert abs(high - (3.0 + half)) < 1e-9


def test_ci_requires_two_samples():
    with pytest.raises(ValueError):
        confidence_interval([1.0])


def test_ci_matches_scipy_stats_t_bit_for_bit():
    from scipy.stats import t

    rng = np.random.default_rng(12)
    for _ in range(300):
        samples = rng.normal(0.0, 3.0, size=int(rng.integers(2, 60))).tolist()
        level = float(rng.uniform(0.01, 0.999))
        n = len(samples)
        mean = sum(samples) / n
        var = sum((x - mean) ** 2 for x in samples) / (n - 1)
        half = float(t.ppf((1.0 + level) / 2.0, n - 1)) * math.sqrt(var / n)
        assert confidence_interval(samples, level) == (mean - half, mean + half)


@pytest.mark.parametrize("level", [0.0, 1.0, -0.5, 1.5, float("nan")])
def test_ci_rejects_levels_outside_the_open_unit_interval(level):
    with pytest.raises(ValueError, match="level"):
        confidence_interval([1.0, 2.0, 3.0], level)


# Prints the scipy modules loaded after each step, in one fresh process.
SCIPY_PROBE = """
import io, json, sys
from contextlib import redirect_stdout
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
seen = {}
import hodsim
seen["import"] = scipy_modules()
from hodsim.cli import main
short = ["--set", "sim_time=5", "--seeds", "1,2", "--out", sys.argv[1]]
with redirect_stdout(io.StringIO()):
    assert main(["validate"]) == 0
    seen["validate"] = scipy_modules()
    assert main(["run"] + short) == 0
    seen["run"] = scipy_modules()
    assert main(["sweep", "--values", "0:0.1:0.1"] + short) == 0
    seen["sweep"] = scipy_modules()
print(json.dumps(seen))
"""


def test_importing_hodsim_leaves_scipy_stats_unloaded(tmp_path):
    # scipy is loaded on the first confidence interval, which only a sweep
    # computes: importing, validating and running load no scipy module
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", SCIPY_PROBE, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    seen = json.loads(out.stdout)
    assert seen["import"] == seen["validate"] == seen["run"] == []
    assert "scipy.special" in seen["sweep"] and "scipy.stats" not in seen["sweep"]


def test_ci_coverage_monte_carlo():
    # ~95% of intervals over repeated normal samples must contain the mean
    rng = np.random.default_rng(41)
    hits = 0
    reps = 400
    for _ in range(reps):
        low, high = confidence_interval(rng.normal(5.0, 2.0, size=15).tolist())
        hits += low <= 5.0 <= high
    assert 0.92 <= hits / reps <= 0.98


def test_singleton_sweep_equals_single_run(cfg20):
    report = sweep(cfg20, "hysteresis", [0.0], [9])
    direct = run_metrics(run_simulation(with_strategy(cfg20, "hysteresis", 0.0), 9))
    row = report.rows[0]
    assert row.mean_ho_rate == direct.ho_rate
    assert row.mean_score_rate == direct.score_rate
    assert row.worst_ho == max(direct.nb_ho.values())


def test_sweep_shape_and_determinism(cfg20):
    values = [round(0.1 * i, 1) for i in range(5)]
    seeds = [1, 2, 3]
    a = sweep(cfg20, "hysteresis", values, seeds)
    b = sweep(cfg20, "hysteresis", values, seeds)
    assert len(a.rows) == 5
    assert all(r.runs == 3 for r in a.rows)
    assert a == b
    assert sweep_csv(a) == sweep_csv(b)


def test_sweep_rejects_empty_inputs(cfg20):
    with pytest.raises(ValueError):
        sweep(cfg20, "hysteresis", [], [1])
    with pytest.raises(ValueError):
        sweep(cfg20, "hysteresis", [0.0], [])


def test_sweep_rejects_repeated_seeds(cfg20):
    # a repeated seed would pool its terminals twice and narrow the interval
    with pytest.raises(ValueError, match="distinct"):
        sweep(cfg20, "hysteresis", [0.0], [1, 2, 1])


def test_zero_parameter_rows_equal_no_strategy_baseline(cfg20):
    baseline = events_csv(run_simulation(with_strategy(cfg20, "none", 0.0), 5))
    h0 = events_csv(run_simulation(with_strategy(cfg20, "hysteresis", 0.0), 5))
    t0 = events_csv(run_simulation(with_strategy(cfg20, "waiting_time", 0.0), 5))
    r0 = events_csv(run_simulation(with_strategy(cfg20, "randomized_wait", 0.0), 5))
    assert baseline == h0 == t0 == r0


def test_sweep_csv_columns(cfg20):
    report = sweep(cfg20, "waiting_time", [0.0, 1.0], [1, 2])
    lines = sweep_csv(report).splitlines()
    assert lines[1] == "value,runs,mean_ho_rate,worst_ho,ci_low,ci_high,mean_score_rate"
    assert len(lines) == 4
    first = lines[2].split(",")
    assert first[0] == "0.0" and first[1] == "2"
