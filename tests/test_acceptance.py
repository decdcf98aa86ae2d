"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (visible under ``pytest -s tests/test_acceptance.py``).

The trend criteria run a full 21-value x 10-seed hysteresis sweep plus the
matching waiting-time sweep on the shipped default scenario; the two sweeps
take about 1 s and the whole module 5-6 s on a 2-core VM with Python 3.11.
Everything is seeded and deterministic.
"""

import math
import statistics
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from hodsim.cli import main
from hodsim.decision import decide, utility
from hodsim.engine import events_csv, run_simulation
from hodsim.metrics import confidence_interval, sweep
from hodsim.mobility import draw_waypoint, init_mobility, step_mobility
from hodsim.scenario import StabilityStrategy, UserProfile, default_scenario, with_strategy

from reference import known_by_id, ref_diffuse
from test_decision import assert_pipelines_agree, run_both_pipelines

SEEDS = list(range(1, 11))
H_VALUES = [round(0.05 * i, 2) for i in range(21)]
T_VALUES = [round(0.5 * i, 1) for i in range(21)]


def check(criterion, ok, detail=""):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}" + (f" - {detail}" if detail else ""))
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def config():
    return default_scenario()


@pytest.fixture(scope="module")
def hysteresis_sweep(config):
    return sweep(config, "hysteresis", H_VALUES, SEEDS)


@pytest.fixture(scope="module")
def waiting_sweep(config):
    return sweep(config, "waiting_time", T_VALUES, SEEDS)


def test_criterion_1_determinism_and_runtime(tmp_path):
    elapsed = []
    outputs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        start = time.perf_counter()
        rc = main(["run", "--out", str(out), "--seeds", "1"])
        elapsed.append(time.perf_counter() - start)
        assert rc == 0
        outputs.append((out / "events_s1.csv").read_bytes())
    identical = outputs[0] == outputs[1]
    fast = max(elapsed) < 5.0
    check("1 determinism/runtime", identical and fast,
          f"byte-identical={identical}, slowest run {max(elapsed):.2f}s")


def test_criterion_2_pipeline_fidelity():
    rng = np.random.default_rng(987654)
    value_grid = np.array([0.0, 0.25, 0.5, 1.0, 2.0, 5.0])
    checked = 0
    for _ in range(10_000):
        k = int(rng.integers(1, 4))
        criteria_doc = [
            {"id": f"c{i}",
             "direction": "benefit" if rng.random() < 0.5 else "cost",
             "alpha": float(rng.choice([0.5, 1.0, 2.0]))}
            for i in range(k)
        ]
        # these draws once gave objective weights; they are kept so the
        # stream, and with it every instance checked, stays the same
        rng.choice([0.2, 0.3, 0.5], size=int(rng.integers(1, 4)))
        offered = {
            f"ap{j}": {c["id"]: float(rng.choice(value_grid)) for c in criteria_doc}
            for j in range(int(rng.integers(0, 5)))
        }
        required = {c["id"]: float(rng.choice([0.0, 0.5, 1.0])) for c in criteria_doc}
        assoc = {c["id"]: float(rng.choice(value_grid)) for c in criteria_doc}
        strategy = {
            "kind": str(rng.choice(["none", "hysteresis", "waiting_time"])),
            "parameter": float(rng.choice([0.0, 0.25, 0.5, 1.0])),
            "wait_until": float(rng.choice([0.0, 5.0, 50.0])),
        }
        prod, ref = run_both_pipelines(criteria_doc, offered, required, assoc, strategy,
                                       now=float(rng.uniform(0, 20)),
                                       gated=bool(rng.random() < 0.5))
        assert_pipelines_agree(prod, ref)
        checked += 1
    check("2 pipeline fidelity", checked == 10_000,
          f"{checked} randomized instances matched the brute-force evaluator")


def test_criterion_3_steps_per_terminal(config):
    log = run_simulation(config, 1)
    counts = {mt: len(log.outcomes[mt]) for mt in log.mt_ids}
    ok = len(counts) == 14 and all(c == 150 for c in counts.values())
    check("3 step count", ok, f"{len(counts)} terminals x {set(counts.values())} outcomes")


def test_criterion_4_zero_parameter_baselines(config):
    ok = True
    for seed in (1, 2, 3):
        baseline = events_csv(run_simulation(with_strategy(config, "none", 0.0), seed))
        for kind in ("hysteresis", "waiting_time", "randomized_wait"):
            ok = ok and events_csv(run_simulation(with_strategy(config, kind, 0.0), seed)) == baseline
    check("4 baseline equivalence", ok, "H=0, T=0 and randomized T_max=0 event logs "
                                        "are byte-identical to the no-strategy run")


def test_criterion_5_trend_reproduction(hysteresis_sweep):
    rows = hysteresis_sweep.rows
    worst = [r.worst_ho for r in rows]
    score = [r.mean_score_rate for r in rows]
    sp_worst = float(spearmanr(H_VALUES, worst).statistic)
    sp_score = float(spearmanr(H_VALUES, score).statistic)
    base = rows[0]
    sweet = [r.value for r in rows[1:]
             if r.worst_ho <= 0.5 * base.worst_ho
             and r.mean_score_rate >= 0.9 * base.mean_score_rate]
    ok = sp_worst <= -0.8 and sp_score <= -0.5 and bool(sweet)
    check("5 trend reproduction", ok,
          f"spearman(worst)={sp_worst:.3f} (<=-0.8), spearman(score)={sp_score:.3f} "
          f"(<=-0.5), >=50% worst-case drop at >=90% score retention from H={sweet[:1]}")


def test_criterion_6_waiting_time_variance(hysteresis_sweep, waiting_sweep):
    """Across-terminal HO-count variance, compared at matched suppression.

    The grids only overlap in achieved suppression near the waiting-time
    floor (its largest parameter), so each seed is matched there: the
    hysteresis value with that seed's closest mean HO rate against the
    deepest waiting value.  The expected signature is that the waiting
    approach spreads its residual handovers much more unevenly across
    terminals than the margin does.
    """
    t_deep = T_VALUES[-1]
    wins = 0
    for si in range(len(SEEDS)):
        target = waiting_sweep.runs[t_deep][si].ho_rate
        h_star = min(H_VALUES,
                     key=lambda v: (abs(hysteresis_sweep.runs[v][si].ho_rate - target), v))
        var_h = statistics.pvariance(list(hysteresis_sweep.runs[h_star][si].nb_ho.values()))
        var_t = statistics.pvariance(list(waiting_sweep.runs[t_deep][si].nb_ho.values()))
        wins += var_t > var_h
    check("6 strategy comparison", wins >= 7,
          f"waiting-time across-MT variance larger in {wins}/10 matched seeds")


def test_criterion_7_invariant_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(13579)

    # utility: strictly monotone below saturation, range [0, 1)
    for _ in range(1000):
        alpha = float(rng.uniform(0.01, 1.2))
        a, b = sorted(rng.uniform(0.0, 30.0, size=2).tolist())
        ua, ub = utility(a, alpha), utility(b, alpha)
        assert 0.0 <= ua < 1.0 and 0.0 <= ub < 1.0
        if a != b:
            assert ua < ub

    # requirement gating zeroes the score
    from hodsim.decision import score_network
    from hodsim.scenario import DecisionCriterion
    for _ in range(1000):
        k = int(rng.integers(1, 4))
        crits = [DecisionCriterion(f"c{i}", "benefit" if rng.random() < 0.5 else "cost",
                                   float(rng.uniform(0.1, 3))) for i in range(k)]
        offered = {c.id: float(rng.uniform(0, 10)) for c in crits}
        required = {c.id: 0.0 for c in crits}
        victim = crits[int(rng.integers(0, k))]
        if victim.direction == "benefit":
            required[victim.id] = offered[victim.id] + 1.0
        else:
            offered[victim.id] = float(rng.uniform(1, 10))
            required[victim.id] = offered[victim.id] / 2.0
        assert score_network("ap", offered, required, crits).value == 0.0

    # hysteresis monotonicity
    for _ in range(1000):
        c_asso = float(rng.uniform(0, 3))
        c_best = float(rng.uniform(0, 3))
        h1, h2 = sorted(rng.uniform(0, 1, size=2).tolist())
        fired_hi = decide(c_asso, c_best, StabilityStrategy("hysteresis", h2), 0.0, 0.0).action
        fired_lo = decide(c_asso, c_best, StabilityStrategy("hysteresis", h1), 0.0, 0.0).action
        if fired_hi == "handover":
            assert fired_lo == "handover"

    # knowledge staleness: one-hop neighbor records at most 2 periods old
    period = 1.0
    cases = 0
    while cases < 1000:
        n = int(rng.integers(2, 5))
        ids = [f"ap{i}" for i in range(n)]
        neighbors = {i: set() for i in ids}
        for a in ids:
            b = ids[int(rng.integers(0, n))]
            if b != a:
                neighbors[a].add(b)
                neighbors[b].add(a)
        neigh = {a: tuple(sorted(v)) for a, v in neighbors.items()}
        aps, rounds = {a: {} for a in ids}, []
        for k in range(6):
            qos = {a: {"bw": float(rng.uniform(1, 9))} for a in ids}
            aps, mts = ref_diffuse(aps, neigh, qos, {"mt": ids[0]}, k * period)
            rounds.append({a: (qos[a], k * period) for a in ids})
        mt_view = mts["mt"]
        assert mt_view == known_by_id(ids[0], neigh[ids[0]], rounds[-1], rounds[-2])
        for b in neigh[ids[0]]:
            if b in mt_view:
                age = 5 * period + period - 1e-9 - mt_view[b][1]
                assert age <= 2 * period + 1e-9
                cases += 1
        cases += 1

    # mobility: in-bounds and speed-bounded
    area = (120.0, 80.0)
    for _ in range(1000):
        p = UserProfile(id="m", mobile=True,
                        initial_position=(float(rng.uniform(0, 120)), float(rng.uniform(0, 80))),
                        speed=float(rng.uniform(0.2, 3.0)),
                        pause_range=(0.5, 2.0), app_requirements={})
        walk = np.random.default_rng(int(rng.integers(1 << 31)))
        state = init_mobility(p, area, walk)
        for _ in range(15):
            dt = float(rng.uniform(0.2, 1.0))
            nxt = step_mobility(state, dt, area, p, walk)
            assert 0 <= nxt.position[0] <= area[0] and 0 <= nxt.position[1] <= area[1]
            assert math.dist(state.position, nxt.position) <= p.speed * dt + 1e-9
            state = nxt

    # waypoint uniformity: chi-square over a 4x4 grid at significance 0.01
    counts = np.zeros((4, 4))
    n_draws = 10_000
    for _ in range(n_draws):
        x, y = draw_waypoint(area, rng)
        counts[min(int(4 * x / area[0]), 3), min(int(4 * y / area[1]), 3)] += 1
    chi2 = float(((counts - n_draws / 16) ** 2 / (n_draws / 16)).sum())
    assert chi2 < 30.5779  # chi-square critical value, df=15, p=0.01

    elapsed = time.perf_counter() - start
    check("7 invariant suites", elapsed < 60.0,
          f"all property suites passed in {elapsed:.1f}s (< 60s)")


def test_criterion_8_ci_coverage():
    rng = np.random.default_rng(2718)
    reps = 1000
    hits = 0
    for _ in range(reps):
        sample = rng.normal(5.0, 2.0, size=20).tolist()
        low, high = confidence_interval(sample, 0.95)
        hits += low <= 5.0 <= high
    coverage = hits / reps
    check("8 CI coverage", 0.94 <= coverage <= 0.96,
          f"empirical coverage {coverage:.3f} over {reps} synthetic samples")
