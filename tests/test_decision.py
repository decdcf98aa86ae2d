import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hodsim.decision import (
    CombinedScore,
    Decision,
    best_candidate,
    decide,
    meets_requirements,
    normalize_criterion,
    score_network,
    utility,
)
from hodsim.scenario import DecisionCriterion, StabilityStrategy

import reference

BW = DecisionCriterion("bandwidth", "benefit", 1.0)
DELAY = DecisionCriterion("delay", "cost", 1.0)


def score(offered, required, criteria, gated=True):
    return score_network("ap", offered, required, criteria, gated=gated).value


# --- utility -----------------------------------------------------------------

def test_utility_zero_input():
    assert utility(0.0, 3.7) == 0.0


def test_utility_known_value():
    assert abs(utility(1.0, 1.0) - 0.6321205588285577) < 1e-15


def test_utility_approaches_one_from_below():
    u = utility(50.0, 1.0)
    assert 0.9999 < u < 1.0


def test_utility_rejects_bad_inputs():
    with pytest.raises(ValueError):
        utility(-0.1, 1.0)
    with pytest.raises(ValueError):
        utility(1.0, 0.0)


# 0, or large enough that alpha * x stays a normal float: a subnormal product
# loses precision, so two subnormal benefits can give one utility
# (x=5e-324, alpha=0.5 gives 0.0, as x=0 does)
_NORMAL_BENEFIT = st.just(0.0) | st.floats(1e-300, 30)


@given(_NORMAL_BENEFIT, _NORMAL_BENEFIT, st.floats(0.01, 1.2))
def test_utility_strictly_monotone(a, b, alpha):
    # strict below float saturation (alpha * x <= 36); non-strict beyond
    lo, hi = sorted((a, b))
    if lo != hi:
        assert utility(lo, alpha) < utility(hi, alpha)


@given(st.floats(0, 1e6), st.floats(0, 1e6), st.floats(0.01, 10))
def test_utility_monotone_everywhere(a, b, alpha):
    lo, hi = sorted((a, b))
    assert utility(lo, alpha) <= utility(hi, alpha)


@given(st.floats(0, 1e6), st.floats(0.01, 10))
def test_utility_range(x, alpha):
    assert 0.0 <= utility(x, alpha) < 1.0


# --- normalization -----------------------------------------------------------

def test_benefit_passes_through():
    assert normalize_criterion(18.0, BW) == 18.0


def test_cost_is_inverted():
    assert normalize_criterion(4.0, DELAY) == 0.25


def test_cost_zero_is_capped():
    assert normalize_criterion(0.0, DELAY, max_benefit=1e6) == 1e6
    assert normalize_criterion(1e-9, DELAY, max_benefit=1e6) == 1e6


# --- network score -----------------------------------------------------------

def test_score_single_criterion_matches_utility():
    s = score({"bandwidth": 1.0}, {"bandwidth": 0.0}, [BW])
    assert abs(s - 0.6321205588285577) < 1e-15


def test_requirement_gate_zeroes_score():
    assert score({"bandwidth": 5.0}, {"bandwidth": 10.0}, [BW]) == 0.0


def test_cost_requirement_gate():
    assert score({"delay": 30.0}, {"delay": 10.0}, [DELAY]) == 0.0
    assert score({"delay": 5.0}, {"delay": 10.0}, [DELAY]) > 0.0


def test_two_zero_criteria_score_zero():
    crits = [BW, DecisionCriterion("snr", "benefit", 2.0)]
    assert score({"bandwidth": 0.0, "snr": 0.0}, {"bandwidth": 0.0, "snr": 0.0}, crits) == 0.0


def test_gate_ignored_when_disabled():
    assert score({"bandwidth": 5.0}, {"bandwidth": 10.0}, [BW], gated=False) > 0.0


def test_missing_criterion_rejected():
    with pytest.raises(ValueError):
        score({"bandwidth": 5.0}, {}, [BW, DELAY])


def test_missing_criterion_rejected_before_the_gate():
    # the bandwidth floor gates the vector out before delay is read, and the
    # missing delay still raises, naming every missing criterion in order
    error = DecisionCriterion("error", "cost", 1.0)
    required = {"bandwidth": 10.0, "delay": 0.0, "error": 0.0}
    with pytest.raises(ValueError, match=r"missing criteria \['delay', 'error'\]"):
        score({"bandwidth": 5.0}, required, [BW, error, DELAY])
    with pytest.raises(ValueError, match=r"missing criteria \['delay'\]"):
        score({"bandwidth": 5.0, "error": 0.1}, required, [BW, DELAY, error], gated=False)


@given(st.lists(st.floats(0, 50), min_size=1, max_size=4))
def test_zero_requirements_never_gate(values):
    # with all requirements at zero the gate is a no-op and the score is the
    # plain utility sum
    crits = [DecisionCriterion(f"c{i}", "cost" if i % 2 else "benefit", 0.5 + i)
             for i in range(len(values))]
    offered = {c.id: v for c, v in zip(crits, values)}
    required = {c.id: 0.0 for c in crits}
    expected = sum(utility(normalize_criterion(offered[c.id], c), c.alpha) for c in crits)
    assert abs(score(offered, required, crits) - expected) < 1e-12


# --- score sum and selection -------------------------------------------------


def test_combine_identity():
    # the score is the utility sum itself
    offered, required = {"bandwidth": 2.0, "delay": 4.0}, {"bandwidth": 0.0, "delay": 0.0}
    expected = utility(2.0, 1.0) + utility(0.25, 1.0)
    assert score(offered, required, [BW, DELAY]) == expected


def test_combine_zeros():
    assert score({"bandwidth": 5.0}, {"bandwidth": 10.0}, [BW]) == 0.0
    assert score({"bandwidth": 0.0}, {"bandwidth": 0.0}, [BW]) == 0.0


@given(st.lists(st.tuples(st.booleans(), st.floats(0.01, 3), st.floats(0, 50),
                          st.just(0.0) | st.floats(0, 50)), min_size=1, max_size=5),
       st.booleans())
def test_score_is_the_utility_sum_in_criteria_order(specs, gated):
    # bit for bit: the utilities added up in criteria order, or 0 when the
    # gate is on and the offered QoS misses a requirement
    crits = [DecisionCriterion(f"c{i}", "cost" if cost else "benefit", alpha)
             for i, (cost, alpha, _, _) in enumerate(specs)]
    offered = {c.id: value for c, (_, _, value, _) in zip(crits, specs)}
    required = {c.id: need for c, (_, _, _, need) in zip(crits, specs)}
    expected = 0.0
    if not gated or meets_requirements(offered, required, crits):
        for c in crits:
            expected += utility(normalize_criterion(offered[c.id], c), c.alpha)
    assert score(offered, required, crits, gated=gated) == expected


def test_best_candidate_picks_max():
    best = best_candidate([CombinedScore("A", 0.3), CombinedScore("B", 0.7)])
    assert (best.ap_id, best.value) == ("B", 0.7)


def test_best_candidate_empty_is_none():
    assert best_candidate([]) is None


def test_best_candidate_tie_breaks_low_id():
    best = best_candidate([CombinedScore("B", 0.5), CombinedScore("A", 0.5)])
    assert best.ap_id == "A"


@given(st.lists(st.tuples(st.text("ab", min_size=1, max_size=3),
                          st.floats(0.01, 10)), min_size=1, max_size=6),
       st.floats(0.1, 100))
def test_argmax_invariant_under_scaling(pairs, factor):
    cands = [CombinedScore(ap, v) for ap, v in pairs]
    scaled = [CombinedScore(ap, v * factor) for ap, v in pairs]
    assert best_candidate(cands).ap_id == best_candidate(scaled).ap_id


# --- decide -------------------------------------------------------------------

NONE = StabilityStrategy("none", 0.0)


def hyst(h):
    return StabilityStrategy(kind="hysteresis", parameter=h)


def test_hysteresis_blocks_small_gains():
    d = decide(0.5, 0.8, hyst(0.45), 0.0, now=0.0)
    assert d.action == "stay"
    assert d.suppressed is True


def test_hysteresis_allows_large_gains():
    d = decide(0.5, 0.99, hyst(0.45), 0.0, now=0.0)
    assert d.action == "handover"
    assert d.suppressed is False


def test_no_candidates_means_stay():
    d = decide(0.5, None, NONE, 0.0, now=0.0)
    assert d.action == "stay" and not d.suppressed


def test_a_decision_names_no_target():
    # decide compares scores only; the caller knows the best candidate's AP
    assert Decision._fields == ("action", "suppressed", "wait_until")


def test_equal_scores_mean_stay():
    d = decide(0.5, 0.5, NONE, 0.0, now=0.0)
    assert d.action == "stay"


def test_waiting_time_window():
    # handover at t=10 arms a 5 s window; a decision at t=12 is suppressed,
    # at t=15.5 allowed again
    strategy = StabilityStrategy("waiting_time", 5.0)
    d1 = decide(0.2, 0.4, strategy, 0.0, now=10.0)
    assert d1.action == "handover"
    assert d1.wait_until == 15.0
    d2 = decide(0.2, 0.4, strategy, d1.wait_until, now=12.0)
    assert d2.action == "stay" and d2.suppressed is True
    assert d2.wait_until == 15.0
    d3 = decide(0.2, 0.4, strategy, d2.wait_until, now=15.5)
    assert d3.action == "handover"


def test_waiting_window_not_armed_without_firing():
    d = decide(0.9, 0.1, StabilityStrategy("waiting_time", 5.0), 0.0, now=1.0)
    assert d.action == "stay" and not d.suppressed
    assert d.wait_until == 0.0


def test_randomized_wait_draws_within_bound():
    rng = np.random.default_rng(5)
    strategy = StabilityStrategy("randomized_wait", 8.0)
    d = decide(0.1, 0.9, strategy, 0.0, now=100.0, rng=rng)
    assert d.action == "handover"
    assert 100.0 <= d.wait_until <= 108.0


def test_randomized_wait_requires_rng():
    with pytest.raises(ValueError):
        decide(0.1, 0.9, StabilityStrategy("randomized_wait", 8.0), 0.0, now=0.0, rng=None)


def test_randomized_wait_is_seeded():
    outs = []
    for _ in range(2):
        rng = np.random.default_rng(77)
        d = decide(0.1, 0.9, StabilityStrategy("randomized_wait", 8.0), 0.0, now=0.0, rng=rng)
        outs.append(d.wait_until)
    assert outs[0] == outs[1]


score_floats = st.floats(0, 3)


@given(score_floats, score_floats, st.floats(0, 30))
def test_zero_hysteresis_equals_no_strategy(c_asso, c_best, now):
    none_d = decide(c_asso, c_best, NONE, 0.0, now)
    h0_d = decide(c_asso, c_best, hyst(0.0), 0.0, now)
    assert (none_d.action, none_d.suppressed) == (h0_d.action, h0_d.suppressed)


@given(score_floats, score_floats, st.floats(0, 30), st.floats(0, 30))
def test_zero_wait_equals_no_strategy(c_asso, c_best, now, prev_ho):
    # with T=0 the window armed by any previous handover has already expired
    none_d = decide(c_asso, c_best, NONE, 0.0, now + prev_ho)
    t0_d = decide(c_asso, c_best, StabilityStrategy("waiting_time", 0.0), prev_ho, now + prev_ho)
    assert (none_d.action, none_d.suppressed) == (t0_d.action, t0_d.suppressed)


@given(score_floats, score_floats, st.floats(0, 1), st.floats(0, 1))
def test_hysteresis_monotone_in_margin(c_asso, c_best, h1, h2):
    lo, hi = sorted((h1, h2))
    if decide(c_asso, c_best, hyst(hi), 0.0, 0.0).action == "handover":
        assert decide(c_asso, c_best, hyst(lo), 0.0, 0.0).action == "handover"


@given(st.sampled_from(["none", "hysteresis", "waiting_time", "randomized_wait"]),
       score_floats, st.one_of(st.none(), score_floats), st.floats(0, 10),
       st.floats(0, 30), st.floats(0, 30))
def test_decide_leaves_a_terminal_alone_unless_the_base_rule_fires(
        kind, c_asso, c_best, parameter, wait_until, now):
    # the engine asks decide only when the best candidate beats the
    # associated network; otherwise decide must stay, unsuppressed, with the
    # wait time unchanged and no random draw
    if c_best is not None and c_best > c_asso:
        c_best = c_asso
    rng = np.random.default_rng(3)
    d = decide(c_asso, c_best, StabilityStrategy(kind, parameter), wait_until, now, rng)
    assert d == ("stay", False, wait_until)
    assert rng.uniform() == np.random.default_rng(3).uniform()


@given(st.sampled_from(["none", "hysteresis", "waiting_time", "randomized_wait"]),
       score_floats, score_floats, st.floats(0, 10), st.floats(0, 30), st.floats(0, 30))
def test_decide_moves_the_wait_only_when_a_waiting_strategy_hands_over(
        kind, c_asso, c_best, parameter, wait_until, now):
    d = decide(c_asso, c_best, StabilityStrategy(kind, parameter),
               wait_until, now, np.random.default_rng(3))
    if d.action != "handover" or kind in ("none", "hysteresis"):
        assert d.wait_until == wait_until
    elif kind == "waiting_time":
        assert d.wait_until == now + parameter
    else:
        assert now <= d.wait_until <= now + parameter


# --- oracle equivalence -------------------------------------------------------

def run_both_pipelines(criteria_doc, offered_by_ap, required,
                       assoc_offered, strategy, now, gated=True, cap=1e6):
    """Run the production pipeline and the brute-force reference on the same
    instance; return both (action, target, suppressed, c_asso, scores)
    results.  ``decide`` gets scores only, so the production target is the
    best candidate's AP when it hands over."""
    criteria = [DecisionCriterion(c["id"], c["direction"], c["alpha"]) for c in criteria_doc]

    c_asso = score_network("asso", assoc_offered, required, criteria,
                           gated=True, max_benefit=cap).value
    scored = [
        score_network(ap, qos, required, criteria, gated=gated, max_benefit=cap)
        for ap, qos in sorted(offered_by_ap.items())
    ]
    best = best_candidate(scored)
    got = decide(c_asso, None if best is None else best.value,
                 StabilityStrategy(strategy["kind"], strategy["parameter"]),
                 strategy["wait_until"], now, np.random.default_rng(0))
    target = best.ap_id if got.action == "handover" else None

    ref_casso = reference.ref_score(assoc_offered, required, criteria_doc, True, cap)
    ref_scored = [
        (ap, reference.ref_score(qos, required, criteria_doc, gated, cap))
        for ap, qos in sorted(offered_by_ap.items())
    ]
    ref_action, ref_target, ref_suppressed = reference.ref_decide(
        ref_casso, ref_scored, strategy["kind"], strategy["parameter"],
        strategy["wait_until"], now)

    prod = (got.action, target, got.suppressed, c_asso, {s.ap_id: s.value for s in scored})
    ref = (ref_action, ref_target, ref_suppressed, ref_casso, dict(ref_scored))
    return prod, ref


def assert_pipelines_agree(prod, ref):
    assert prod[0] == ref[0]
    assert prod[1] == ref[1]
    assert prod[2] == ref[2]
    assert abs(prod[3] - ref[3]) < 1e-12
    assert set(prod[4]) == set(ref[4])
    for ap in prod[4]:
        assert abs(prod[4][ap] - ref[4][ap]) < 1e-12


def test_oracle_exhaustive_small_grid():
    """Exhaustive sweep over a coarse grid of tiny instances."""
    criteria_doc = [
        {"id": "bw", "direction": "benefit", "alpha": 1.0},
        {"id": "dl", "direction": "cost", "alpha": 2.0},
    ]
    grid = [0.0, 0.5, 2.0]
    checked = 0
    for a_bw, a_dl, b_bw, b_dl, r_bw, kind, param in itertools.product(
            grid, grid, grid, grid, [0.0, 1.0],
            ["none", "hysteresis", "waiting_time"], [0.0, 0.3]):
        offered = {"B": {"bw": b_bw, "dl": b_dl}}
        required = {"bw": r_bw, "dl": 0.0}
        assoc = {"bw": a_bw, "dl": a_dl}
        strategy = {"kind": kind, "parameter": param, "wait_until": 0.0}
        prod, ref = run_both_pipelines(criteria_doc, offered, required, assoc,
                                       strategy, now=1.0)
        assert_pipelines_agree(prod, ref)
        checked += 1
    assert checked == 3 * 3 * 3 * 3 * 2 * 3 * 2


def test_oracle_randomized_instances():
    rng = np.random.default_rng(20240202)
    value_grid = np.array([0.0, 0.25, 0.5, 1.0, 2.0, 5.0])
    for _ in range(2000):
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
        n_cand = int(rng.integers(0, 5))
        offered = {
            f"ap{j}": {c["id"]: float(rng.choice(value_grid)) for c in criteria_doc}
            for j in range(n_cand)
        }
        required = {c["id"]: float(rng.choice([0.0, 0.5, 1.0])) for c in criteria_doc}
        assoc = {c["id"]: float(rng.choice(value_grid)) for c in criteria_doc}
        strategy = {
            "kind": str(rng.choice(["none", "hysteresis", "waiting_time"])),
            "parameter": float(rng.choice([0.0, 0.25, 0.5, 1.0])),
            "wait_until": float(rng.choice([0.0, 5.0, 50.0])),
        }
        gated = bool(rng.random() < 0.5)
        prod, ref = run_both_pipelines(criteria_doc, offered, required, assoc,
                                       strategy, now=float(rng.uniform(0, 20)), gated=gated)
        assert_pipelines_agree(prod, ref)
