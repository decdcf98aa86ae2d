"""Evaluation criteria and the parameter-sweep harness.

Two criteria summarize a run: the handover rate (mean handovers per mobile
terminal) and the score rate (mean over terminals of the per-step mean
combined score of the associated network).  Sweeps rerun the simulation over
a parameter grid and seed list and aggregate worst cases, means, and a
Student-t confidence interval over per-terminal handover counts.
"""

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .engine import EventLog, run_simulation, shared_worlds
from .scenario import ScenarioConfig, strategy_violations, with_strategy

SWEEP_SCHEMA = "# hodsim sweep schema v1"
SWEEP_HEADER = "value,runs,mean_ho_rate,worst_ho,ci_low,ci_high,mean_score_rate"


@dataclass(frozen=True)
class RunMetrics:
    """Per-run evaluation criteria with the per-terminal breakdown."""

    ho_rate: float
    score_rate: float
    nb_ho: Dict[str, int]
    mt_score: Dict[str, float]


@dataclass(frozen=True)
class SweepRow:
    value: float
    runs: int
    mean_ho_rate: float
    worst_ho: int
    ci_low: float
    ci_high: float
    mean_score_rate: float


@dataclass(frozen=True)
class SweepReport:
    strategy_kind: str
    rows: Tuple[SweepRow, ...]
    # raw per-(value, seed) metrics in sweep order, for paired comparisons
    runs: Dict[float, Tuple[RunMetrics, ...]]


def ho_rate(log: EventLog) -> float:
    """Mean handover count over the run's mobile terminals."""
    if not log.mt_ids:
        raise ValueError("event log covers no mobile terminals")
    return sum(log.nb_ho[m] for m in log.mt_ids) / len(log.mt_ids)


def score_rate(log: EventLog) -> float:
    """Mean over terminals of the per-step mean associated-network score."""
    return run_metrics(log).score_rate


def run_metrics(log: EventLog) -> RunMetrics:
    """Both criteria of one run; the score rate is the mean of the
    per-terminal means."""
    if not log.mt_ids:
        raise ValueError("event log covers no mobile terminals")
    steps = log.nb_steps
    mt_score = {}
    total = 0.0
    for m in log.mt_ids:
        outcomes = log.outcomes[m]
        if len(outcomes) != steps:
            raise ValueError(f"terminal {m}: {len(outcomes)} outcomes, expected {steps}")
        # a row's third field is its c_asso
        mt_score[m] = sum(o[2] for o in outcomes) / steps
        total += mt_score[m]
    return RunMetrics(
        ho_rate=ho_rate(log),
        score_rate=total / len(log.mt_ids),
        nb_ho=dict(log.nb_ho),
        mt_score=mt_score,
    )


def confidence_interval(samples: Sequence[float], level: float = 0.95) -> Tuple[float, float]:
    """Student-t interval for the mean: mean +- t_{(1+level)/2, n-1} * s/sqrt(n).

    The t quantile is ``scipy.special.stdtrit``, which is what
    ``scipy.stats.t.ppf`` evaluates; imported here, so only a call loads scipy.
    """
    from scipy.special import stdtrit
    n = len(samples)
    if n < 2:
        raise ValueError("confidence interval needs at least 2 samples")
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must lie in (0, 1), got {level!r}")
    mean = sum(samples) / n
    var = sum((x - mean) ** 2 for x in samples) / (n - 1)
    half = float(stdtrit(n - 1, (1.0 + level) / 2.0)) * math.sqrt(var / n)
    return (mean - half, mean + half)


def sweeps(config: ScenarioConfig, plans: Sequence[Tuple[str, Sequence[float]]],
           seeds: Sequence[int]) -> List[SweepReport]:
    """Run each plan ``(strategy kind, values)`` over every seed, every value
    checked before the first run; one report per plan, rows in grid order.

    Worst case is the maximum per-terminal handover count over all runs of a
    value; the confidence interval is over per-terminal counts pooled across
    the value's runs.  Runs go seed by seed, one record at a time (see
    engine.shared_worlds): a seed's runs, every plan's values in order, share
    its world pass, QoS and score tables and the latest run's decision tape.
    """
    if not seeds:
        raise ValueError("seeds must be non-empty")
    if len(set(seeds)) != len(seeds):
        raise ValueError("seeds must be distinct")
    grids = []  # per plan: (value, config, per-seed metrics) in grid order
    for kind, values in plans:
        if not values:
            raise ValueError("values must be non-empty")
        grid = [(value, with_strategy(config, kind, value), []) for value in values]
        for value, cfg, _ in grid:
            violations = strategy_violations(cfg.strategy)
            if violations:
                raise ValueError(f"{kind} value={value!r}: " + "; ".join(violations))
        grids.append(grid)
    with shared_worlds():
        for seed in seeds:
            for grid in grids:
                for value, cfg, runs in grid:
                    try:
                        runs.append(run_metrics(run_simulation(cfg, seed)))
                    except Exception as exc:
                        raise RuntimeError(f"run failed for value={value!r} seed={seed}: {exc}") from exc
    return [SweepReport(strategy_kind=kind,
                        rows=tuple(_sweep_row(value, runs) for value, _, runs in grid),
                        runs={float(value): tuple(runs) for value, _, runs in grid})
            for (kind, _), grid in zip(plans, grids)]


def sweep(config: ScenarioConfig, strategy_kind: str, values: Sequence[float],
          seeds: Sequence[int]) -> SweepReport:
    """The one-plan ``sweeps``: |values| x |seeds| runs, one row per value."""
    return sweeps(config, [(strategy_kind, values)], seeds)[0]


def _sweep_row(value: float, per_seed: Sequence[RunMetrics]) -> SweepRow:
    pooled_counts = [float(c) for rm in per_seed for c in rm.nb_ho.values()]
    if len(pooled_counts) >= 2:
        ci_low, ci_high = confidence_interval(pooled_counts)
    else:
        ci_low = ci_high = pooled_counts[0]
    return SweepRow(
        value=float(value),
        runs=len(per_seed),
        mean_ho_rate=sum(rm.ho_rate for rm in per_seed) / len(per_seed),
        worst_ho=max(c for rm in per_seed for c in rm.nb_ho.values()),
        ci_low=ci_low,
        ci_high=ci_high,
        mean_score_rate=sum(rm.score_rate for rm in per_seed) / len(per_seed),
    )


def sweep_row_csv(r: SweepRow) -> str:
    """One SWEEP_HEADER row; floats use repr so they round-trip exactly."""
    return ",".join([
        repr(r.value), str(r.runs), repr(r.mean_ho_rate), str(r.worst_ho),
        repr(r.ci_low), repr(r.ci_high), repr(r.mean_score_rate),
    ])


def sweep_csv(report: SweepReport) -> str:
    lines = [SWEEP_SCHEMA, SWEEP_HEADER] + [sweep_row_csv(r) for r in report.rows]
    return "\n".join(lines) + "\n"
