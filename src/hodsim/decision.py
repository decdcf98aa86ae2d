"""Handover decision logic: utility scoring, candidate selection, and the
stability strategies that suppress unnecessary switches.

Each QoS criterion is first normalized to a benefit value (cost criteria are
inverted), then mapped through the saturating utility ``1 - exp(-alpha * x)``,
and the utilities are summed, in criteria order, into a network's score, a
value in [0, k) for k criteria.  Strategies compare these scores.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .radio import QosVector
from .scenario import DecisionCriterion, StabilityStrategy

STAY = "stay"
HANDOVER = "handover"


class CombinedScore(NamedTuple):
    ap_id: str
    value: float


@dataclass(frozen=True)
class StrategyState:
    """Per-terminal strategy memory.  ``parameter`` is the hysteresis margin
    or the (maximum) waiting time; ``wait_until`` is the simulated time before
    which waiting strategies suppress further handovers."""

    kind: str
    parameter: float
    wait_until: float = 0.0

    @classmethod
    def from_strategy(cls, strategy: StabilityStrategy) -> "StrategyState":
        return cls(kind=strategy.kind, parameter=strategy.parameter)


class Decision(NamedTuple):
    action: str
    target: Optional[str]
    suppressed: bool
    state: StrategyState


# Largest float64 strictly below 1; deep saturation clamps here so the
# utility range stays [0, 1) even where 1 - exp(-a*x) would round to 1.0.
_ONE_BELOW = 1.0 - 2.0 ** -53


def utility(x: float, alpha: float) -> float:
    """Saturating utility of a normalized benefit value; strictly increasing
    until float saturation, 0 at x=0, always strictly below 1."""
    if x < 0:
        raise ValueError("x must be >= 0")
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    return min(-math.expm1(-alpha * x), _ONE_BELOW)


def normalize_criterion(raw: float, criterion: DecisionCriterion,
                        max_benefit: float = 1e6) -> float:
    """Turn a raw QoS value into a benefit value (larger is better).

    Benefit criteria pass through; cost criteria are inverted, with 1/0
    capped at ``max_benefit`` (the utility saturates long before the cap
    matters, so capping cannot flip a comparison).
    """
    if raw < 0:
        raise ValueError("raw QoS values must be >= 0")
    if criterion.direction == "benefit":
        return raw
    if raw == 0.0:
        return max_benefit
    return min(1.0 / raw, max_benefit)


def meets_requirements(offered: QosVector, required: QosVector,
                       criteria: Sequence[DecisionCriterion]) -> bool:
    """Requirement gate: fails if any benefit value is below its floor or any
    cost value is above its cap.  A requirement of 0 means unconstrained (a
    cost cap of 0 would forbid everything, so 0 is reserved for "no limit")."""
    for c in criteria:
        req = required[c.id]
        if req == 0.0:
            continue
        value = offered[c.id]
        if c.direction == "benefit" and value < req:
            return False
        if c.direction == "cost" and value > req:
            return False
    return True


def score_network(ap_id: str, offered: QosVector, required: QosVector,
                  criteria: Sequence[DecisionCriterion],
                  gated: bool = True, max_benefit: float = 1e6) -> CombinedScore:
    """Score of one network: the sum of per-criterion utilities in criteria
    order, forced to zero when the offered QoS misses the requirements (if
    gated)."""
    for c in criteria:
        if c.id not in offered:
            missing = set(c.id for c in criteria) - set(offered)
            raise ValueError(f"offered QoS missing criteria {sorted(missing)}")
    value = 0.0
    if not gated or meets_requirements(offered, required, criteria):
        for c in criteria:
            value += utility(normalize_criterion(offered[c.id], c, max_benefit), c.alpha)
    return CombinedScore(ap_id, value)


def best_candidate(candidates: Sequence[CombinedScore]) -> Optional[CombinedScore]:
    """Highest combined score; ties go to the lowest AP id; None if empty."""
    best = None
    for c in candidates:
        if best is None or c.value > best.value or (c.value == best.value and c.ap_id < best.ap_id):
            best = c
    return best


def decide(c_asso: float, best: Optional[CombinedScore], state: StrategyState,
           now: float, rng: Optional[np.random.Generator] = None) -> Decision:
    """Apply the decision rule plus the stability strategy for one terminal.

    Base rule: switch when the best candidate strictly beats the associated
    network.  Hysteresis additionally requires the candidate to clear the
    margin; waiting strategies let the base rule fire but refuse to execute
    within the wait window, re-arming the window on every executed handover
    (fixed length, or drawn uniformly in [0, parameter] for the randomized
    variant).  ``suppressed`` marks decisions where the base rule fired but
    the strategy held the terminal in place.
    """
    if c_asso < 0:
        raise ValueError("c_asso must be >= 0")
    if best is None:
        return Decision(STAY, None, False, state)

    fires = best.value > c_asso
    if not fires:
        return Decision(STAY, None, False, state)

    if state.kind == "hysteresis":
        if best.value > c_asso + state.parameter:
            return Decision(HANDOVER, best.ap_id, False, state)
        return Decision(STAY, None, True, state)

    if state.kind in ("waiting_time", "randomized_wait"):
        if now < state.wait_until:
            return Decision(STAY, None, True, state)
        if state.kind == "waiting_time":
            wait = state.parameter
        else:
            if rng is None:
                raise ValueError("randomized_wait requires an rng")
            wait = float(rng.uniform(0.0, state.parameter))
        return Decision(HANDOVER, best.ap_id, False,
                        StrategyState(state.kind, state.parameter, now + wait))

    return Decision(HANDOVER, best.ap_id, False, state)
