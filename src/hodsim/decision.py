"""Handover decision logic: utility scoring, candidate selection, and the
stability strategies that suppress unnecessary switches.

Each QoS criterion is first normalized to a benefit value (cost criteria are
inverted), then mapped through the saturating utility ``1 - exp(-alpha * x)``,
and the utilities are summed, in criteria order, into a network's score, a
value in [0, k) for k criteria.  Strategies compare these scores.
"""

import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .radio import QosVector
from .scenario import DecisionCriterion, StabilityStrategy

STAY = "stay"
HANDOVER = "handover"


class CombinedScore(NamedTuple):
    ap_id: str
    value: float


class Decision(NamedTuple):
    """One terminal's decision and the ``wait_until`` it leaves (see ``decide``)."""

    action: str
    suppressed: bool
    wait_until: float


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


def clears_margin(c_asso: float, c_best: float, margin: float) -> bool:
    """Hysteresis's rule: ``c_best`` beats ``c_asso`` by more than ``margin``."""
    return c_best > c_asso + margin


def decide(c_asso: float, c_best: Optional[float], strategy: StabilityStrategy,
           wait_until: float, now: float,
           rng: Optional[np.random.Generator] = None) -> Decision:
    """Apply the decision rule plus the run's stability strategy for one
    terminal, which may not hand over again before ``wait_until``.

    Base rule: switch when the best candidate's score ``c_best`` (None
    without candidates; the caller knows its AP) strictly beats ``c_asso``.
    Hysteresis additionally requires ``clears_margin`` with the margin
    ``strategy.parameter`` and draws nothing; waiting strategies let the base
    rule fire but refuse to execute before ``wait_until``, and every executed
    handover returns a new one, ``now`` plus the wait (``parameter``, or drawn
    uniformly in [0, parameter] for the randomized variant).  Otherwise the
    returned ``wait_until`` is the one passed in.  ``suppressed`` marks
    decisions where the base rule fired but the strategy held the terminal in
    place.
    """
    if c_asso < 0:
        raise ValueError("c_asso must be >= 0")
    if c_best is None or c_best <= c_asso:
        return Decision(STAY, False, wait_until)

    kind, parameter = strategy.kind, strategy.parameter
    if kind == "hysteresis":
        handover = clears_margin(c_asso, c_best, parameter)
        return Decision(HANDOVER if handover else STAY, not handover, wait_until)

    if kind in ("waiting_time", "randomized_wait"):
        if now < wait_until:
            return Decision(STAY, True, wait_until)
        if kind == "waiting_time":
            wait = parameter
        else:
            if rng is None:
                raise ValueError("randomized_wait requires an rng")
            wait = float(rng.uniform(0.0, parameter))
        return Decision(HANDOVER, False, now + wait)

    return Decision(HANDOVER, False, wait_until)
