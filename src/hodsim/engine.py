"""Deterministic discrete-time simulation loop.

One run is fully determined by (config, seed) and has two passes.  The
world pass moves every mobile terminal and records what it senses at each
step; it draws only from the per-terminal mobility streams, so it does not
depend on the strategy.  The decision pass then walks the steps in fixed
order: AP load and QoS are recomputed, knowledge diffuses on period
boundaries, every terminal evaluates its decision, and handovers are applied
atomically so association switches take effect on the next step.  Switching
costs one disconnected step (configurable) during which the terminal scores
zero and makes no decision, reflecting the break-before-make nature of WLAN
re-association.

The run's log keeps, per terminal and step, exactly the five fields of its
``events_*.csv`` row (associated AP, action, ``c_asso``, ``c_best``,
suppressed), plus each terminal's handover count; the time and the terminal
id follow from the row's position.

Inside ``shared_worlds()`` runs with the same world inputs reuse one world
pass; ``metrics.sweep`` opens that scope so each seed's world is computed
once per sweep.  Outside it every run computes its own.
"""

import hashlib
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from .decision import (
    HANDOVER,
    STAY,
    CombinedScore,
    StrategyState,
    best_candidate,
    decide,
    score_network,
)
from .knowledge import KnowledgeBase, candidate_view, diffuse
from .mobility import init_mobility, step_mobility
from .radio import ApLoadState, QosVector, ap_qos, apply_jitter, sensed_aps
from .scenario import ApProfile, ScenarioConfig, validate

EVENTS_SCHEMA = "# hodsim events schema v1"
EVENTS_HEADER = "time,mt,associated_ap,action,c_asso,c_best,suppressed"


class DecisionOutcome(NamedTuple):
    """One terminal's logged step: the fields of its ``events_*.csv`` row.

    ``c_asso`` is the effective score of the associated network for this step
    (0 while unassociated or disconnected mid-switch); ``c_best`` is the best
    candidate's score (0 without candidates).
    """

    associated: Optional[str]
    action: str
    c_asso: float
    c_best: float
    suppressed: bool


# Logged for a terminal that holds no association at a step.
_UNASSOCIATED = DecisionOutcome(None, STAY, 0.0, 0.0, False)


@dataclass
class EventLog:
    """Everything one run produced, sufficient to recompute all metrics.

    ``outcomes[m][k]`` is terminal ``m`` at step ``k``, time ``k *
    decision_step``.
    """

    seed: int
    config: ScenarioConfig
    mt_ids: List[str]
    outcomes: Dict[str, List[DecisionOutcome]] = field(default_factory=dict)
    nb_ho: Dict[str, int] = field(default_factory=dict)

    @property
    def nb_steps(self) -> int:
        return self.config.nb_steps


def _stream(seed: int, *labels: str) -> np.random.Generator:
    """Independent generator for (seed, labels); stable across runs and
    unaffected by how many other streams exist."""
    digest = hashlib.sha256("/".join(labels).encode("utf-8")).digest()
    words = [int.from_bytes(digest[i:i + 4], "big") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence([int(seed)] + words))


@dataclass(frozen=True, eq=False)
class _World:
    """The strategy-independent part of one run.

    ``initial[i]`` is what the i-th user in id order senses at t=0;
    ``sensed[k][i]`` and ``xy[k, i]`` are what the i-th mobile terminal in id
    order senses, and where it is, after the move of step ``k``.  Equal
    sensed tuples are one object, and ``xy`` is read-only.
    """

    initial: Tuple[Tuple[str, ...], ...]
    sensed: Tuple[Tuple[Tuple[str, ...], ...], ...]
    xy: np.ndarray


def _world(config: ScenarioConfig, seed: int) -> _World:
    """Move every mobile terminal through the run and record what it senses.

    Each terminal draws only from its own stream ``_stream(seed, "mobility",
    m)``, so its trajectory depends neither on the other terminals nor on the
    strategy.  A paused terminal keeps its previous sensed tuple instead of
    being sensed again.
    """
    dt = config.decision_step
    users = {u.id: u for u in config.users}
    mt_order = sorted(u.id for u in config.users if u.mobile)
    interned: Dict[Tuple[str, ...], Tuple[str, ...]] = {}

    def sense(position: Tuple[float, float]) -> Tuple[str, ...]:
        hits = tuple(sensed_aps(position, config.aps))
        return interned.setdefault(hits, hits)

    rngs = [_stream(seed, "mobility", m) for m in mt_order]
    states = [init_mobility(users[m], config.area, rng) for m, rng in zip(mt_order, rngs)]
    initial = {uid: sense(users[uid].initial_position) for uid in sorted(users)}
    last = [(users[m].initial_position, initial[m]) for m in mt_order]
    xy = np.empty((config.nb_steps, len(mt_order), 2))
    sensed = []
    for k in range(config.nb_steps):
        row = []
        for i, m in enumerate(mt_order):
            states[i] = step_mobility(states[i], dt, config.area, users[m], rngs[i])
            position = states[i].position
            if position != last[i][0]:
                last[i] = (position, sense(position))
            row.append(last[i][1])
            xy[k, i] = position
        sensed.append(tuple(row))
    xy.flags.writeable = False
    return _World(tuple(initial.values()), tuple(sensed), xy)


# The worlds of the innermost open shared_worlds() scope; None outside one.
# A context variable, so each thread sees only the scopes it opened.
_worlds: ContextVar[Optional[Dict[tuple, _World]]] = ContextVar("hodsim_worlds", default=None)


@contextmanager
def shared_worlds() -> Iterator[None]:
    """Let the runs made inside the block share world passes.

    Runs whose world inputs are equal get the same (immutable) world; the
    worlds are dropped when the outermost block exits.  A block opened inside
    another joins it.
    """
    if _worlds.get() is not None:
        yield
        return
    token = _worlds.set({})
    try:
        yield
    finally:
        _worlds.reset(token)


def _world_for(config: ScenarioConfig, seed: int) -> _World:
    worlds = _worlds.get()
    if worlds is None:
        return _world(config, seed)
    # every input _world reads
    key = (
        seed, config.area, config.decision_step, config.nb_steps,
        tuple((u.id, u.mobile, u.initial_position, u.speed, u.pause_range)
              for u in config.users),
        tuple((ap.id, ap.position, ap.coverage_radius) for ap in config.aps),
    )
    world = worlds.get(key)
    if world is None:
        world = worlds[key] = _world(config, seed)
    return world


def run_simulation(config: ScenarioConfig, seed: Optional[int] = None,
                   qos_model=ap_qos) -> EventLog:
    """Execute one run and return its event log.

    ``seed`` defaults to config.rng_seed.  ``qos_model(ap, load)`` may replace
    the default load-sharing model.
    """
    violations = validate(config)
    if violations:
        raise ValueError("invalid config: " + "; ".join(violations))
    if seed is None:
        seed = config.rng_seed

    dt = config.decision_step
    nb_steps = config.nb_steps
    diffuse_every = int(round(config.diffusion_period / dt))
    aps = config.ap_by_id()
    ap_order = sorted(aps)
    neighbors = {ap_id: aps[ap_id].wired_neighbors for ap_id in ap_order}
    users = {u.id: u for u in config.users}
    user_order = sorted(users)
    mt_order = sorted(u.id for u in config.users if u.mobile)

    world = _world_for(config, seed)
    strat_rng = {m: _stream(seed, "strategy", m) for m in mt_order}
    jitter_rng = _stream(seed, "qos-jitter")

    # Within one run a score depends only on the offered QoS, the
    # requirements and the gate: criteria, objectives and max_benefit are
    # fixed, and the AP id does not enter the value.  So each distinct input
    # is scored once, with every check score_network makes.
    scores: Dict[Tuple[tuple, tuple, bool], float] = {}

    def score(ap_id: str, offered: QosVector, required: QosVector, gated: bool) -> float:
        key = (tuple(offered.items()), tuple(required.items()), gated)
        value = scores.get(key)
        if value is None:
            value = scores[key] = score_network(
                ap_id, offered, required, config.criteria, config.objectives,
                gated=gated, max_benefit=config.max_benefit,
            ).value
        return value

    log = EventLog(seed=seed, config=config, mt_ids=list(mt_order),
                   outcomes={m: [] for m in mt_order}, nb_ho={m: 0 for m in mt_order})

    # Initial association at t=0: users in id order greedily pick the best
    # sensed AP by live QoS, strategy-free; each pick loads the AP for the
    # next user's view.
    associations: Dict[str, Optional[str]] = {}
    loads = {ap_id: 0 for ap_id in ap_order}
    for uid, sensed in zip(user_order, world.initial):
        required = users[uid].app_requirements
        chosen = None
        if sensed:
            scored = [
                CombinedScore(ap_id, score(
                    ap_id, qos_model(aps[ap_id], ApLoadState(ap_id, loads[ap_id])),
                    required, config.gate_candidates))
                for ap_id in sensed
            ]
            best = best_candidate(scored)
            chosen = best.ap_id
            loads[chosen] += 1
        associations[uid] = chosen

    strategy_states = {m: StrategyState.from_strategy(config.strategy) for m in mt_order}
    ap_bases = {ap_id: KnowledgeBase(owner=ap_id) for ap_id in ap_order}
    mt_bases = {m: KnowledgeBase(owner=m) for m in mt_order}
    disconnected = {m: 0 for m in mt_order}

    for k in range(nb_steps):
        now = k * dt

        # (1) load and offered QoS per AP
        loads = {ap_id: 0 for ap_id in ap_order}
        for uid in user_order:
            ap_id = associations[uid]
            if ap_id is not None:
                loads[ap_id] += 1
        qos_now: Dict[str, QosVector] = {
            ap_id: apply_jitter(
                qos_model(aps[ap_id], ApLoadState(ap_id, loads[ap_id])),
                config.qos_jitter_sigma,
                jitter_rng,
            )
            for ap_id in ap_order
        }

        # (2) knowledge diffusion on period boundaries
        if k % diffuse_every == 0:
            mt_assoc = {m: associations[m] for m in mt_order}
            ap_bases, fresh = diffuse(ap_bases, neighbors, qos_now, mt_assoc, now)
            mt_bases.update(fresh)

        # (3) per-terminal decisions against a frozen snapshot; movement
        # and sensing come from the world pass
        pending: Dict[str, Tuple[str, bool]] = {}
        for i, m in enumerate(mt_order):
            required = users[m].app_requirements
            sensed = world.sensed[k][i]
            assoc = associations[m]

            if assoc is not None and assoc not in sensed:
                # walked out of coverage: connectivity lost, not a handover
                associations[m] = None
                assoc = None

            if disconnected[m] > 0:
                disconnected[m] -= 1
                log.outcomes[m].append(DecisionOutcome(assoc, STAY, 0.0, 0.0, False))
                continue

            if assoc is None:
                xy = world.xy[k, i]
                target = _nearest_usable((float(xy[0]), float(xy[1])), sensed, aps, qos_now)
                if target is not None:
                    pending[m] = (target, False)
                log.outcomes[m].append(_UNASSOCIATED)
                continue

            base = mt_bases[m]
            record = base.records.get(assoc)
            c_asso = score(assoc, record.qos, required, True) if record is not None else 0.0

            cands = candidate_view(base, sensed, assoc, now)
            scored = [
                CombinedScore(ap_id, score(ap_id, qos, required, config.gate_candidates))
                for ap_id, qos, _age in cands
            ]
            best = best_candidate(scored)
            outcome = decide(c_asso, best, strategy_states[m], now, strat_rng[m])
            strategy_states[m] = outcome.state
            if outcome.action == HANDOVER:
                pending[m] = (outcome.target, True)
            log.outcomes[m].append(DecisionOutcome(
                assoc, outcome.action, c_asso,
                best.value if best is not None else 0.0, outcome.suppressed))

        # (4) apply switches atomically; they take effect next step
        for m, (target, is_handover) in pending.items():
            associations[m] = target
            if is_handover:
                log.nb_ho[m] += 1
                disconnected[m] = config.handover_cost_steps

    return log


def _nearest_usable(position: Tuple[float, float], sensed: Tuple[str, ...],
                    aps: Dict[str, ApProfile], qos_now: Dict[str, QosVector]) -> Optional[str]:
    """Blind (re-)association: nearest sensed AP currently offering any
    nonzero QoS, ties broken by id.  An unassociated terminal holds no usable
    knowledge, so this models a plain strongest-signal join rather than a
    scored decision."""
    best = None
    for ap_id in sensed:
        if not any(v > 0 for v in qos_now[ap_id].values()):
            continue
        ap = aps[ap_id]
        d = math.hypot(ap.position[0] - position[0], ap.position[1] - position[1])
        if best is None or d < best[0]:
            best = (d, ap_id)
    return best[1] if best is not None else None


def events_csv(log: EventLog) -> str:
    """Line-oriented CSV of the run, one row per terminal per step.

    Floats use repr so the file round-trips exactly; identical (config, seed)
    runs produce byte-identical output.
    """
    lines = [EVENTS_SCHEMA, EVENTS_HEADER]
    dt = log.config.decision_step
    for k in range(log.nb_steps):
        time = repr(k * dt)
        for m in log.mt_ids:
            associated, action, c_asso, c_best, suppressed = log.outcomes[m][k]
            lines.append(",".join([
                time,
                m,
                associated if associated is not None else "",
                action,
                repr(c_asso),
                repr(c_best),
                "1" if suppressed else "0",
            ]))
    return "\n".join(lines) + "\n"
