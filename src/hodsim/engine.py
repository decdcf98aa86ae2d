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

The decision pass keeps knowledge in its closed form (see ``knowledge``):
after a diffusion round an AP knows its own QoS of that round and each wired
neighbor's QoS of the round before, nothing else.  So a terminal's
knowledge is just the view its AP held at the last round at which the
terminal was associated, and no record is ever copied or merged.  Offered
QoS comes from a per-run table by (AP, load), and each distinct scoring
input is scored once per run.

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
# candidate_view and diffuse are not called here; they stay bound because
# perfbench/tracing.py wraps every collaborator by its name in this module.
from .knowledge import candidate_view, diffuse, known  # noqa: F401
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


class _Profile(NamedTuple):
    """One (requirements, gate) pair of a run and its score memo: the id of
    each offered vector scored so far -> (that vector, its score)."""

    required: QosVector
    items: tuple
    gated: bool
    memo: Dict[int, Tuple[QosVector, float]]


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
    the default load-sharing model; it is called once per distinct (AP,
    load) of the run, so it must depend on nothing else.
    """
    violations = validate(config)
    if violations:
        raise ValueError("invalid config: " + "; ".join(violations))
    if seed is None:
        seed = config.rng_seed

    dt = config.decision_step
    diffuse_every = int(round(config.diffusion_period / dt))
    sigma = config.qos_jitter_sigma
    aps = config.ap_by_id()
    ap_order = sorted(aps)
    users = {u.id: u for u in config.users}
    user_order = sorted(users)
    mt_order = sorted(u.id for u in config.users if u.mobile)

    world = _world_for(config, seed)
    strat_rng = [_stream(seed, "strategy", m) for m in mt_order]
    jitter_rng = _stream(seed, "qos-jitter")

    table: Dict[Tuple[str, int], QosVector] = {}

    def offered(ap_id: str, load: int) -> QosVector:
        qos = table.get((ap_id, load))
        if qos is None:
            qos = table[ap_id, load] = qos_model(aps[ap_id], ApLoadState(ap_id, load))
        return qos

    # Within one run a score depends only on the offered QoS, the
    # requirements and the gate: criteria, objectives and max_benefit are
    # fixed, and the AP id does not enter the value.  So each distinct input
    # is scored once, with every check score_network makes.  A vector seen
    # before is found by its identity in its profile's memo; the memo entry
    # holds the vector, so the id cannot be reused within the run.
    scores: Dict[Tuple[tuple, tuple, bool], float] = {}
    profiles: Dict[Tuple[tuple, bool], _Profile] = {}

    def profile(required: QosVector, gated: bool) -> _Profile:
        items = tuple(required.items())
        found = profiles.get((items, gated))
        if found is None:
            found = profiles[items, gated] = _Profile(required, items, gated, {})
        return found

    def score(ap_id: str, qos: QosVector, prof: _Profile) -> float:
        entry = prof.memo.get(id(qos))
        if entry is None:
            key = (tuple(qos.items()), prof.items, prof.gated)
            value = scores.get(key)
            if value is None:
                value = scores[key] = score_network(
                    ap_id, qos, prof.required, config.criteria, config.objectives,
                    gated=prof.gated, max_benefit=config.max_benefit,
                ).value
            entry = prof.memo[id(qos)] = (qos, value)
        return entry[1]

    # Initial association at t=0: users in id order greedily pick the best
    # sensed AP by live QoS, strategy-free; each pick loads the AP for the
    # next user's view.
    gate = config.gate_candidates
    loads = dict.fromkeys(ap_order, 0)
    initial: Dict[str, Optional[str]] = {}
    for uid, sensed in zip(user_order, world.initial):
        prof = profile(users[uid].app_requirements, gate)
        best = best_candidate([
            CombinedScore(ap_id, score(ap_id, offered(ap_id, loads[ap_id]), prof))
            for ap_id in sensed
        ])
        initial[uid] = best.ap_id if best is not None else None
        if best is not None:
            loads[best.ap_id] += 1
    # stationary users never move, so they keep their AP and its load
    static_loads = dict.fromkeys(ap_order, 0)
    for uid, ap_id in initial.items():
        if ap_id is not None and not users[uid].mobile:
            static_loads[ap_id] += 1

    n = len(mt_order)
    assoc = [initial[m] for m in mt_order]
    asso_profiles = [profile(users[m].app_requirements, True) for m in mt_order]
    cand_profiles = [profile(users[m].app_requirements, gate) for m in mt_order]
    states = [StrategyState.from_strategy(config.strategy)] * n
    disconnected = [0] * n
    rows: List[List[DecisionOutcome]] = [[] for _ in mt_order]
    nb_ho = [0] * n
    # Each terminal's knowledge in closed form: the view its AP held at the
    # last round at which it was associated (see knowledge.known).
    views: List[Dict[str, QosVector]] = [{}] * n
    current: Dict[str, QosVector] = {}
    previous = current
    round_views: Dict[str, Dict[str, QosVector]] = {}
    qos_now: Dict[str, QosVector] = {}
    last_loads: Optional[Dict[str, int]] = None

    for k in range(config.nb_steps):
        now = k * dt

        # (1) load and offered QoS per AP
        loads = dict(static_loads)
        for ap_id in assoc:
            if ap_id is not None:
                loads[ap_id] += 1
        if sigma > 0:
            qos_now = {ap_id: apply_jitter(offered(ap_id, loads[ap_id]), sigma, jitter_rng)
                       for ap_id in ap_order}
        elif loads != last_loads:
            qos_now = {ap_id: offered(ap_id, loads[ap_id]) for ap_id in ap_order}
            last_loads = loads

        # (2) diffusion round: every associated terminal takes its AP's view;
        # while the measured QoS repeats, the views of the last round do too
        if k % diffuse_every == 0:
            if qos_now is not current or previous is not current:
                previous, current = current, qos_now
                round_views = {}
            for i, ap_id in enumerate(assoc):
                if ap_id is not None:
                    view = round_views.get(ap_id)
                    if view is None:
                        view = round_views[ap_id] = known(
                            ap_id, aps[ap_id].wired_neighbors, current, previous)
                    views[i] = view

        # (3) per-terminal decisions against a frozen snapshot; movement
        # and sensing come from the world pass
        pending: List[Tuple[int, str, bool]] = []
        for i, sensed in enumerate(world.sensed[k]):
            ap_id = assoc[i]
            if ap_id is not None and ap_id not in sensed:
                # walked out of coverage: connectivity lost, not a handover
                assoc[i] = ap_id = None

            if disconnected[i]:
                disconnected[i] -= 1
                rows[i].append(DecisionOutcome(ap_id, STAY, 0.0, 0.0, False))
                continue

            if ap_id is None:
                xy = world.xy[k, i]
                target = _nearest_usable((float(xy[0]), float(xy[1])), sensed, aps, qos_now)
                if target is not None:
                    pending.append((i, target, False))
                rows[i].append(_UNASSOCIATED)
                continue

            view = views[i]
            qos = view.get(ap_id)
            c_asso = 0.0
            if qos is not None:
                prof = asso_profiles[i]
                entry = prof.memo.get(id(qos))
                c_asso = entry[1] if entry is not None else score(ap_id, qos, prof)

            # one pass for the best candidate; ties go to the lowest AP id,
            # as in best_candidate
            prof = cand_profiles[i]
            best_id = None
            best_value = 0.0
            for cand in sensed:
                if cand == ap_id:
                    continue
                qos = view.get(cand)
                if qos is None:
                    continue
                entry = prof.memo.get(id(qos))
                value = entry[1] if entry is not None else score(cand, qos, prof)
                if best_id is None or value > best_value or (value == best_value and cand < best_id):
                    best_id = cand
                    best_value = value

            # Unless the best candidate beats the associated network, the base
            # rule does not fire and decide would keep the terminal in place,
            # unsuppressed, with its state and rng untouched.
            if best_id is None or best_value <= c_asso:
                rows[i].append(DecisionOutcome(ap_id, STAY, c_asso, best_value, False))
                continue
            outcome = decide(c_asso, CombinedScore(best_id, best_value), states[i], now, strat_rng[i])
            states[i] = outcome.state
            if outcome.action == HANDOVER:
                pending.append((i, outcome.target, True))
            rows[i].append(DecisionOutcome(
                ap_id, outcome.action, c_asso, best_value, outcome.suppressed))

        # (4) apply switches atomically; they take effect next step
        for i, target, is_handover in pending:
            assoc[i] = target
            if is_handover:
                nb_ho[i] += 1
                disconnected[i] = config.handover_cost_steps

    return EventLog(seed=seed, config=config, mt_ids=list(mt_order),
                    outcomes=dict(zip(mt_order, rows)), nb_ho=dict(zip(mt_order, nb_ho)))


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
