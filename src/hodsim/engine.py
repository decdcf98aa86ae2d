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
QoS comes from a table by (AP, load).  With jitter, the noise of the whole
run is drawn at once and a jittered vector comes from a table by (step, AP,
load).  Each vector is scored once per (requirements, gate).

The run's log keeps, per terminal and step, a plain tuple of exactly the
last five fields of its ``events_*.csv`` row (associated AP, action,
``c_asso``, ``c_best``, suppressed), plus each terminal's handover count;
the time and the terminal id follow from the row's position.

Inside ``shared_worlds()`` the runs of one *family* (same seed,
``qos_model`` and config but for the strategy) share one record, a
``_Family``.  It holds what does not depend on the strategy: the world pass
and the tables (the QoS tables, the jitter noise, the scores and the initial
strategy-generator states; the step-k noise is the same in every run, so a
jittered vector is fixed by (step, AP, load)).  It also holds the latest
run's log and *tape*.  The strategy enters a run only through ``decide``,
which is called only where the base rule fires, so the tape is every step at
which it fired, with the loop state after phase (3).  A later run of the
family replays the tape through ``decide`` with its own strategy, wait times
and generators; at the first step whose outcomes differ it takes that step's
state, applies its own switches and executes normally from the next step.
If no step differs, it reuses the whole log.  Every row, ``decide`` call and
generator draw is the one a fresh run makes.  A scope holds one record, and
``metrics.sweeps`` runs seed by seed in one: each value executes only the
steps after its first difference from the value before, and a seed's record
is dropped before the next seed's is made.  Outside a scope a run builds the
same record without a tape and drops it.
"""

import hashlib
import math
from itertools import accumulate
from operator import attrgetter
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, fields
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from .decision import (
    HANDOVER,
    STAY,
    CombinedScore,
    Decision,
    best_candidate,
    decide,
    score_network,
)
# candidate_view and diffuse are not called here; they stay bound because
# perfbench/tracing.py wraps every collaborator by its name in this module.
from .knowledge import candidate_view, diffuse, known  # noqa: F401
from .mobility import init_mobility, step_mobility
from .radio import QosVector, ap_qos, apply_jitter, sensed_aps
from .scenario import ApProfile, ScenarioConfig, StabilityStrategy, strategy_violations, validate

EVENTS_SCHEMA = "# hodsim events schema v1"
EVENTS_HEADER = "time,mt,associated_ap,action,c_asso,c_best,suppressed"


# Logged for a terminal that holds no association at a step.
_UNASSOCIATED = (None, STAY, 0.0, 0.0, False)


class _Profile(NamedTuple):
    """One (requirements, gate) pair and its score memo: the id of each
    offered vector scored so far -> its score."""

    required: QosVector
    gated: bool
    memo: Dict[int, float]


@dataclass
class EventLog:
    """Everything one run produced, sufficient to recompute all metrics.

    ``outcomes[m][k]`` is terminal ``m`` at step ``k``, time ``k *
    decision_step``: the plain tuple ``(associated, action, c_asso, c_best,
    suppressed)``, the last five columns of its ``events_*.csv`` row.
    ``associated`` is the AP id or None; ``c_asso`` is the effective score of
    the associated network for this step (0 while unassociated or
    disconnected mid-switch); ``c_best`` is the best candidate's score (0
    without candidates).  Plain tuples, so the garbage collector stops
    tracking them.
    """

    seed: int
    config: ScenarioConfig
    mt_ids: List[str]
    outcomes: Dict[str, Tuple[tuple, ...]] = field(default_factory=dict)
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


_BLANK_SEED = np.random.SeedSequence(0)  # seeds a state _restored overwrites


def _restored(state: dict) -> np.random.Generator:
    """A generator in ``state``: cheaper than seeding its stream again."""
    rng = np.random.default_rng(_BLANK_SEED)
    rng.bit_generator.state = state
    return rng


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


# Most position x AP checks per sensing call, in whole steps (at least one).
_SENSE_BLOCK = 2 ** 14


def _world(config: ScenarioConfig, seed: int) -> _World:
    """Move every mobile terminal through the run, then record what it senses.

    Each terminal draws only from its own stream ``_stream(seed, "mobility",
    m)``, so its trajectory depends neither on the other terminals nor on the
    strategy, nor on what it senses.  So every step is moved first; then one
    ``sensed_aps`` call senses every user at t=0 and one call each block of
    whole steps, up to ``_SENSE_BLOCK`` position x AP checks per block.
    """
    dt, area, nb_steps = config.decision_step, config.area, config.nb_steps
    mobile = sorted((u for u in config.users if u.mobile), key=attrgetter("id"))
    n = len(mobile)
    interned: Dict[Tuple[str, ...], Tuple[str, ...]] = {}

    def sense(positions) -> Tuple[Tuple[str, ...], ...]:
        return tuple(interned.setdefault(hits, hits) for hits in sensed_aps(positions, config.aps))

    rngs = [_stream(seed, "mobility", u.id) for u in mobile]
    states = [init_mobility(u, area, rng) for u, rng in zip(mobile, rngs)]
    initial = sense([u.initial_position for u in sorted(config.users, key=attrgetter("id"))])
    xy = np.empty((nb_steps, n, 2))
    for k in range(nb_steps if n else 0):  # an empty list would not fit xy[k]
        states = [step_mobility(s, dt, area, u, rng) for s, u, rng in zip(states, mobile, rngs)]
        xy[k] = [s.position for s in states]
    xy.flags.writeable = False
    block = max(1, _SENSE_BLOCK // max(1, n * len(config.aps)))
    sensed = []
    for start in range(0, nb_steps, block):
        stop = min(start + block, nb_steps)
        hits = sense(xy[start:stop])
        sensed += [hits[i * n:(i + 1) * n] for i in range(stop - start)]
    return _World(initial, tuple(sensed), xy)


class _Step(NamedTuple):
    """One step of a run at which the base rule fired for some terminal.

    ``fired`` is the step's tape: ``(i, best_id)`` for each such terminal in
    order, plain tuples so that the garbage collector stops tracking them
    (the call's other inputs and outcome are in row ``i`` at step ``k``);
    ``rejoins`` holds its blind re-joins ``(i, ap_id)``.  The other fields
    and the rows' associated APs are the loop state after phase (3) that a
    later step reads; a resumed run rebuilds its QoS (see ``run_simulation``).
    """

    k: int
    fired: tuple
    rejoins: tuple
    disconnected: tuple
    views: tuple
    nb_ho: tuple
    current: dict


@dataclass(eq=False)
class _Family:
    """What the runs of one family share inside a ``shared_worlds()`` scope
    until another family's run replaces it (a run outside one drops it).

    The world pass; the model's vector by (AP, load), equal vectors being one
    object; the jittered vector by (step, AP, load); ``noise[k][j]``, the
    j-th AP's (in id order) at step k; the score profiles; each terminal's
    initial strategy-generator state.  Every vector a memo has scored stays
    here, so no id in a memo is reused.  Then the latest run's static loads,
    rows, handover counts and tape (``steps``); ``rows`` is None while no
    complete run's tape is attached.
    """

    seed: int
    config: ScenarioConfig
    qos_model: object
    world: _World
    offered: Dict[Tuple[str, int], QosVector] = field(default_factory=dict)
    interned: Dict[tuple, QosVector] = field(default_factory=dict)
    jittered: Dict[Tuple[int, str, int], QosVector] = field(default_factory=dict)
    noise: Optional[List[Tuple[Tuple[float, ...], ...]]] = None
    profiles: Dict[Tuple[tuple, bool], _Profile] = field(default_factory=dict)
    strategy: Optional[List[dict]] = None
    static_loads: Dict[str, int] = field(default_factory=dict)
    rows: Optional[Tuple[Tuple[tuple, ...], ...]] = None
    nb_ho: Tuple[int, ...] = ()
    steps: List[_Step] = field(default_factory=list)


# A family is a seed, a QoS model and a config less its strategy.
_FAMILY_FIELDS = tuple(f.name for f in fields(ScenarioConfig) if f.name != "strategy")

# The innermost open shared_worlds() scope's record, in a list of at most one;
# None outside.  A context variable, so each thread sees only its own scopes.
_slot: ContextVar[Optional[List[_Family]]] = ContextVar("hodsim_slot", default=None)


@contextmanager
def shared_worlds() -> Iterator[None]:
    """Let the runs of one family made inside the block share one record.

    A family is a seed, a ``qos_model`` and a config but for the strategy.
    Its record holds the family's world pass and tables, and its latest run
    with that run's tape: a later run replays the tape's decisions through
    ``decide`` and executes only from the first step whose outcomes differ.
    A block holds one record, which another family's run replaces; a block
    opened inside another holds its own and leaves the outer one's in place.
    """
    slot = _slot.set([])
    try:
        yield
    finally:
        _slot.reset(slot)


def _is_family(family: _Family, config: ScenarioConfig, seed: int, qos_model) -> bool:
    return (family.seed == seed and family.qos_model is qos_model
            and all(a is b or a == b for a, b in (
                (getattr(family.config, f), getattr(config, f)) for f in _FAMILY_FIELDS)))


def _replay(family: _Family, strategy: StabilityStrategy, waits: List[float],
            rngs: list, dt: float) -> Optional[Tuple[int, List[Decision]]]:
    """Feed the family's tape to ``decide`` with this run's strategy, wait
    times and generators, as a fresh run would, up to the first step whose
    outcomes differ from the tape.  Return that step's index in
    ``family.steps`` and this run's decisions at it, or None if no step
    differs."""
    rows = family.rows
    for index, step in enumerate(family.steps):
        k = step.k
        now = k * dt
        decisions = []
        differs = False
        for i, best_id in step.fired:
            _, action, c_asso, best_value, suppressed = rows[i][k]
            outcome = decide(c_asso, CombinedScore(best_id, best_value), strategy, waits[i],
                             now, rngs[i])
            waits[i] = outcome.wait_until
            decisions.append(outcome)
            differs = differs or outcome.action != action or outcome.suppressed != suppressed
        if differs:
            return index, decisions
    return None


def run_simulation(config: ScenarioConfig, seed: Optional[int] = None,
                   qos_model=ap_qos) -> EventLog:
    """Execute one run and return its event log.

    ``seed`` defaults to config.rng_seed.  ``qos_model(ap, load)`` may replace
    the default load-sharing model; it is called once per distinct (AP,
    load) the run (inside a ``shared_worlds()`` scope, its family) computes,
    so it must depend on nothing else.  With jitter on it must give each AP
    vectors of one length at every load, or ValueError names the AP.
    """
    if seed is None:
        seed = config.rng_seed
    slot = _slot.get()
    family = slot[0] if slot and _is_family(slot[0], config, seed, qos_model) else None
    # a family's record was made by a validated run, so only the strategy is new
    violations = validate(config) if family is None else strategy_violations(config.strategy)
    if violations:
        raise ValueError("invalid config: " + "; ".join(violations))
    if family is None:
        if slot:
            del slot[0]  # freed before the new record's world pass
        family = _Family(seed, config, qos_model, _world(config, seed))
        if slot is not None:
            slot.append(family)

    dt = config.decision_step
    mt_order = sorted(u.id for u in config.users if u.mobile)
    n = len(mt_order)
    # the time before which each terminal's waiting strategy holds it
    waits = [0.0] * n
    # only randomized_wait draws from its terminal's strategy stream
    strat_rng = [None] * n
    if config.strategy.kind == "randomized_wait":
        if family.strategy is None:
            family.strategy = [_stream(seed, "strategy", m).bit_generator.state for m in mt_order]
        strat_rng = [_restored(state) for state in family.strategy]
    resume = None
    if family.rows is not None:
        resume = _replay(family, config.strategy, waits, strat_rng, dt)
        if resume is None:
            return EventLog(seed=seed, config=config, mt_ids=mt_order,
                            outcomes=dict(zip(mt_order, family.rows)),
                            nb_ho=dict(zip(mt_order, family.nb_ho)))

    diffuse_every = int(round(config.diffusion_period / dt))
    sigma = config.qos_jitter_sigma
    aps = config.ap_by_id()
    ap_order = sorted(aps)
    users = {u.id: u for u in config.users}

    def offered(ap_id: str, load: int) -> QosVector:
        qos = family.offered.get((ap_id, load))
        if qos is None:
            qos = qos_model(aps[ap_id], load)
            qos = family.offered[ap_id, load] = family.interned.setdefault(tuple(qos.items()), qos)
        return qos

    # Within one family a score depends only on the offered QoS, the
    # requirements and the gate (criteria and max_benefit are fixed; the AP
    # id does not enter the value).  Equal offered vectors are one object and
    # a jittered vector is built once per (step, AP, load), so each vector is
    # scored once per profile and found again by its identity.
    def profile(required: QosVector, gated: bool) -> _Profile:
        key = (tuple(required.items()), gated)
        found = family.profiles.get(key)
        if found is None:
            found = family.profiles[key] = _Profile(required, gated, {})
        return found

    def score(ap_id: str, qos: QosVector, prof: _Profile) -> float:
        value = prof.memo.get(id(qos))
        if value is None:
            value = prof.memo[id(qos)] = score_network(
                ap_id, qos, prof.required, config.criteria,
                gated=prof.gated, max_benefit=config.max_benefit,
            ).value
        return value

    def switch(pending: List[Tuple[int, str, bool]]) -> None:
        # (4) apply switches atomically; they take effect next step
        for i, target, is_handover in pending:
            assoc[i] = target
            if is_handover:
                nb_ho[i] += 1
                disconnected[i] = config.handover_cost_steps

    gate = config.gate_candidates
    asso_profiles = [profile(users[m].app_requirements, True) for m in mt_order]
    cand_profiles = [profile(users[m].app_requirements, gate) for m in mt_order]
    # the steps this run records for its family; None outside a scope
    steps: Optional[List[_Step]] = None if slot is None else []
    if resume is None:
        # Initial association at t=0: users in id order greedily pick the
        # best sensed AP by live QoS, strategy-free; each pick loads the AP
        # for the next user's view.
        loads = dict.fromkeys(ap_order, 0)
        initial: Dict[str, Optional[str]] = {}
        for uid, sensed in zip(sorted(users), family.world.initial):
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

        assoc = [initial[m] for m in mt_order]
        disconnected = [0] * n
        rows: List[List[tuple]] = [[] for _ in mt_order]
        nb_ho = [0] * n
        # Each terminal's knowledge in closed form: the view its AP held at
        # the last round at which it was associated (see knowledge.known).
        views: List[Dict[str, QosVector]] = [{}] * n
        current: Dict[str, QosVector] = {}
        start = 0
    else:
        # Up to this step the run is its family's latest run: take that
        # run's state after phase (3), its rows with this run's outcomes
        # where the base rule fired, and go on from phase (4).
        index, decisions = resume
        step = family.steps[index]
        static_loads = family.static_loads
        assoc = [r[step.k][0] for r in family.rows]
        disconnected, views, nb_ho = list(step.disconnected), list(step.views), list(step.nb_ho)
        current = step.current
        rows = [list(r[:step.k + 1]) for r in family.rows]
        pending = [(i, ap_id, False) for i, ap_id in step.rejoins]
        for (i, _), outcome in zip(step.fired, decisions):
            ap_id, _, c_asso, c_best, _ = rows[i][-1]
            rows[i][-1] = (ap_id, outcome.action, c_asso, c_best, outcome.suppressed)
            if outcome.action == HANDOVER:
                pending.append((i, outcome.target, True))
        steps = family.steps[:index + 1]
        # this run replaces the tape; detach it now, so that its steps after
        # this one are freed while the run goes on and a run that fails
        # leaves the family without a tape rather than with half of one
        family.rows, family.steps = None, []
        switch(pending)
        start = step.k + 1
    # the next round moves current to previous before reading it, unless the
    # first step's qos_now equals current, when previous = current is right
    previous = current
    qos_now: Dict[str, QosVector] = {}
    last_loads: Optional[Dict[str, int]] = None
    # the views of the last diffusion round, by AP
    round_views: Dict[str, Dict[str, QosVector]] = {}

    for k in range(start, config.nb_steps):
        now = k * dt

        # (1) load and offered QoS per AP
        loads = dict(static_loads)
        for ap_id in assoc:
            if ap_id is not None:
                loads[ap_id] += 1
        if sigma > 0:
            if family.noise is None:
                # the whole run's noise in one draw, equal to one draw per
                # step; each AP takes a fixed share of a step's row
                sizes = [len(offered(a, loads[a])) for a in ap_order]
                drawn = _stream(seed, "qos-jitter").normal(0.0, sigma, (config.nb_steps, sum(sizes)))
                ends = list(accumulate(sizes))
                family.noise = [tuple(row[e - size:e] for size, e in zip(sizes, ends))
                                for row in map(tuple, drawn.tolist())]
            qos_now = {}
            for ap_id, noise in zip(ap_order, family.noise[k]):
                key = (k, ap_id, loads[ap_id])
                qos = family.jittered.get(key)
                if qos is None:
                    qos = offered(ap_id, loads[ap_id])
                    if len(qos) != len(noise):
                        raise ValueError(f"with jitter on, qos_model must give ap {ap_id!r} "
                                         "vectors of one length at every load")
                    qos = family.jittered[key] = apply_jitter(qos, noise)
                qos_now[ap_id] = qos
        elif loads != last_loads:
            qos_now = {ap_id: offered(ap_id, loads[ap_id]) for ap_id in ap_order}
            qos_now = current if qos_now == current else qos_now  # keeps its views
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
        pending = []
        fired = []
        for i, sensed in enumerate(family.world.sensed[k]):
            ap_id = assoc[i]
            if ap_id is not None and ap_id not in sensed:
                # walked out of coverage: connectivity lost, not a handover
                assoc[i] = ap_id = None

            if disconnected[i]:
                disconnected[i] -= 1
                rows[i].append((ap_id, STAY, 0.0, 0.0, False))
                continue

            if ap_id is None:
                xy = family.world.xy[k, i]
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
                c_asso = prof.memo.get(id(qos))
                c_asso = score(ap_id, qos, prof) if c_asso is None else c_asso

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
                value = prof.memo.get(id(qos))
                value = score(cand, qos, prof) if value is None else value
                if best_id is None or value > best_value or (value == best_value and cand < best_id):
                    best_id = cand
                    best_value = value

            # Unless the best candidate beats the associated network, the base
            # rule does not fire and decide would keep the terminal in place,
            # unsuppressed, with its wait time and rng untouched.
            if best_id is None or best_value <= c_asso:
                rows[i].append((ap_id, STAY, c_asso, best_value, False))
                continue
            outcome = decide(c_asso, CombinedScore(best_id, best_value), config.strategy, waits[i],
                             now, strat_rng[i])
            waits[i] = outcome.wait_until
            if outcome.action == HANDOVER:
                pending.append((i, outcome.target, True))
            rows[i].append((ap_id, outcome.action, c_asso, best_value, outcome.suppressed))
            fired.append((i, best_id))

        # only a step at which the base rule fired can differ between the
        # runs of a family, so only such a step is recorded
        if steps is not None and fired:
            steps.append(_Step(
                k, tuple(fired), tuple((i, t) for i, t, h in pending if not h),
                tuple(disconnected), tuple(views), tuple(nb_ho), current))
        switch(pending)

    # the log is frozen once, and a family keeps the same tuples
    log = tuple(tuple(r) for r in rows)
    if steps is not None:
        family.static_loads, family.nb_ho, family.steps = static_loads, tuple(nb_ho), steps
        family.rows = log
    return EventLog(seed=seed, config=config, mt_ids=mt_order,
                    outcomes=dict(zip(mt_order, log)), nb_ho=dict(zip(mt_order, nb_ho)))


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
