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
a terminal's knowledge is the view its AP held at the last round at which
it was associated, and no record is ever copied or merged.  The pass holds
APs by index (0..A-1 in id order) and QoS vectors by number: loads are a
list, and what a terminal senses, the measured QoS and each view are tuples
by AP index.  A vector's number indexes its family's table of vectors and
each score memo.  Offered vectors come from a table by (AP, load); with
jitter, the whole run's noise is drawn at once and a jittered vector comes
from a table by (step, AP, load).  Each vector is scored once per
(requirements, gate).  AP ids come back only in the log's rows and in the
calls of ``score_network``, ``best_candidate`` and the QoS model.

The run's log keeps, per terminal and step, a plain tuple of exactly the
last five fields of its ``events_*.csv`` row (associated AP id, action,
``c_asso``, ``c_best``, suppressed), plus each terminal's handover count;
the time and the terminal id follow from the row's position.

Inside ``shared_worlds()`` the runs of one *family* (same seed,
``qos_model`` and config but for the strategy) share one record, a
``_Family``: its world pass, start and tables, and its latest hysteresis
run's log and *tape*.  The strategy enters a run only through ``decide``,
which is called only where the base rule fires, so the tape is every step at
which it fired, with the loop state at its start.  A later hysteresis run
checks the tape by its margin (see ``_replay``) and executes from the start
of the first step whose outcomes differ, or reuses the whole log; other runs
execute every step from the family's start and leave the tape in place.
Every row, ``decide`` call and generator draw is the one a fresh run makes,
but for the ``decide`` calls a replay skips.  Outside a scope a run builds
the same record without a tape and drops it.
"""

import hashlib
import math
from itertools import accumulate
from operator import attrgetter
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from .decision import (
    HANDOVER,
    STAY,
    CombinedScore,
    best_candidate,
    clears_margin,
    decide,
    score_network,
)
from .knowledge import known
from .mobility import init_mobility, step_mobility, walk_mobility
from .radio import QosVector, ap_qos, apply_jitter, sensed_aps
from .scenario import ScenarioConfig, strategy_violations, validate

# Nothing calls these or step_mobility (each terminal walks once), but
# perfbench/tracing.py wraps all three, and init_mobility, by their names here.
diffuse = candidate_view = None

EVENTS_SCHEMA = "# hodsim events schema v1"
EVENTS_HEADER = "time,mt,associated_ap,action,c_asso,c_best,suppressed"


# Logged for a terminal that holds no association at a step.
_UNASSOCIATED = (None, STAY, 0.0, 0.0, False)


class _Profile(NamedTuple):
    """One (requirements, gate) pair and its score memo: ``memo[v]`` is the
    score of its family's vector number ``v``, None until it is scored."""

    required: QosVector
    gated: bool
    memo: List[Optional[float]]


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
    unaffected by how many other streams exist.  Its state is that of
    ``default_rng(SeedSequence([seed] + words))``, the words being the labels'
    sha256 words 0-3, big-endian; one uint32 array (the seed's words
    little-endian, as numpy splits an int, then those) builds it faster."""
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"expected a non-negative seed, got {seed}")
    head = seed.to_bytes(4 * max(1, -(-seed.bit_length() // 32)), "little")
    digest = hashlib.sha256("/".join(labels).encode("utf-8")).digest()
    entropy = np.concatenate([np.frombuffer(head, "<u4"), np.frombuffer(digest, ">u4", 4)])
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


_BLANK_SEED = np.random.SeedSequence(0)  # seeds a state _restored overwrites


def _restored(state: dict) -> np.random.Generator:
    """A generator in ``state``: cheaper than seeding its stream again."""
    rng = np.random.default_rng(_BLANK_SEED)
    rng.bit_generator.state = state
    return rng


# Most position x AP checks per sensing call, in whole steps (at least one).
_SENSE_BLOCK = 2 ** 14


def _world(config: ScenarioConfig, seed: int, index: Dict[str, int]) -> tuple:
    """Move every mobile terminal through the run, then record what it senses.
    Return what each user in id order senses at t=0, as ascending AP indices
    by ``index``, then ``sensed`` and ``xy`` (see ``_Family``).

    Each terminal draws only from its own stream ``_stream(seed, "mobility",
    m)``, so its trajectory depends neither on the other terminals nor on the
    strategy, nor on what it senses.  So all walks come first; then one
    ``sensed_aps`` call senses every user at t=0 and one call each block of
    whole steps, up to ``_SENSE_BLOCK`` position x AP checks per block.
    Each distinct tuple of sensed ids is turned into AP indices once.
    """
    dt, area, nb_steps = config.decision_step, config.area, config.nb_steps
    mobile = sorted((u for u in config.users if u.mobile), key=attrgetter("id"))
    n = len(mobile)
    interned: Dict[Tuple[str, ...], Tuple[int, ...]] = {}

    def sense(positions) -> Tuple[Tuple[int, ...], ...]:
        hits = sensed_aps(positions, config.aps)
        for ids in set(hits).difference(interned):
            interned[ids] = tuple(index[ap_id] for ap_id in ids)
        return tuple(map(interned.__getitem__, hits))

    at_start = sense([u.initial_position for u in sorted(config.users, key=attrgetter("id"))])
    xy = np.empty((nb_steps, n, 2))
    for i, u in enumerate(mobile):
        rng = _stream(seed, "mobility", u.id)
        xy[:, i] = walk_mobility(init_mobility(u, area, rng), dt, nb_steps, area, u, rng)[0]
    xy.flags.writeable = False
    block = max(1, _SENSE_BLOCK // (n * len(config.aps)))
    sensed = []
    for start in range(0, nb_steps, block):
        stop = min(start + block, nb_steps)
        hits = sense(xy[start:stop])
        sensed += [hits[i * n:(i + 1) * n] for i in range(stop - start)]
    return at_start, tuple(sensed), xy


class _Step(NamedTuple):
    """The loop state at the start of step ``k`` of a hysteresis run at which
    the base rule fired for some terminal, or a family's start (``k`` = 0):
    a run executes from it.

    ``fired`` is the step's tape: each such terminal's index ``i`` in order,
    in a plain tuple so that the garbage collector stops tracking it (the
    ``decide`` call's inputs and outcome are in row ``i`` at step ``k``).
    The other fields are the state that step ``k`` reads; APs are indices
    throughout.  A resumed run rebuilds its QoS.
    """

    k: int
    fired: tuple
    assoc: tuple
    disconnected: tuple
    views: tuple
    nb_ho: tuple
    current: tuple


class _Family:
    """What the runs of one family share inside a ``shared_worlds()`` scope
    until another family's run replaces it (a run outside one drops it).

    AP ``j`` is ``ap_order[j]``, the APs being numbered in id order (``index``
    maps an id to its number), and vector ``v`` is ``table[v]``.
    ``sensed[k][i]`` and ``xy[k, i]`` are what the i-th mobile terminal in id
    order senses, as ascending AP indices, and where it is, after the move of
    step ``k``; equal sensed tuples are one object, and ``xy`` is read-only.
    The constructor makes the world pass, the APs' profiles and neighbors by
    index, each terminal's score profiles (equal ones are one object) and
    the start: ``start``, the loop state at the start of step 0, the static
    loads and, with jitter on,
    ``noise[k][j]``, AP j's at step k; if it raises, no record is kept.
    Runs fill the vector numbers by (AP, load), equal vectors sharing one,
    and by (step, AP, load) when jittered; the score memos; the initial
    strategy-generator states; and the latest hysteresis run's rows, handover
    counts and tape (``steps``), ``rows`` being None while no tape is attached.
    """

    def __init__(self, seed: int, config: ScenarioConfig, qos_model) -> None:
        self.seed, self.config, self.qos_model = seed, config, qos_model
        self.ap_order = sorted(ap.id for ap in config.aps)
        self.index = {ap_id: j for j, ap_id in enumerate(self.ap_order)}
        at_start, self.sensed, self.xy = _world(config, seed, self.index)
        by_id = config.ap_by_id()
        self.aps = [by_id[ap_id] for ap_id in self.ap_order]
        self.neighbors = [tuple(self.index[a] for a in ap.wired_neighbors) for ap in self.aps]
        self.table: List[QosVector] = []
        self.vectors: List[Dict[int, int]] = [{} for _ in self.aps]
        self.interned: Dict[tuple, int] = {}
        self.profiles: Dict[Tuple[tuple, bool], _Profile] = {}
        self.strategy: Optional[List[dict]] = None
        self.rows: Optional[Tuple[Tuple[tuple, ...], ...]] = None
        self.nb_ho: Tuple[int, ...] = ()
        self.steps: List[_Step] = []

        gate = config.gate_candidates

        def profile(user, gated: bool) -> _Profile:
            required = user.app_requirements
            return self.profiles.setdefault((tuple(required.items()), gated),
                                            _Profile(required, gated, [None] * len(self.table)))

        users = sorted(config.users, key=attrgetter("id"))
        mobile = [u for u in users if u.mobile]
        self.mt_order = [u.id for u in mobile]
        self.asso_profiles = [profile(u, True) for u in mobile]
        self.cand_profiles = [profile(u, gate) for u in mobile]

        # Initial association at t=0: users in id order greedily pick the
        # best sensed AP by live QoS, strategy-free; each pick loads the AP
        # for the next user's view.
        loads = [0] * len(self.aps)
        self.static_loads = list(loads)
        initial: Dict[str, int] = {}
        for user, sensed in zip(users, at_start):
            prof = profile(user, gate)
            best = best_candidate([CombinedScore(self.ap_order[j],
                                                 self.score(j, self.offered(j, loads[j]), prof))
                                   for j in sensed])
            if best is not None:
                j = initial[user.id] = self.index[best.ap_id]
                loads[j] += 1
                if not user.mobile:
                    # stationary users never move, so they keep their AP and its load
                    self.static_loads[j] += 1
        self.noise: List[Tuple[Tuple[float, ...], ...]] = []
        self.jittered: List[Dict[int, int]] = []
        if config.qos_jitter_sigma > 0:
            # the whole run's noise in one draw, equal to one draw per step;
            # each AP takes a fixed share of a step's row, sized at step 0's
            # loads, which are those the initial association leaves
            sizes = [len(self.table[self.offered(j, load)]) for j, load in enumerate(loads)]
            drawn = _stream(seed, "qos-jitter").normal(
                0.0, config.qos_jitter_sigma, (config.nb_steps, sum(sizes)))
            ends = list(accumulate(sizes))
            self.noise = [tuple(row[e - size:e] for size, e in zip(sizes, ends))
                          for row in map(tuple, drawn.tolist())]
            self.jittered = [{} for _ in range(config.nb_steps)]
        # at step 0 the mobile terminals hold their initial APs; nothing is
        # known, and no QoS measured
        n, unknown = len(mobile), (None,) * len(self.aps)
        assoc = tuple(initial.get(m) for m in self.mt_order)
        self.start = _Step(0, (), assoc, (0,) * n, (unknown,) * n, (0,) * n, unknown)

    def numbered(self, qos: QosVector) -> int:
        """Give ``qos`` the next vector number and every memo its slot."""
        self.table.append(qos)
        for prof in self.profiles.values():
            prof.memo.append(None)
        return len(self.table) - 1

    def offered(self, j: int, load: int) -> int:
        """The number of the model's vector for AP ``j`` at ``load``, made
        once; equal vectors get one number."""
        number = self.vectors[j].get(load)
        if number is None:
            qos = self.qos_model(self.aps[j], load)
            key = tuple(qos.items())
            if key not in self.interned:
                self.interned[key] = self.numbered(qos)
            number = self.vectors[j][load] = self.interned[key]
        return number

    def jittered_at(self, k: int, loads: List[int]) -> Tuple[int, ...]:
        """The numbers of step ``k``'s jittered vectors at ``loads``, by AP
        index; each is made once per (step, AP, load), kept in ``jittered[k]``
        under the key ``load * A + j`` (A APs)."""
        made, keys = self.jittered[k], [load * len(loads) + j for j, load in enumerate(loads)]
        numbers = list(map(made.get, keys))
        for j, number in enumerate(numbers):
            if number is None:
                qos, noise = self.table[self.offered(j, loads[j])], self.noise[k][j]
                if len(qos) != len(noise):
                    raise ValueError(f"with jitter on, qos_model must give ap {self.ap_order[j]!r} "
                                     "vectors of one length at every load")
                numbers[j] = made[keys[j]] = self.numbered(apply_jitter(qos, noise))
        return tuple(numbers)

    def nearest_usable(self, position: Tuple[float, float], sensed: Tuple[int, ...],
                       qos_now: Tuple[int, ...]) -> Optional[int]:
        """Blind (re-)association: the nearest sensed AP currently offering any
        nonzero QoS, ties broken by index, which is id order.  An unassociated
        terminal holds no usable knowledge, so this models a plain
        strongest-signal join rather than a scored decision."""
        best = None
        for j in sensed:
            if any(v > 0 for v in self.table[qos_now[j]].values()):
                x, y = self.aps[j].position
                d = math.hypot(x - position[0], y - position[1])
                if best is None or d < best[0]:
                    best = (d, j)
        return best[1] if best is not None else None

    def score(self, j: int, number: int, prof: _Profile) -> float:
        """Vector ``number`` of AP ``j`` scored for ``prof``, once: within a
        family a score depends only on the vector, the requirements and the
        gate (the AP id does not enter the value)."""
        value = prof.memo[number]
        if value is None:
            value = prof.memo[number] = score_network(
                self.ap_order[j], self.table[number], prof.required, self.config.criteria,
                gated=prof.gated, max_benefit=self.config.max_benefit,
            ).value
        return value


# The innermost open shared_worlds() scope's record, in a list of at most one;
# None outside.  A context variable, so each thread sees only its own scopes.
_slot: ContextVar[Optional[List[_Family]]] = ContextVar("hodsim_slot", default=None)


@contextmanager
def shared_worlds() -> Iterator[None]:
    """Let the runs of one family made inside the block share one record.

    A family is a seed, a ``qos_model`` and a config but for the strategy.
    Its record holds the family's world pass, start and tables, and its latest
    hysteresis run's tape: a later hysteresis run executes only from the start
    of the first step whose outcomes differ (see ``_replay``), any other run
    every step.
    A block holds one record, which another family's run replaces; a block
    opened inside another holds its own and leaves the outer one's in place.
    """
    slot = _slot.set([])
    try:
        yield
    finally:
        _slot.reset(slot)


def _replay(family: _Family, margin: float) -> Optional[int]:
    """The index in ``family.steps`` of the first tape step at which a fired
    row decides otherwise under ``clears_margin`` at ``margin``, or None if
    no step does.  Hysteresis keeps no state, so before that step a run at
    ``margin`` makes the tape's decisions and reaches the step's state."""
    rows = family.rows
    for index, step in enumerate(family.steps):
        for i in step.fired:
            _, action, c_asso, c_best, _ = rows[i][step.k]
            if clears_margin(c_asso, c_best, margin) != (action == HANDOVER):
                return index
    return None


def run_simulation(config: ScenarioConfig, seed: Optional[int] = None,
                   qos_model=ap_qos) -> EventLog:
    """Execute one run and return its event log.

    ``seed`` defaults to config.rng_seed.  ``qos_model(ap, load)`` may replace
    the default load-sharing model; it is called once per distinct (AP,
    load) the run (inside a ``shared_worlds()`` scope, its family) computes,
    so it must depend on nothing else.  With jitter on it must give each AP
    vectors of one length at every load, or ValueError names the AP.  In a
    scope only a hysteresis run reads or replaces its family's tape.
    """
    if seed is None:
        seed = config.rng_seed
    slot = _slot.get()
    # the scope's record was made by a validated run, so a config equal to its
    # own but for the strategy (a frozen dataclass's vars are its fields) needs
    # only the strategy checked, whatever the seed
    same = slot and dict(vars(config), strategy=None) == dict(vars(slot[0].config), strategy=None)
    violations = strategy_violations(config.strategy) if same else validate(config)
    if violations:
        raise ValueError("invalid config: " + "; ".join(violations))
    if same and slot[0].seed == seed and slot[0].qos_model is qos_model:
        family = slot[0]
    else:
        if slot:
            del slot[0]  # freed before the new record's world pass
        family = _Family(seed, config, qos_model)
        if slot is not None:
            slot.append(family)

    dt = config.decision_step
    mt_order = family.mt_order
    n = len(mt_order)
    # the time before which each terminal's waiting strategy holds it
    waits = [0.0] * n
    # only randomized_wait draws from its terminal's strategy stream
    strat_rng = [None] * n
    if config.strategy.kind == "randomized_wait":
        if family.strategy is None:
            family.strategy = [_stream(seed, "strategy", m).bit_generator.state for m in mt_order]
        strat_rng = [_restored(state) for state in family.strategy]
    hysteresis = config.strategy.kind == "hysteresis"
    index = -1
    if hysteresis and family.rows is not None:
        index = _replay(family, config.strategy.parameter)
        if index is None:
            return EventLog(seed=seed, config=config, mt_ids=list(mt_order),
                            outcomes=dict(zip(mt_order, family.rows)),
                            nb_ho=dict(zip(mt_order, family.nb_ho)))

    diffuse_every = int(round(config.diffusion_period / dt))
    sigma = config.qos_jitter_sigma
    # the loop holds APs by index and vectors by number; rows get ids
    ap_order, offered, score = family.ap_order, family.offered, family.score
    asso_profiles, cand_profiles = family.asso_profiles, family.cand_profiles

    # Before this step a resumed hysteresis run is the run that recorded the
    # tape (any other run starts at the family's start): take that run's rows
    # before the step and its state at the start of it, and execute the step.
    step = family.start if index < 0 else family.steps[index]
    rows = [[] for _ in mt_order] if index < 0 else [list(r[:step.k]) for r in family.rows]
    assoc, disconnected = list(step.assoc), list(step.disconnected)
    # Each terminal's knowledge in closed form: the view its AP held at the
    # last round at which it was associated (see knowledge.known).
    views, nb_ho, current = list(step.views), list(step.nb_ho), step.current
    # a hysteresis run in a scope records its steps for its family and
    # replaces the tape: it detaches it now, so that the steps it executes are
    # freed while it runs and a run that fails leaves the family without a
    # tape rather than with half of one; other runs leave it alone
    steps = None
    if hysteresis and slot is not None:
        steps = family.steps[:max(index, 0)]
        family.rows, family.steps = None, []
    # the next round moves current to previous before reading it, unless the
    # first step's qos_now equals current, when previous = current is right
    previous = current
    last_loads: Optional[List[int]] = None
    # the views of the last diffusion round, by AP index
    round_views: List[Optional[tuple]] = [None] * len(ap_order)

    for k in range(step.k, config.nb_steps):
        now = k * dt
        if steps is not None:
            before = (tuple(assoc), tuple(disconnected), tuple(views), tuple(nb_ho), current)

        # (1) load and offered QoS per AP
        loads = list(family.static_loads)
        for j in assoc:
            if j is not None:
                loads[j] += 1
        if sigma > 0:
            qos_now = family.jittered_at(k, loads)
        elif loads != last_loads:
            qos_now = tuple(map(offered, range(len(loads)), loads))
            qos_now = current if qos_now == current else qos_now  # keeps its views
            last_loads = loads

        # (2) diffusion round: every associated terminal takes its AP's view;
        # while the measured QoS repeats, the views of the last round do too
        if k % diffuse_every == 0:
            if qos_now is not current or previous is not current:
                previous, current = current, qos_now
                round_views = [None] * len(ap_order)
            for i, j in enumerate(assoc):
                if j is not None:
                    view = round_views[j]
                    if view is None:
                        view = round_views[j] = known(j, family.neighbors[j], current, previous)
                    views[i] = view

        # (3) per-terminal decisions against a frozen snapshot; movement
        # and sensing come from the world pass
        pending = []
        fired = []
        for i, sensed in enumerate(family.sensed[k]):
            j = assoc[i]
            if j is not None and j not in sensed:
                # walked out of coverage: connectivity lost, not a handover
                assoc[i] = j = None

            if disconnected[i]:
                disconnected[i] -= 1
                rows[i].append((None if j is None else ap_order[j], STAY, 0.0, 0.0, False))
                continue

            if j is None:
                xy = family.xy[k, i]
                target = family.nearest_usable((float(xy[0]), float(xy[1])), sensed, qos_now)
                if target is not None:
                    pending.append((i, target, False))
                rows[i].append(_UNASSOCIATED)
                continue

            view = views[i]
            v = view[j]
            c_asso = 0.0
            if v is not None:
                prof = asso_profiles[i]
                c_asso = prof.memo[v]
                c_asso = score(j, v, prof) if c_asso is None else c_asso

            # one pass for the best candidate; sensed indices ascend, so the
            # first best is the lowest AP id, as in best_candidate
            prof = cand_profiles[i]
            memo = prof.memo
            best, best_value = None, 0.0
            for cand in sensed:
                if cand == j:
                    continue
                v = view[cand]
                if v is None:
                    continue
                value = memo[v]
                value = score(cand, v, prof) if value is None else value
                if best is None or value > best_value:
                    best, best_value = cand, value

            # Unless the best candidate beats the associated network, the base
            # rule does not fire and decide would keep the terminal in place,
            # unsuppressed, with its wait time and rng untouched.
            ap_id = ap_order[j]
            if best is None or best_value <= c_asso:
                rows[i].append((ap_id, STAY, c_asso, best_value, False))
                continue
            outcome = decide(c_asso, best_value, config.strategy, waits[i], now, strat_rng[i])
            waits[i] = outcome.wait_until
            if outcome.action == HANDOVER:
                pending.append((i, best, True))
            rows[i].append((ap_id, outcome.action, c_asso, best_value, outcome.suppressed))
            fired.append(i)

        # only a step at which the base rule fired can differ between the
        # runs of a family, so only such a step is recorded
        if steps is not None and fired:
            steps.append(_Step(k, tuple(fired), *before))

        # (4) apply switches atomically; they take effect next step
        for i, target, is_handover in pending:
            assoc[i] = target
            if is_handover:
                nb_ho[i] += 1
                disconnected[i] = config.handover_cost_steps

    # the log is frozen once, and a family keeps the same tuples
    log = tuple(tuple(r) for r in rows)
    if steps is not None:
        family.rows, family.nb_ho, family.steps = log, tuple(nb_ho), steps
    return EventLog(seed=seed, config=config, mt_ids=list(mt_order),
                    outcomes=dict(zip(mt_order, log)), nb_ho=dict(zip(mt_order, nb_ho)))


def events_csv(log: EventLog) -> str:
    """Line-oriented CSV of the run, one row per terminal per step.

    Floats use repr so the file round-trips exactly; identical (config, seed)
    runs produce byte-identical output.  A run repeats few distinct outcomes,
    so each is formatted once, and the text is joined from shared pieces; an
    outcome's key holds its scores' signs too, because 0.0 and -0.0 are
    equal but print apart.
    """
    dt = log.config.decision_step
    columns = [(m + ",", log.outcomes[m]) for m in log.mt_ids]
    tails: Dict[tuple, str] = {}
    pieces = [EVENTS_SCHEMA + "\n" + EVENTS_HEADER + "\n"]
    for k in range(log.nb_steps):
        time = repr(k * dt) + ","
        for m, rows in columns:
            row = rows[k]
            key = (row, math.copysign(1.0, row[2]), math.copysign(1.0, row[3]))
            tail = tails.get(key)
            if tail is None:
                associated, action, c_asso, c_best, suppressed = row
                tail = tails[key] = (f"{'' if associated is None else associated},{action},"
                                     f"{c_asso!r},{c_best!r},{'1' if suppressed else '0'}\n")
            pieces += (time, m, tail)
    return "".join(pieces)
