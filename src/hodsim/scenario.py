"""Simulation scenario: domain types, JSON loading, validation, defaults.

A scenario is immutable after loading and holds every constant a run needs:
world geometry, access points, users, decision criteria, the stability
strategy, and the RNG seed.  The JSON document schema is described in
docs/config.md: each object's keys are the fields of its dataclass, and
unknown keys are rejected to catch typos early.  A field's own rules, its
finiteness and range, sit in the rule list beside its object's field table;
``validate`` adds only the checks that relate fields to each other.
"""

import json
import math
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Dict, List, Tuple, Union

import numpy as np

STRATEGY_KINDS = ("none", "hysteresis", "waiting_time", "randomized_wait")
DIRECTIONS = ("benefit", "cost")

# Defaults for the simulated world (see docs/config.md for units).
DEFAULT_SIM_TIME = 75.0
DEFAULT_DECISION_STEP = 0.5
DEFAULT_AREA = (200.0, 200.0)
DEFAULT_SPEED = 0.8
DEFAULT_PAUSE_RANGE = (1.0, 5.0)
DEFAULT_MOBILITY_RATIO = 14.0 / 52.0
DEFAULT_MAX_BENEFIT = 1e6

# Bounds on the size of one run.  A run holds up to ~0.9 KB per mobile
# terminal and step, and jitter ~0.6 KB per AP and step (measured in
# docs/config.md), so each bound keeps a run near 2 GB or less.
MAX_STEPS = 100_000
MAX_TERMINAL_STEPS = 2_000_000
MAX_JITTER_AP_STEPS = 3_000_000
# A seed names its output files, so it is below this.
SEED_LIMIT = 2 ** 64


class ScenarioError(ValueError):
    """Raised when a config document cannot be parsed or violates an invariant."""


@dataclass(frozen=True)
class DecisionCriterion:
    """One QoS criterion entering the utility score.

    ``direction`` is "benefit" (larger is better, e.g. bandwidth) or "cost"
    (smaller is better, e.g. delay; the reciprocal is scored).  ``alpha`` is
    the per-criterion sensitivity of the exponential utility.
    """

    id: str
    direction: str
    alpha: float


@dataclass(frozen=True)
class ApProfile:
    """A WLAN access point: disk coverage, nominal QoS, wired neighbors."""

    id: str
    position: Tuple[float, float]
    coverage_radius: float
    base_qos: Dict[str, float]
    wired_neighbors: Tuple[str, ...] = ()


@dataclass(frozen=True)
class UserProfile:
    """A user terminal; mobile users roam, stationary ones only load APs."""

    id: str
    mobile: bool
    initial_position: Tuple[float, float]
    speed: float = DEFAULT_SPEED
    pause_range: Tuple[float, float] = DEFAULT_PAUSE_RANGE
    app_requirements: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class StabilityStrategy:
    """Handover stability strategy; ``parameter`` is the margin (score units)
    for hysteresis, the fixed wait (seconds) for waiting_time, or the maximum
    wait (seconds) for randomized_wait.  kind="none" ignores the parameter."""

    kind: str = "none"
    parameter: float = 0.0


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete, validated description of one simulated world."""

    aps: Tuple[ApProfile, ...]
    users: Tuple[UserProfile, ...]
    rng_seed: int
    sim_time: float = DEFAULT_SIM_TIME
    decision_step: float = DEFAULT_DECISION_STEP
    diffusion_period: float = DEFAULT_DECISION_STEP
    area: Tuple[float, float] = DEFAULT_AREA
    criteria: Tuple[DecisionCriterion, ...] = ()
    strategy: StabilityStrategy = StabilityStrategy()
    mobility_ratio: float = DEFAULT_MOBILITY_RATIO
    gate_candidates: bool = True
    max_benefit: float = DEFAULT_MAX_BENEFIT
    qos_jitter_sigma: float = 0.0
    handover_cost_steps: int = 1

    @property
    def nb_steps(self) -> int:
        return int(round(self.sim_time / self.decision_step))

    def ap_by_id(self) -> Dict[str, ApProfile]:
        return {ap.id: ap for ap in self.aps}


# --- JSON document handling -------------------------------------------------


def _objects(value, where: str) -> List[dict]:
    if not isinstance(value, list) or not all(isinstance(x, dict) for x in value):
        raise ScenarioError(f"{where}: expected a list of objects")
    return value


def _text(value, where: str) -> str:
    if not isinstance(value, str):
        raise ScenarioError(f"{where}: expected a string, got {value!r}")
    return value


def _number(value, where: str) -> float:
    # bool is an int subclass, but true is not a number of seconds or meters
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:  # an integer beyond the float range
        raise ScenarioError(f"{where}: must be finite") from exc


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{where}: expected an integer, got {value!r}")
    return value


def _flag(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(f"{where}: expected true or false, got {value!r}")
    return value


def _pair(value, where: str) -> Tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ScenarioError(f"{where}: expected a pair of numbers")
    return (_number(value[0], where), _number(value[1], where))


def _qos_map(value, where: str) -> Dict[str, float]:
    if not isinstance(value, dict):
        raise ScenarioError(f"{where}: expected an object of criterion id -> value")
    return {str(k): _number(val, f"{where}.{k}") for k, val in value.items()}


def _ap_ids(value, where: str) -> Tuple[str, ...]:
    if not isinstance(value, list):
        raise ScenarioError(f"{where}: expected a list of ap ids")
    return tuple(_text(n, where) for n in value)


def _build(cls, table: Dict[str, Callable], obj: dict, where: str, **defaults):
    """Parse one document object into ``cls``.

    ``table`` maps each field of ``cls`` to its parser and so lists the keys
    the object may hold; ``where`` prefixes every field name in messages.  An
    absent field takes its entry in ``defaults``, else the dataclass default.
    """
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where[:-1]}: expected an object")
    unknown = obj.keys() - table.keys()
    if unknown:
        raise ScenarioError(f"{where[:-1] or 'config'}: unknown key(s) {sorted(unknown)}")
    values = {}
    for f in fields(cls):
        if f.name in obj:
            values[f.name] = table[f.name](obj[f.name], where + f.name)
        elif f.name in defaults:
            values[f.name] = defaults[f.name]
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ScenarioError(f"{where}{f.name}: required field missing")
    return cls(**values)


def _list_of(cls, table: Dict[str, Callable], **defaults) -> Callable:
    """Parser of a list of ``cls`` objects, the i-th named ``<where>.<i>.``."""
    def parse(value, where: str) -> tuple:
        return tuple(_build(cls, table, obj, f"{where}.{i}.", **defaults)
                     for i, obj in enumerate(_objects(value, where)))
    return parse


# Each object's field rules sit beside its table as (field, test, message),
# the test true of a bad value: every field the table parses as numbers must
# be finite, and each entry of ``own`` tests one field alone.  validate applies
# them and adds the checks that relate fields to each other.
_NOT_FINITE = {
    _number: lambda x: not math.isfinite(x),
    _pair: lambda p: not (math.isfinite(p[0]) and math.isfinite(p[1])),
    _qos_map: lambda m: not all(map(math.isfinite, m.values())),
}


def _rules(table: Dict[str, Callable], **own: Tuple[Callable, str]) -> List[Tuple[str, Callable, str]]:
    return ([(name, _NOT_FINITE[parse], "must be finite") for name, parse in table.items()
             if parse in _NOT_FINITE] + [(name, bad, message) for name, (bad, message) in own.items()])


_POSITIVE = (lambda x: x <= 0, "must be > 0")
_NON_NEGATIVE = (lambda x: x < 0, "must be >= 0")
# a bool is an int, but no seed or count
_COUNT = (lambda n: type(n) is not int or n < 0, "must be a non-negative integer")

_CRITERION_FIELDS = {"id": _text, "direction": _text, "alpha": _number}
_CRITERION_RULES = _rules(_CRITERION_FIELDS,
                          direction=(lambda d: d not in DIRECTIONS, f"must be one of {DIRECTIONS}"),
                          alpha=_POSITIVE)
_STRATEGY_FIELDS = {"kind": _text, "parameter": _number}
_STRATEGY_RULES = _rules(_STRATEGY_FIELDS,
                         kind=(lambda k: k not in STRATEGY_KINDS, f"must be one of {STRATEGY_KINDS}"),
                         parameter=_NON_NEGATIVE)
_AP_FIELDS = {
    "id": _text, "position": _pair, "coverage_radius": _number,
    "base_qos": _qos_map, "wired_neighbors": _ap_ids,
}
_AP_RULES = _rules(_AP_FIELDS, coverage_radius=_POSITIVE)
_USER_FIELDS = {
    "id": _text, "mobile": _flag, "initial_position": _pair,
    "speed": _number, "pause_range": _pair, "app_requirements": _qos_map,
}
_USER_RULES = _rules(_USER_FIELDS, speed=_NON_NEGATIVE,
                     pause_range=(lambda p: p[0] < 0 or p[0] > p[1], "need 0 <= min <= max"))
_CONFIG_FIELDS = {
    "aps": _list_of(ApProfile, _AP_FIELDS),
    "users": None,  # parsed against the criteria, see parse_scenario
    "rng_seed": _integer, "sim_time": _number, "decision_step": _number,
    "diffusion_period": _number, "area": _pair,
    "criteria": _list_of(DecisionCriterion, _CRITERION_FIELDS),
    "strategy": lambda value, where: _build(StabilityStrategy, _STRATEGY_FIELDS, value, where + "."),
    "mobility_ratio": _number, "gate_candidates": _flag, "max_benefit": _number,
    "qos_jitter_sigma": _number, "handover_cost_steps": _integer,
}
_CONFIG_RULES = _rules(
    _CONFIG_FIELDS, sim_time=_POSITIVE, decision_step=_POSITIVE, diffusion_period=_POSITIVE,
    area=(lambda a: a[0] <= 0 or a[1] <= 0, "dimensions must be > 0"),
    criteria=(lambda c: not c, "at least one criterion required"),
    aps=(lambda a: not a, "at least one access point required"),
    # a run's log and metrics are its mobile terminals'
    users=(lambda u: not any(user.mobile for user in u), "at least one mobile user required"),
    rng_seed=(lambda n: _COUNT[0](n) or n >= SEED_LIMIT, _COUNT[1] + " below 2**64"),
    handover_cost_steps=_COUNT, max_benefit=_POSITIVE,
    mobility_ratio=(lambda r: not 0.0 <= r <= 1.0, "must be in [0, 1]"),
    qos_jitter_sigma=_NON_NEGATIVE,
)

# The keys a document may hold, with those of the objects its fields hold.
DOCUMENT_KEYS = dict(dict.fromkeys(_CONFIG_FIELDS), **{name: dict.fromkeys(table) for name, table in (
    ("aps", _AP_FIELDS), ("users", _USER_FIELDS),
    ("criteria", _CRITERION_FIELDS), ("strategy", _STRATEGY_FIELDS))})


# --- Validation -------------------------------------------------------------


# Ids are written unquoted into the CSV outputs, so they may not contain a
# field or line separator or a quote.
_ID_FORBIDDEN = (",", "\n", "\r", '"')


def _bad_id(value: str) -> bool:
    return not value or any(ch in value for ch in _ID_FORBIDDEN)


def _is_multiple(value: float, step: float, tol: float = 1e-9) -> bool:
    ratio = value / step
    return math.isfinite(ratio) and abs(ratio - round(ratio)) <= tol and round(ratio) >= 1


def _inside(pos: Tuple[float, float], area: Tuple[float, float]) -> bool:
    return 0.0 <= pos[0] <= area[0] and 0.0 <= pos[1] <= area[1]


def _violations(obj, rules: List[Tuple[str, Callable, str]], where: str) -> List[str]:
    """The violations of the fields of ``obj`` on their own; ``where``
    prefixes every field name."""
    return [f"{where}{name}: {message}" for name, bad, message in rules if bad(getattr(obj, name))]


def strategy_violations(strategy: StabilityStrategy) -> List[str]:
    """The violations of ``validate`` that concern the strategy alone; a
    config whose other fields are valid has exactly these."""
    return _violations(strategy, _STRATEGY_RULES, "strategy.")


def validate(config: ScenarioConfig) -> List[str]:
    """Return all invariant violations, one human-readable message each.

    An empty list means the config is runnable.  Messages name the offending
    field so callers can surface them directly.
    """
    v = _violations(config, _CONFIG_RULES, "")
    n_mobile = sum(u.mobile for u in config.users)
    # the step count is only defined for positive finite timing
    step = config.decision_step
    if step > 0 and all(map(math.isfinite, (config.sim_time, step, config.diffusion_period))):
        if config.sim_time / step > MAX_STEPS:
            v.append(f"sim_time: sim_time / decision_step gives more than {MAX_STEPS} steps")
        elif not _is_multiple(config.sim_time, step):
            v.append("sim_time: not an integer multiple of decision_step")
        else:
            if n_mobile * config.nb_steps > MAX_TERMINAL_STEPS:
                v.append(f"sim_time: {n_mobile} mobile users x {config.nb_steps} steps (sim_time / "
                         f"decision_step) is more than {MAX_TERMINAL_STEPS}")
            if config.qos_jitter_sigma > 0 and len(config.aps) * config.nb_steps > MAX_JITTER_AP_STEPS:
                v.append(f"qos_jitter_sigma: with jitter on, {len(config.aps)} APs x {config.nb_steps} "
                         f"steps is more than {MAX_JITTER_AP_STEPS}")
        if config.diffusion_period > 0 and not _is_multiple(config.diffusion_period, step):
            v.append("diffusion_period: not an integer multiple of decision_step")

    crit_ids = [c.id for c in config.criteria]
    if len(set(crit_ids)) != len(crit_ids):
        v.append("criteria: duplicate criterion id")
    for c in config.criteria:
        v += _violations(c, _CRITERION_RULES, f"criteria[{c.id}].")

    ap_ids = [ap.id for ap in config.aps]
    if len(set(ap_ids)) != len(ap_ids):
        v.append("aps: duplicate ap id")
    by_id = config.ap_by_id()
    crit_set = set(crit_ids)
    for ap in config.aps:
        v += _violations(ap, _AP_RULES, f"aps[{ap.id}].")
        if _bad_id(ap.id):
            v.append(f"aps[{ap.id!r}].id: must be non-empty without ',', '\"' or line breaks")
        if set(ap.base_qos) != crit_set:
            v.append(f"aps[{ap.id}].base_qos: keys must match criteria ids")
        elif any(x < 0 for x in ap.base_qos.values()):
            v.append(f"aps[{ap.id}].base_qos: values must be >= 0")
        for n in ap.wired_neighbors:
            if n == ap.id:
                v.append(f"aps[{ap.id}].wired_neighbors: contains itself")
            elif n not in by_id:
                v.append(f"aps[{ap.id}].wired_neighbors: unknown ap {n!r}")
            elif ap.id not in by_id[n].wired_neighbors:
                v.append(f"aps[{ap.id}].wired_neighbors: link to {n!r} not symmetric")

    user_ids = [u.id for u in config.users]
    if len(set(user_ids)) != len(user_ids):
        v.append("users: duplicate user id")
    for u in config.users:
        v += _violations(u, _USER_RULES, f"users[{u.id}].")
        if _bad_id(u.id):
            v.append(f"users[{u.id!r}].id: must be non-empty without ',', '\"' or line breaks")
        elif u.id == "ALL":
            v.append("users[ALL].id: 'ALL' is reserved for the summary row of metrics_s<seed>.csv")
        if not _inside(u.initial_position, config.area):
            v.append(f"users[{u.id}].initial_position: outside area")
        if u.mobile and u.speed <= 0:
            v.append(f"users[{u.id}].speed: mobile user needs speed > 0")
        if set(u.app_requirements) != crit_set:
            v.append(f"users[{u.id}].app_requirements: keys must match criteria ids")
        elif any(x < 0 for x in u.app_requirements.values()):
            v.append(f"users[{u.id}].app_requirements: values must be >= 0")
    if abs(n_mobile - config.mobility_ratio * len(config.users)) > 1.0 + 1e-9:
        v.append(f"mobility_ratio: {n_mobile} mobile of {len(config.users)} users "
                 f"is more than one user away from ratio {config.mobility_ratio!r}")
    return v + strategy_violations(config.strategy)


def load_scenario(document: Union[str, dict, Path]) -> ScenarioConfig:
    """Parse and validate a config document (JSON text, file path, or dict).

    Defaults are applied for absent optional fields; ``rng_seed``, ``aps`` and
    ``users`` are required.  Raises ScenarioError naming the offending field on
    any parse or validation failure.
    """
    config = parse_scenario(document)
    violations = validate(config)
    if violations:
        raise ScenarioError("; ".join(violations))
    return config


def parse_scenario(document: Union[str, dict, Path]) -> ScenarioConfig:
    """Parse a document into a ScenarioConfig without running validate().

    Raises ScenarioError only for structural problems: malformed JSON,
    unknown keys, missing required fields, wrong value shapes.
    """
    if isinstance(document, Path):
        document = document.read_text()
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"parse error: {exc}") from exc
    if not isinstance(document, dict):
        raise ScenarioError("parse error: top-level value must be an object")

    # A user without requirements gets 0 for every criterion, so the criteria
    # are parsed first; the diffusion period defaults to the decision step.
    criteria = _CONFIG_FIELDS["criteria"](document.get("criteria", _default_criteria_doc()), "criteria")
    step = _number(document.get("decision_step", DEFAULT_DECISION_STEP), "decision_step")
    table = dict(_CONFIG_FIELDS, criteria=lambda value, where: criteria,
                 users=_list_of(UserProfile, _USER_FIELDS, mobile=False,
                                app_requirements={c.id: 0.0 for c in criteria}))
    return _build(ScenarioConfig, table, document, "", criteria=criteria, diffusion_period=step)


# Each scenario dataclass's field names, in field order.
_FIELD_NAMES = {cls: tuple(f.name for f in fields(cls)) for cls in (
    DecisionCriterion, ApProfile, UserProfile, StabilityStrategy, ScenarioConfig)}


def serialize(config: ScenarioConfig) -> dict:
    """Inverse of load_scenario: a JSON-ready dict with every field explicit."""
    def plain(value):
        names = _FIELD_NAMES.get(type(value))
        if names is not None:
            return {name: plain(getattr(value, name)) for name in names}
        if isinstance(value, tuple):
            return [plain(x) for x in value]
        if isinstance(value, dict):
            return dict(value)
        return value
    return plain(config)


def with_strategy(config: ScenarioConfig, kind: str, parameter: float) -> ScenarioConfig:
    return replace(config, strategy=StabilityStrategy(kind=kind, parameter=parameter))


# --- Shipped default scenario -------------------------------------------------

def _default_criteria_doc() -> List[dict]:
    return [
        {"id": "bandwidth", "direction": "benefit", "alpha": 0.5},
        {"id": "delay", "direction": "cost", "alpha": 1.0},
        {"id": "error", "direction": "cost", "alpha": 0.01},
    ]


def default_document(rng_seed: int = 1) -> dict:
    """Build the shipped default scenario as a JSON-ready document.

    200 m x 200 m area, nine APs on a 3x3 grid with 50 m coverage disks so
    adjacent cells overlap (cell-edge regions exist everywhere), 52 users of
    which 14 roam at 0.8 m/s.  All APs share the same nominal capacity;
    rows differ in error rate, so cells within a row are near-equal (the
    ping-pong breeding ground) while row crossings offer real quality gains.
    User placement is generated from a fixed internal seed and is a constant
    of the package, independent of ``rng_seed``.
    """
    spacing = 200.0 / 3.0
    error_rows = (0.005, 0.02, 0.08)
    aps = []
    for gy in range(3):
        for gx in range(3):
            neighbors = []
            if gx > 0:
                neighbors.append(f"ap{gy}{gx - 1}")
            if gx < 2:
                neighbors.append(f"ap{gy}{gx + 1}")
            if gy > 0:
                neighbors.append(f"ap{gy - 1}{gx}")
            if gy < 2:
                neighbors.append(f"ap{gy + 1}{gx}")
            aps.append({
                "id": f"ap{gy}{gx}",
                "position": [round(spacing * (gx + 0.5), 6), round(spacing * (gy + 0.5), 6)],
                "coverage_radius": 50.0,
                "base_qos": {
                    "bandwidth": 54.0,
                    "delay": 2.0,
                    "error": error_rows[gy],
                },
                "wired_neighbors": sorted(neighbors),
            })

    placer = np.random.default_rng(20240101)
    users = []
    for i in range(52):
        pos = [round(float(placer.uniform(5.0, 195.0)), 6), round(float(placer.uniform(5.0, 195.0)), 6)]
        users.append({
            "id": f"u{i:02d}",
            "mobile": i < 14,
            "initial_position": pos,
            "speed": DEFAULT_SPEED,
            "pause_range": list(DEFAULT_PAUSE_RANGE),
            "app_requirements": {"bandwidth": 0.0, "delay": 0.0, "error": 0.0},
        })

    return {
        "sim_time": DEFAULT_SIM_TIME,
        "decision_step": DEFAULT_DECISION_STEP,
        "diffusion_period": DEFAULT_DECISION_STEP,
        "area": list(DEFAULT_AREA),
        "rng_seed": rng_seed,
        "mobility_ratio": DEFAULT_MOBILITY_RATIO,
        "criteria": _default_criteria_doc(),
        "strategy": {"kind": "none", "parameter": 0.0},
        # The score rate tracks only what the associated network offers, so
        # parameter sweeps rank strategies the same way the evaluation
        # criteria expect; switching costs stay available via this knob.
        "handover_cost_steps": 0,
        "aps": aps,
        "users": users,
    }


def default_scenario(rng_seed: int = 1) -> ScenarioConfig:
    """The shipped default scenario, already validated."""
    return load_scenario(default_document(rng_seed))
