"""Golden fingerprints: sha256 of the CSVs fixed (config, seed) pairs produce.

Determinism tests compare a run against another run of the same code, so a
change that shifts every output the same way passes them.  These digests pin
the outputs themselves.  A digest may only change together with a CHANGES.md
entry that says why the outputs moved.
"""

import contextlib
import hashlib
import io
import json
import math
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

import hodsim.engine
import hodsim.metrics
from hodsim.cli import compare_csv, main, parse_values
from hodsim.engine import events_csv, run_simulation, shared_worlds
from hodsim.metrics import sweep, sweep_csv, sweeps
from hodsim.radio import ap_qos
from hodsim.scenario import STRATEGY_KINDS, load_scenario, with_strategy

from conftest import tiny_document
from logcheck import check_log, named

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import dense_document  # noqa: E402

DEFAULT_EVENTS = {
    1: "64d882d6ec8ecca971817ffd8f1c3260f3d746fec4f30f13b61e037d092a9786",
    2: "4e9eeb0492245a529cb842039cec96c15680066b52ef2465f1fbcd4ae4d63ceb",
    3: "301355820fada4b79af9c6a8e3e323b1fd933a39155e169866421c744a53cff8",
}

# strategy kind: (parameter, events digest of tiny_document at seed 3)
TINY_EVENTS = {
    "none": (0.0, "8d0cc80ff0bb9e2cb8ce724808f8fc872f6b91a705eb5a9799d0824b47d2b113"),
    "hysteresis": (0.05, "184cb20945cd7d94e667c6aa72bb9321cc3e622c328ade89065d42cb368b2c51"),
    "waiting_time": (2.0, "e0f6de46a36ebe0734607c96e093308fb07d226aab74399a9e9c87d2f0b54f32"),
    "randomized_wait": (3.0, "6a4ce28c3868d0d636816b02c3f8ea13c3f7d453f12d7562c35d45c3ba5af875"),
}
TINY_JITTER_EVENTS = "940035c7e7029a00fa831f9aa0b11e6b16440f8065562e9cea2e0193358e52d0"
TINY_SWEEP = "dab3481df067016fe23c55bd486a4de3c3c8b28519d2e0a4860771d47387da76"
# tiny_document with qos_jitter_sigma 2.0 swept over randomized_wait 0, 1, 3 on
# seeds 1 and 2: the runs of each seed share one family's jitter
TINY_JITTER_SWEEP = "c68b765a51ce90be876e7d254aeb097d3183a1ac5e9c55b4419d9b10e25f4177"

# The default scenario under hysteresis 0.05 with one switching step, seed 1,
# by diffusion period in decision steps.  tiny_document never clears a
# hysteresis margin, so these are the goldens that execute hysteresis
# handovers (4 and 5) next to suppressed decisions.
HYSTERESIS_EVENTS = {
    1: "b2ca30c30c498953a0da4581c7dc8a827693d233f64dbc21fdec9703bb7fdbb9",
    3: "c8c4e7b5c95340ef75b8a42a7bbb73391d87bcf042d6834a1b6eae0a8a727598",
}

# Sweep CSVs of the default scenario on seeds 1 and 2: strategy kind ->
# (grid, qos_jitter_sigma, digest).
DEFAULT_SWEEPS = {
    "hysteresis": ("0:1:0.05", 0.0,
                   "ecbb9711a1f324d5e3965fb2fecab068564080279c8a2b5fcdcbf2418f3c97bd"),
    "waiting_time": ("0:10:0.5", 0.0,
                     "c0d561b85fb8b6fa256555fd18934295445a20f38c536cfae5da2bdae87e89bc"),
    "randomized_wait": ("0:10:0.5", 0.5,
                        "8141822f8bf1804830f1b47e79fb7a4dfbbe8a1d850600f346ef2152b3365396"),
}
# boundary_document() run with boundary_qos, by seed
BOUNDARY_EVENTS = {
    1: "8569fc7e3283f4c1d0daaf14570b377e71fa6e8af37ad970a9ba1be619560465",
    2: "b2d873e89f76151e8c68d8945849dccac47b27f2abb21cbd9f09ad18a3bf0681",
}
# boundary_document() under randomized_wait, by parameter, at seed 1 with
# boundary_qos, all run in one shared_worlds() scope
BOUNDARY_FAMILY_EVENTS = {
    0.0: "ad0fa021405a5b9c63a7246ff747a2e0b260ad813349c35e899aad7b1c2124ed",
    2.0: "8569fc7e3283f4c1d0daaf14570b377e71fa6e8af37ad970a9ba1be619560465",
    5.0: "097808fcc4a2b69551b825f0d658de2d530ecbca1228eb88a7a2d3f3a2ffc522",
}
# The scenario.json that `hodsim run` writes: for the built-in scenario, and
# for the benchmark's dense document of input set 0 (6x6 APs, 300 users)
SCENARIO_JSON = {
    "default": "dbc0b748d45dcd65a8bc1391995216bb190bdf1d50e01d8a48fc31a968e333d9",
    "dense": "77785915f6e58fbadb19486c3b3510225806dda74a949ccb8516f02389414ac9",
}
# `hodsim compare` of the default scenario, hysteresis 0:1:0.05 against
# waiting_time 0:10:0.5, on seeds 1 and 2
DEFAULT_COMPARE = "2ffa1c4c4efbca785e2e4f5670ff7bf91d240e2e08b9e254937d63776f635d26"


def boundary_document() -> dict:
    """A 2x2 grid of 30 m coverage disks on 100 m x 100 m with jitter on.

    Around each AP five users start on its coverage circle: two exactly on it
    (offsets (30, 0) and (18, 24)), one a float step inside and one a float
    step outside it, and one on the float point nearest a polar angle, whose
    computed distance may round either way.  The first and the last of each
    five roam.
    """
    criteria = ["bandwidth", "delay", "error"]
    aps, users = [], []
    for gy in range(2):
        for gx in range(2):
            ap_id = f"ap{gy}{gx}"
            cx, cy = 25.0 + 50.0 * gx, 25.0 + 50.0 * gy
            # offsets point towards the middle of the area, so users stay inside it
            sx, sy = (1.0 if gx == 0 else -1.0), (1.0 if gy == 0 else -1.0)
            edge = cx + sx * 30.0
            aps.append({
                "id": ap_id,
                "position": [cx, cy],
                "coverage_radius": 30.0,
                "base_qos": {"bandwidth": 54.0, "delay": 2.0, "error": (0.005, 0.02)[gy]},
                "wired_neighbors": [f"ap{gy}{1 - gx}", f"ap{1 - gy}{gx}"],
            })
            placed = {
                "on": [edge, cy],
                "on_diagonal": [cx + sx * 18.0, cy + sy * 24.0],
                "inside": [math.nextafter(edge, cx), cy],
                "outside": [math.nextafter(edge, edge + sx), cy],
                "polar": [cx + sx * 30.0 * math.cos(0.7), cy + sy * 30.0 * math.sin(0.7)],
            }
            for name, position in placed.items():
                users.append({
                    "id": f"{ap_id}_{name}",
                    "mobile": name in ("on", "polar"),
                    "initial_position": position,
                    "app_requirements": dict.fromkeys(criteria, 0.0),
                })
    return {
        "sim_time": 20.0,
        "decision_step": 0.5,
        "area": [100.0, 100.0],
        "rng_seed": 1,
        "mobility_ratio": 0.4,
        "qos_jitter_sigma": 0.5,
        "strategy": {"kind": "randomized_wait", "parameter": 2.0},
        "aps": aps,
        "users": users,
    }


def boundary_qos(ap, load):
    """``ap_qos`` with a non-criterion key in front on ``ap10`` and ``ap11``
    and the criteria in reverse order on ``ap01``, so that the jitter draws
    run over vectors of different lengths and key orders."""
    qos = ap_qos(ap, load)
    if ap.id.startswith("ap1"):
        return {"pilot": 1.0 + load, **qos}
    if ap.id == "ap01":
        return dict(reversed(list(qos.items())))
    return qos


@pytest.fixture
def checked_sweeps(monkeypatch):
    """Run check_log over every log a sweep makes; returns the run count."""
    runs = []
    run = hodsim.metrics.run_simulation

    def checking(config, seed):
        log = run(config, seed)
        check_log(log)
        runs.append(seed)
        return log

    monkeypatch.setattr(hodsim.metrics, "run_simulation", checking)
    return runs


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("seed", sorted(DEFAULT_EVENTS))
def test_default_scenario_events(default_config, seed):
    log = run_simulation(default_config, seed)
    check_log(log)
    assert sha256(events_csv(log)) == DEFAULT_EVENTS[seed]


def test_cli_run_validates_once_at_load_and_once_per_seed(tmp_path, monkeypatch, capsys):
    # `hodsim run --seeds 1,2,3` validates the document once as it loads it
    # and once in each seed's run, since each seed runs alone
    import hodsim.scenario

    calls = []
    for module in (hodsim.scenario, hodsim.engine):
        monkeypatch.setattr(module, "validate",
                            lambda config, check=module.validate: calls.append(1) or check(config))
    assert main(["run", "--seeds", "1,2,3", "--out", str(tmp_path)]) == 0
    assert len(calls) == 4
    for seed, digest in DEFAULT_EVENTS.items():
        assert hashlib.sha256((tmp_path / f"events_s{seed}.csv").read_bytes()).hexdigest() == digest


def test_cli_run_keeps_nothing_between_seeds(tmp_path, monkeypatch, capsys):
    # no family scope is open during the runs, and each seed's log is gone
    # before the next seed's run starts
    import hodsim.cli

    previous, seen = [], []

    def run(config, seed):
        # (no scope open, every earlier log freed); asserted after main, which
        # would turn a failed assert here into exit code 2
        seen.append((hodsim.engine._slot.get() is None, all(ref() is None for ref in previous)))
        log = run_simulation(config, seed)
        previous.append(weakref.ref(log))
        return log

    monkeypatch.setattr(hodsim.cli, "run_simulation", run)
    assert main(["run", "--seeds", "1,2,3", "--out", str(tmp_path)]) == 0
    assert seen == [(True, True)] * 3
    for seed, digest in DEFAULT_EVENTS.items():
        assert hashlib.sha256((tmp_path / f"events_s{seed}.csv").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("period_steps", sorted(HYSTERESIS_EVENTS))
def test_default_scenario_hysteresis_handovers(default_config, period_steps):
    config = replace(with_strategy(default_config, "hysteresis", 0.05), handover_cost_steps=1,
                     diffusion_period=period_steps * default_config.decision_step)
    log = run_simulation(config, 1)
    check_log(log)
    assert sum(log.nb_ho.values()) >= 1
    assert any(o.suppressed for m in log.mt_ids for o in named(log, m))
    assert sha256(events_csv(log)) == HYSTERESIS_EVENTS[period_steps]


def test_every_strategy_kind_is_pinned():
    assert set(TINY_EVENTS) == set(STRATEGY_KINDS)


@pytest.mark.parametrize("kind", sorted(TINY_EVENTS))
def test_tiny_events_per_strategy(kind):
    parameter, digest = TINY_EVENTS[kind]
    config = load_scenario(tiny_document(strategy={"kind": kind, "parameter": parameter}))
    log = run_simulation(config, 3)
    check_log(log)
    assert sha256(events_csv(log)) == digest


def test_tiny_events_with_jitter():
    # jittered QoS is new on every step, so nearly every score is computed afresh
    config = load_scenario(tiny_document(
        qos_jitter_sigma=2.0, strategy={"kind": "randomized_wait", "parameter": 3.0}))
    log = run_simulation(config, 3)
    check_log(log)
    assert sha256(events_csv(log)) == TINY_JITTER_EVENTS


def test_boundary_users_sense_the_circle_inclusively():
    config = load_scenario(boundary_document())
    ids = sorted(u.id for u in config.users)
    ap_order = sorted(ap.id for ap in config.aps)
    at_start, _, _ = hodsim.engine._world(config, 1, {a: j for j, a in enumerate(ap_order)})
    # what each user senses, by AP index, named again by AP id
    initial = {u: {ap_order[j] for j in hits} for u, hits in zip(ids, at_start)}
    for ap in config.aps:
        for name in ("on", "on_diagonal", "inside"):
            assert ap.id in initial[f"{ap.id}_{name}"]
        assert ap.id not in initial[f"{ap.id}_outside"]


@pytest.mark.parametrize("seed", sorted(BOUNDARY_EVENTS))
def test_boundary_events(seed):
    log = run_simulation(load_scenario(boundary_document()), seed, qos_model=boundary_qos)
    check_log(log)
    assert sha256(events_csv(log)) == BOUNDARY_EVENTS[seed]


def test_boundary_family_events():
    # one family whose runs share jittered vectors of different lengths and
    # key orders
    config = load_scenario(boundary_document())
    with shared_worlds():
        for parameter, digest in BOUNDARY_FAMILY_EVENTS.items():
            log = run_simulation(with_strategy(config, "randomized_wait", parameter), 1,
                                 qos_model=boundary_qos)
            check_log(log)
            assert sha256(events_csv(log)) == digest, parameter


def test_tiny_sweep_csv(tiny_config, checked_sweeps):
    report = sweep(tiny_config, "hysteresis", [0.0, 0.05, 0.2], [1, 2])
    assert sha256(sweep_csv(report)) == TINY_SWEEP
    assert len(checked_sweeps) == 6


def test_tiny_jitter_sweep_csv(tiny_config, checked_sweeps):
    config = replace(tiny_config, qos_jitter_sigma=2.0)
    report = sweep(config, "randomized_wait", [0.0, 1.0, 3.0], [1, 2])
    assert sha256(sweep_csv(report)) == TINY_JITTER_SWEEP
    assert len(checked_sweeps) == 6


@pytest.mark.parametrize("kind", sorted(DEFAULT_SWEEPS))
def test_default_scenario_sweeps(default_config, checked_sweeps, kind):
    grid, sigma, digest = DEFAULT_SWEEPS[kind]
    config = replace(default_config, qos_jitter_sigma=sigma)
    report = sweep(config, kind, parse_values(grid), [1, 2])
    assert sha256(sweep_csv(report)) == digest
    assert len(checked_sweeps) == 42


def test_default_scenario_compare(default_config, checked_sweeps):
    # one record per seed for both plans, so runs of different strategy kinds meet
    reports = sweeps(default_config, [("hysteresis", parse_values("0:1:0.05")),
                                      ("waiting_time", parse_values("0:10:0.5"))], [1, 2])
    assert sha256(compare_csv(*reports)) == DEFAULT_COMPARE
    assert len(checked_sweeps) == 84


@pytest.mark.parametrize("name", sorted(SCENARIO_JSON))
def test_run_writes_the_pinned_scenario_json(name, tmp_path):
    argv = ["run", "--out", str(tmp_path / "o")]
    if name == "dense":
        path = tmp_path / "dense.json"
        path.write_text(json.dumps(dense_document(0)))
        argv += ["--config", str(path)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert sha256((tmp_path / "o" / "scenario.json").read_text()) == SCENARIO_JSON[name]
