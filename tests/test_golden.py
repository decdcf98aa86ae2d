"""Golden fingerprints: sha256 of the CSVs fixed (config, seed) pairs produce.

Determinism tests compare a run against another run of the same code, so a
change that shifts every output the same way passes them.  These digests pin
the outputs themselves.  A digest may only change together with a CHANGES.md
entry that says why the outputs moved.
"""

import hashlib
from dataclasses import replace

import pytest

from hodsim.engine import events_csv, run_simulation
from hodsim.metrics import sweep, sweep_csv
from hodsim.scenario import STRATEGY_KINDS, load_scenario, with_strategy

from conftest import tiny_document

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

# The default scenario under hysteresis 0.05 with one switching step, seed 1,
# by diffusion period in decision steps.  tiny_document never clears a
# hysteresis margin, so these are the goldens that execute hysteresis
# handovers (4 and 5) next to suppressed decisions.
HYSTERESIS_EVENTS = {
    1: "b2ca30c30c498953a0da4581c7dc8a827693d233f64dbc21fdec9703bb7fdbb9",
    3: "c8c4e7b5c95340ef75b8a42a7bbb73391d87bcf042d6834a1b6eae0a8a727598",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("seed", sorted(DEFAULT_EVENTS))
def test_default_scenario_events(default_config, seed):
    assert sha256(events_csv(run_simulation(default_config, seed))) == DEFAULT_EVENTS[seed]


@pytest.mark.parametrize("period_steps", sorted(HYSTERESIS_EVENTS))
def test_default_scenario_hysteresis_handovers(default_config, period_steps):
    config = replace(with_strategy(default_config, "hysteresis", 0.05), handover_cost_steps=1,
                     diffusion_period=period_steps * default_config.decision_step)
    log = run_simulation(config, 1)
    assert sum(log.nb_ho.values()) >= 1
    assert any(o.suppressed for m in log.mt_ids for o in log.outcomes[m])
    assert sha256(events_csv(log)) == HYSTERESIS_EVENTS[period_steps]


def test_every_strategy_kind_is_pinned():
    assert set(TINY_EVENTS) == set(STRATEGY_KINDS)


@pytest.mark.parametrize("kind", sorted(TINY_EVENTS))
def test_tiny_events_per_strategy(kind):
    parameter, digest = TINY_EVENTS[kind]
    config = load_scenario(tiny_document(strategy={"kind": kind, "parameter": parameter}))
    assert sha256(events_csv(run_simulation(config, 3))) == digest


def test_tiny_events_with_jitter():
    # jittered QoS is new on every step, so nearly every score is computed afresh
    config = load_scenario(tiny_document(
        qos_jitter_sigma=2.0, strategy={"kind": "randomized_wait", "parameter": 3.0}))
    assert sha256(events_csv(run_simulation(config, 3))) == TINY_JITTER_EVENTS


def test_tiny_sweep_csv(tiny_config):
    report = sweep(tiny_config, "hysteresis", [0.0, 0.05, 0.2], [1, 2])
    assert sha256(sweep_csv(report)) == TINY_SWEEP
