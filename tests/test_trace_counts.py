"""The benchmark's per-layer tracer still counts what the event log holds.

``perfbench/tracing.py`` wraps the engine's collaborators by name, so a
refactor of the engine can break a traced benchmark run without any other
test noticing.  These runs install the tracer as the benchmark does and
check its exact counts against the logs.
"""

import sys
from pathlib import Path

import hodsim.engine
from hodsim.decision import decide
from hodsim.scenario import load_scenario, with_strategy

from conftest import tiny_document

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402


def test_decide_counts_match_the_event_log():
    # hysteresis suppresses on the tiny world and randomized_wait hands over,
    # so between them both counts are exercised
    seen = {"handovers": 0, "suppressed": 0}
    for kind, parameter in (("hysteresis", 0.05), ("randomized_wait", 3.0)):
        config = with_strategy(load_scenario(tiny_document()), kind, parameter)
        tracer = tracing.Tracer()
        with tracer.installed():
            logs = [hodsim.engine.run_simulation(config, seed) for seed in (1, 2, 3)]
        layers = tracer.layer_metrics()

        counts = {
            "handovers": sum(sum(log.nb_ho.values()) for log in logs),
            "suppressed": sum(o.suppressed for log in logs
                              for m in log.mt_ids for o in log.outcomes[m]),
        }
        for key, count in counts.items():
            assert layers[f"decision.decide.{key}"] == count, (kind, key)
            seen[key] += count
        # the tracer put every call site back
        assert hodsim.engine.decide is decide
    assert all(seen.values()), seen


def test_traced_default_hysteresis_run_counts_its_handovers(default_config):
    # the default scenario under hysteresis 0.05 both executes and
    # suppresses handovers; the tracer's decide counts must equal the log's,
    # and every call site must be put back afterwards
    config = with_strategy(default_config, "hysteresis", 0.05)
    before = [(module, attr, getattr(module, attr)) for module, attr, _, _ in tracing.CALL_SITES]
    tracer = tracing.Tracer()
    with tracer.installed():
        log = hodsim.engine.run_simulation(config, 1)
    layers = tracer.layer_metrics()

    handovers = sum(log.nb_ho.values())
    suppressed = sum(o.suppressed for m in log.mt_ids for o in log.outcomes[m])
    assert handovers > 0 and suppressed > 0
    assert layers["decision.decide.handovers"] == handovers
    assert layers["decision.decide.suppressed"] == suppressed
    for module, attr, fn in before:
        assert getattr(module, attr) is fn, attr


def test_radio_counts_are_per_block():
    # the engine senses every user at t=0 in one call, then the mobile
    # terminals' positions in blocks of whole steps, one call per block of
    # at most _SENSE_BLOCK position x AP checks, so the tracer's sensing
    # figures count calls: ap_checks is APs per call and hits is positions
    # per call.  apply_jitter builds one jittered vector per call, and a run
    # on its own builds one per AP and step.
    config = load_scenario(tiny_document(qos_jitter_sigma=1.0))
    tracer = tracing.Tracer()
    with tracer.installed():
        hodsim.engine.run_simulation(config, 1)
    layers = tracer.layer_metrics()

    steps, mobile = config.nb_steps, sum(u.mobile for u in config.users)
    per_block = hodsim.engine._SENSE_BLOCK // (mobile * len(config.aps))
    blocks = -(-steps // per_block)
    assert blocks == 1
    assert layers["radio.sensed_aps.calls"] == 1 + blocks
    assert layers["radio.sensed_aps.ap_checks"] == (1 + blocks) * len(config.aps)
    assert layers["radio.sensed_aps.hits"] == len(config.users) + steps * mobile
    assert layers["radio.apply_jitter.calls"] == steps * len(config.aps)
