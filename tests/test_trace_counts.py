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
