"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

import json
import pickle
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402  (puts the checkout's src on the import path)
import workloads  # noqa: E402

import hodsim  # noqa: E402
import hodsim.decision  # noqa: E402
import hodsim.engine  # noqa: E402
import hodsim.metrics  # noqa: E402
import hostspeed  # noqa: E402
import pin  # noqa: E402
import tracing  # noqa: E402


def test_dense_generator_yields_valid_scenario():
    for index in range(workloads.N_INPUTS):
        doc = workloads.dense_document(index)
        assert doc == workloads.dense_document(index)
        config = hodsim.scenario.parse_scenario(doc)
        assert hodsim.validate(config) == []

        aps = {ap["id"]: ap for ap in doc["aps"]}
        assert len(aps) == workloads.DENSE_GRID ** 2
        for ap_id, ap in aps.items():
            gy, gx = int(ap_id[2]), int(ap_id[3])
            inner = [0 < gy < workloads.DENSE_GRID - 1, 0 < gx < workloads.DENSE_GRID - 1]
            assert len(ap["wired_neighbors"]) == 2 + sum(inner)
            for other in ap["wired_neighbors"]:
                assert ap_id in aps[other]["wired_neighbors"]
        mobile = sum(u["mobile"] for u in doc["users"])
        assert doc["mobility_ratio"] == mobile / len(doc["users"])
        w, h = doc["area"]
        positions = ([ap["position"] for ap in doc["aps"]]
                     + [u["initial_position"] for u in doc["users"]])
        for x, y in positions:
            assert 0.0 <= x <= w and 0.0 <= y <= h
    assert workloads.dense_document(0) != workloads.dense_document(1)


def test_altered_output_fails_digest_gate(tmp_path, monkeypatch):
    pinned = worker.load_pinned()
    unit = workloads.Unit("dense_cli_run", 0, tmp_path)
    outcome = worker.Outcome()
    assert worker.run_unit(unit, workloads.plain_api(), pinned, outcome) is not None
    assert (outcome.attempted, outcome.failed) == (unit.runs, 0)

    data = unit.output()
    altered = data[:-2] + bytes([data[-2] ^ 1]) + data[-1:]
    assert worker.output_mismatch(pinned, "dense_cli_run", 0, altered) is not None
    monkeypatch.setattr(unit, "output", lambda: altered)
    assert worker.run_unit(unit, workloads.plain_api(), pinned, outcome) is None
    assert (outcome.attempted, outcome.failed) == (2 * unit.runs, unit.runs)


def test_memory_pass_gates_a_full_length_unit(tmp_path):
    proc = subprocess.run([sys.executable, str(HERE / "memory_probe.py"), "dense_cli_run", "2",
                           str(tmp_path)], capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["attempted"], result["failed"], result["errors"]) == (3, 0, [])
    assert result["peak_rss_mib"] > 0
    events = (tmp_path / "dense_cli_run.full-2" / "events_s7.csv").read_text().splitlines()
    assert events[-1].startswith("74.5,")  # the last of 150 steps of 0.5 s


def test_golden_gate(tmp_path):
    pinned = worker.load_pinned()
    assert worker.golden_mismatches(pinned, tmp_path / "a") == []
    for name, digest in pinned["goldens"].items():
        assert digest.startswith(pin.ROADMAP_GOLDENS[name])
    pinned["goldens"]["events_s2.csv"] = "0" * 64
    assert len(worker.golden_mismatches(pinned, tmp_path / "b")) == 1


def test_wrappers_leave_outputs_unchanged(tmp_path):
    pinned = worker.load_pinned()
    for workload, index in (("dense_cli_run", 1), ("sweep_jitter_randomized", 2)):
        unit = workloads.Unit(workload, index, tmp_path)
        unit.run(workloads.plain_api())
        untraced = unit.output()
        tracer = tracing.Tracer()
        with tracer.installed() as api:
            unit.run(api)
            wrapped = pickle.loads(pickle.dumps(hodsim.metrics.run_simulation))
            assert wrapped.func is hodsim.engine.run_simulation
        assert unit.output() == untraced
        assert worker.output_mismatch(pinned, workload, index, untraced) is None
        figures = tracer.layer_metrics()
        assert figures["engine.run_simulation.calls"] == unit.runs
        assert figures["decision.score_network.calls"] > 0
    assert hodsim.engine.score_network is hodsim.decision.score_network
    assert hodsim.metrics.run_simulation is hodsim.engine.run_simulation


def test_self_time_excludes_children(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: next(ticks))
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner())
    outer()
    # clock reads: outer start 0, inner start 1, inner end 2, inner done 3,
    # outer end 4, outer done 5; the inner bookkeeping (2 to 3) is nobody's
    assert tracer.spans["inner"].self_s == 1
    assert tracer.spans["outer"].self_s == 2


def test_rescaling_uses_the_slower_neighbouring_loop():
    nominal = hostspeed.NOMINAL_REFERENCE_S
    samples = [(nominal, 0.1), (2 * nominal, 0.1), (nominal, 0.3)]
    # loops around each run: (1, 2), (2, 1), (1, last) in units of nominal
    assert hostspeed.rescaled(samples) == pytest.approx([0.05, 0.05, 0.3])
    # a unit: loops of 1, 2 and 1 nominal with stretches of 1 s and 2 s between
    loops = [(0.0, nominal), (1 + nominal, 1 + 3 * nominal), (3 + 3 * nominal, 3 + 4 * nominal)]
    assert hostspeed.unit_time(loops) == pytest.approx((3.0, 1.5))


def test_runs_not_timed_in_process_are_no_failure(tmp_path, monkeypatch):
    # The runs of this unit bypass the timed call site, as runs made in
    # worker processes would.
    plain = workloads.plain_api()

    def cli_main(argv):
        with monkeypatch.context() as m:
            m.setattr(hodsim.cli, "run_simulation", hodsim.engine.run_simulation)
            return plain.cli_main(argv)

    monkeypatch.setattr(workloads, "plain_api", lambda: plain._replace(cli_main=cli_main))
    monkeypatch.setattr(worker, "MIN_RUN_SAMPLES", 1)
    unit = workloads.Unit("dense_cli_run", 0, tmp_path)
    outcome = worker.Outcome()
    measured = worker.measure(unit, 0, worker.load_pinned(), outcome)
    assert (outcome.attempted, outcome.failed, outcome.errors) == (unit.runs, 0, [])
    assert set(measured["metrics"]) == {"decisions_per_s"}
    assert "run_ms_missing" in measured["report"]


def test_timed_call_sites_work_in_worker_processes():
    config = hodsim.load_scenario(hodsim.default_document())
    samples = []
    with worker.run_timer(samples, hostspeed.LoopLog()):
        timed = hodsim.metrics.run_simulation
        assert pickle.loads(pickle.dumps(timed)).func is hodsim.engine.run_simulation
        with ProcessPoolExecutor(max_workers=1) as pool:
            log = pool.submit(timed, config, 1).result()
            # a forked process calls through the timed global untimed
            report = pool.submit(hodsim.metrics.sweep, config, "hysteresis", [0.1], [1]).result()
    assert samples == []
    assert hodsim.engine.events_csv(log) == hodsim.engine.events_csv(
        hodsim.engine.run_simulation(config, 1))
    assert report.rows == hodsim.metrics.sweep(config, "hysteresis", [0.1], [1]).rows
