"""Measuring process of the hodsim benchmark; started by run.py.

Runs one workload in a closed loop for the given number of seconds, checks
every unit's output against the pinned digests, and prints one JSON object
with the figures of the run.  With ``--trace 1`` it alternates untraced and
traced units on the same input and reports per-layer figures instead.
"""

import argparse
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from contextlib import contextmanager, redirect_stdout
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hodsim  # noqa: E402
import hodsim.cli  # noqa: E402
import hodsim.metrics  # noqa: E402

import workloads  # noqa: E402
from tracing import LocalWrapper, Tracer  # noqa: E402
from hostspeed import NOMINAL_REFERENCE_S, LoopLog, rescaled, unit_time  # noqa: E402

PINNED = HERE / "pinned.json"
GOLDEN_FILES = ("events_s1.csv", "events_s2.csv", "events_s3.csv")

# A p90 needs at least ten samples beyond it; with 16 the p90 of the dense
# workload, which pools only three distinct runs, stays steady.  The units of
# a benchmark run make at least this many runs, even if that takes longer
# than --seconds.
MIN_RUN_SAMPLES = 160
# Hard stop for the measuring loop, well inside the 180 s a run may take.
MAX_LOOP_S = 90.0

# Per-layer figures that are exact counts: for one input they must repeat
# exactly, run after run and commit after commit unless the commit changes
# what is counted.
EXACT_SUFFIXES = (".calls", ".unique_ratio", ".handovers", ".suppressed", ".records_copied",
                  ".bytes", ".ap_checks", ".hits", ".hits_per_call", ".candidates",
                  ".candidates_per_call", "output_bytes")
EXACT_COUNTS_RULE = (
    "per-layer figures ending in " + ", ".join(EXACT_SUFFIXES) + " are exact counts of one "
    "unit: for the same --seed they must repeat exactly; the traced run flags any that differ "
    "between its units")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_pinned() -> dict:
    return json.loads(PINNED.read_text())


def output_mismatch(pinned: dict, key: str, index: int, data: bytes) -> Optional[str]:
    """The digest gate: None if ``data`` is the pinned output of the unit
    with this key (see workloads.Unit) on input set ``index``."""
    want = pinned["outputs"][key][str(index)]
    got = sha256(data)
    if got == want:
        return None
    return f"{key} input {index}: output sha256 {got[:16]} differs from pinned {want[:16]}"


def golden_digests(out_dir: Path) -> Dict[str, str]:
    """sha256 of the ROADMAP golden event logs, made by `hodsim run --seeds
    1,2,3` on the built-in scenario."""
    with redirect_stdout(io.StringIO()):
        code = hodsim.cli.main(["run", "--seeds", "1,2,3", "--out", str(out_dir)])
    paths = {name: out_dir / name for name in GOLDEN_FILES}
    return {name: sha256(path.read_bytes()) if path.is_file() else f"missing, exit code {code}"
            for name, path in paths.items()}


def golden_mismatches(pinned: dict, out_dir: Path) -> List[str]:
    """Recompute the goldens; one message per event log that differs."""
    got = golden_digests(out_dir)
    return [f"golden {name}: sha256 {got[name][:16]} differs from pinned {want[:16]}"
            for name, want in sorted(pinned["goldens"].items()) if got[name] != want]


def cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mib() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


@contextmanager
def run_timer(samples: List[Tuple[float, float]], loops: LoopLog) -> Iterator[None]:
    """Time every run_simulation call made in this process at the sweep and
    CLI call sites.

    Each call runs the reference loop into ``loops`` and appends (reference
    loop seconds, run seconds) to ``samples``; see hostspeed.  This is the one
    wrapper of the untraced run.
    """
    original = hodsim.engine.run_simulation
    clock = time.perf_counter

    def timed(*args, **kwargs):
        reference = loops.run()
        start = clock()
        result = original(*args, **kwargs)
        samples.append((reference, clock() - start))
        return result

    hodsim.metrics.run_simulation = hodsim.cli.run_simulation = LocalWrapper(original, timed)
    try:
        yield
    finally:
        hodsim.metrics.run_simulation = hodsim.cli.run_simulation = original


class Outcome:
    """Runs attempted and failed, with the reason of every failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def fail(self, runs: int, message: str) -> None:
        self.failed += runs
        self.errors.append(message)


def run_unit(unit: workloads.Unit, api: workloads.Api, pinned: dict, outcome: Outcome,
             loops: Optional[LoopLog] = None) -> Optional[Dict[str, float]]:
    """Run one unit, time the call into the program and gate its output.

    With ``loops``, the reference loop runs just before and just after the
    call.  Returns the unit's wall and CPU seconds, or None if it failed.
    """
    outcome.attempted += unit.runs
    try:
        if loops is not None:
            loops.run()
        wall, cpu = time.perf_counter(), cpu_seconds()
        unit.run(api)
        timing = {"wall_s": time.perf_counter() - wall, "cpu_s": cpu_seconds() - cpu}
        if loops is not None:
            loops.run()
        data = unit.output()
    except Exception as exc:  # noqa: BLE001 - a failing unit is a measured outcome
        outcome.fail(unit.runs, f"{unit.key} input {unit.index}: {exc!r}")
        return None
    message = output_mismatch(pinned, unit.key, unit.index, data)
    if message is not None:
        outcome.fail(unit.runs, message)
        return None
    return timing


def measure(unit: workloads.Unit, seconds: float, pinned: dict, outcome: Outcome) -> dict:
    """End-to-end figures of the untraced closed loop, rescaled to the
    nominal host speed; the raw figures go to the report.

    decisions_per_s times each unit as a whole: from the reference loop just
    before it to the one just after it, rescaled stretch by stretch between
    every reference loop run in between.  run_ms_p50 and run_ms_p90 need one
    timed run_simulation call in this process for every run of every unit;
    when a unit made other calls (runs moved to worker processes, or several
    runs folded into one call), the two are left out and the report says why.
    """
    api = workloads.plain_api()
    samples: List[Tuple[float, float]] = []
    loops = LoopLog()
    raw_walls: List[float] = []
    scaled_walls: List[float] = []
    calls_per_unit: List[int] = []
    start = time.perf_counter()
    with run_timer(samples, loops):
        while True:
            first, first_loop = len(samples), len(loops.intervals)
            if run_unit(unit, api, pinned, outcome, loops) is None:
                break
            calls_per_unit.append(len(samples) - first)
            raw, scaled = unit_time(loops.intervals[first_loop:])
            raw_walls.append(raw)
            scaled_walls.append(scaled)
            elapsed = time.perf_counter() - start
            if elapsed >= MAX_LOOP_S or (
                    elapsed >= seconds and len(raw_walls) * unit.runs >= MIN_RUN_SAMPLES):
                break
    report: Dict[str, object] = {"units": len(raw_walls), "timed_run_calls": len(samples)}
    if not raw_walls:
        return {"metrics": {}, "report": report}
    metrics = {"decisions_per_s": statistics.median(unit.decisions / w for w in scaled_walls)}
    report["raw_decisions_per_s"] = statistics.median(unit.decisions / w for w in raw_walls)
    report["host_speed"] = NOMINAL_REFERENCE_S / statistics.median(e - s for s, e in loops.intervals)
    if any(n != unit.runs for n in calls_per_unit):
        report["run_ms_missing"] = (
            f"units of {unit.runs} runs made {sorted(set(calls_per_unit))} timed run_simulation "
            "calls in this process; run_ms_p50 and run_ms_p90 need exactly one per run")
        return {"metrics": metrics, "report": report}
    scaled_runs = rescaled(samples)
    raw_runs = [d for _, d in samples]
    metrics["run_ms_p50"] = statistics.median(scaled_runs) * 1e3
    metrics["run_ms_p90"] = statistics.quantiles(scaled_runs, n=10)[8] * 1e3
    report.update({
        "runs_beyond_p90": sum(1 for s in scaled_runs if s * 1e3 > metrics["run_ms_p90"]),
        "raw_run_ms_p50": statistics.median(raw_runs) * 1e3,
        "raw_run_ms_p90": statistics.quantiles(raw_runs, n=10)[8] * 1e3,
    })
    return {"metrics": metrics, "report": report}


def measure_traced(unit: workloads.Unit, seconds: float, pinned: dict, outcome: Outcome) -> dict:
    """Per-layer figures: untraced and traced units alternate on one input.

    Exact counts come from the first traced unit and every later traced unit
    must repeat them; times are medians over the traced units.
    """
    plain = workloads.plain_api()
    untraced: List[Dict[str, float]] = []
    traced: List[Dict[str, float]] = []
    layers: List[Dict[str, float]] = []

    def traced_unit() -> bool:
        tracer = Tracer()
        with tracer.installed() as api:
            timing = run_unit(unit, api, pinned, outcome)
        if timing is None:
            return False
        traced.append(timing)
        figures = tracer.layer_metrics()
        figures["cli.output_bytes"] = unit.output_files_bytes()
        layers.append(figures)
        return True

    def untraced_unit() -> bool:
        timing = run_unit(unit, plain, pinned, outcome)
        if timing is not None:
            untraced.append(timing)
        return timing is not None

    start = time.perf_counter()
    pair = 0
    while True:
        order: List[Callable[[], bool]] = [untraced_unit, traced_unit]
        if pair % 2:
            order.reverse()
        if not all(step() for step in order):
            break
        pair += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or elapsed >= MAX_LOOP_S:
            break
    if not layers:
        return {"metrics": {}, "report": {"pairs": pair}}

    names = sorted(set().union(*layers))
    figures: Dict[str, float] = {}
    unstable = []
    for name in names:
        values = [layer.get(name, 0) for layer in layers]
        if name.endswith(EXACT_SUFFIXES):
            figures[name] = values[0]
            if any(v != values[0] for v in values):
                unstable.append(name)
        else:
            figures[name] = statistics.median(values)
    untraced_wall = statistics.median(t["wall_s"] for t in untraced)
    figures["process.wall_s"] = untraced_wall
    figures["process.cpu_s"] = statistics.median(t["cpu_s"] for t in untraced)
    figures["trace.overhead_ratio"] = (
        statistics.median(t["wall_s"] for t in traced) / untraced_wall - 1.0)
    if unstable:
        outcome.errors.append(f"exact counts did not repeat: {', '.join(unstable)}")
    report = {"pairs": pair, "unstable_exact_counts": unstable,
              "traced_unit_wall_s": [t["wall_s"] for t in traced],
              "untraced_unit_wall_s": [t["wall_s"] for t in untraced]}
    return {"metrics": figures, "report": report}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    expected = (ROOT / "src" / "hodsim").resolve()
    if Path(hodsim.__file__).resolve().parent != expected:
        print(f"hodsim imported from {hodsim.__file__}, not {expected}", file=sys.stderr)
        return 2

    import numpy
    import scipy

    pinned = load_pinned()
    index = workloads.input_index(args.seed)
    unit = workloads.Unit(args.workload, index, args.work_dir)
    outcome = Outcome()

    # The goldens go first; they also warm the interpreter up.
    outcome.attempted += len(pinned["goldens"])
    bad = golden_mismatches(pinned, args.work_dir / "golden")
    if bad:
        outcome.fail(len(bad), "; ".join(bad))

    measured = (measure_traced if args.trace else measure)(unit, args.seconds, pinned, outcome)
    result = {
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors,
        "metrics": measured["metrics"],
        "report": dict(measured["report"], input_index=index, sim_seeds=unit.seeds,
                       runs_per_unit=unit.runs),
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        "exact_counts": EXACT_COUNTS_RULE,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
