"""The hodsim benchmark: one workload run, measured and checked.

    python3 perfbench/run.py --workload sweep_hysteresis --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a source checkout; it imports the package from
the checkout's ``src`` directory and nowhere else.  The measuring happens in a
child process (worker.py).  With ``--trace 0`` a memory pass follows, one
full-length unit in a fresh interpreter (memory_probe.py), whose peak
resident set is ``peak_rss_mib``.  The set-up probes run last, each in a
fresh interpreter (setup_probe.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``, by the
names and units of ``BENCHMARK.json``.  The
lines before it are a report with every figure, the environment and the
reason of any failure.  The exit code is 0 only if every output matched its
pinned digest.  See README.md for the workloads and the layer map.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from hostspeed import rescale
from workloads import WORKLOADS, input_index

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

SETUP_PROBES = 5
# Every child is killed once this many seconds of the run have passed, so a
# run ends well within the 180 s it may take.
DEADLINE_S = 170

def revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown: the checkout is not a git repository"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def child(script: str, args: list, env: dict, deadline: float) -> dict:
    """Run a benchmark script in a fresh interpreter until ``deadline`` (on
    the monotonic clock); its last line is JSON."""
    proc = subprocess.run([sys.executable, str(HERE / script), *args], env=env,
                          capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 0.1))
    if proc.returncode != 0:
        raise RuntimeError(f"{script} exited with {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description="hodsim benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "hodsim" / "__init__.py").is_file():
        print(f"error: no hodsim package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    deadline = time.monotonic() + DEADLINE_S
    load_at_start = os.getloadavg()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    index = input_index(args.seed)
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
            measured = child("worker.py", [
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--work-dir", work,
            ], env, deadline)
            memory = None if args.trace else child(
                "memory_probe.py", [args.workload, str(index), work], env, deadline)
        # After the workload, so every probe finds the package's bytecode cached.
        probes = [child("setup_probe.py", [args.workload, str(index)], env, deadline)
                  for _ in range(SETUP_PROBES)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    figures = dict(measured["metrics"])
    figures["setup.import_s"] = statistics.median(p["import_s"] for p in probes)
    figures["setup.scenario_s"] = statistics.median(p["scenario_s"] for p in probes)
    figures["setup_s"] = statistics.median(
        rescale(p["import_s"] + p["scenario_s"], p["reference_s"]) for p in probes)
    figures["raw_setup_s"] = statistics.median(p["import_s"] + p["scenario_s"] for p in probes)
    attempted, failed = measured["attempted"], measured["failed"]
    errors = list(measured["errors"])
    if memory is not None:
        figures["peak_rss_mib"] = memory["peak_rss_mib"]
        attempted += memory["attempted"]
        failed += memory["failed"]
        errors += memory["errors"]
    figures["failed_frac"] = failed / attempted
    figures["ok_frac"] = 1.0 - figures["failed_frac"]
    correct = failed == 0 and not errors

    metrics = {name: {"value": figures[name], "unit": unit}
               for name, unit in wanted.items() if name in figures}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "python": platform.python_version(),
            **measured["versions"],
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "revision": revision(),
            "loadavg_at_start": load_at_start,
        },
        "errors": errors,
        "missing_metrics": sorted(set(wanted) - set(metrics)),
        "exact_counts": measured["exact_counts"],
        "figures": figures,
        "details": measured["report"],
        "memory_pass": memory,
        "setup_probes": probes,
    }
    print("report " + json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
