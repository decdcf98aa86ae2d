"""Workload inputs of the hodsim benchmark.

Every workload is a closed loop: one caller in one process repeats one *unit*
of work, each unit starting only after the previous one has finished.  The
workload seed selects one of ``N_INPUTS`` input sets; the pinned output
digests in ``pinned.json`` cover all of them, so every unit's output can be
checked byte for byte.

This module imports nothing from ``hodsim`` at import time: the setup probe
builds its inputs here before it times ``import hodsim``.
"""

import io
import json
import random
from contextlib import redirect_stdout
from pathlib import Path
from typing import Callable, List, NamedTuple

WORKLOADS = ("sweep_hysteresis", "sweep_jitter_randomized", "dense_cli_run")
N_INPUTS = 16

# Simulation seeds per unit: two sweep seeds keep both cores of a two-core
# host busy once sweeps run seeds in parallel; three CLI seeds match the
# `hodsim run --seeds 1,2,3` invocation of the golden fingerprints.
SWEEP_SEEDS_PER_UNIT = 2
DENSE_SEEDS_PER_UNIT = 3

SWEEPS = {
    # workload: (strategy kind, 21-value grid, qos_jitter_sigma)
    "sweep_hysteresis": ("hysteresis", [round(i * 0.05, 10) for i in range(21)], 0.0),
    "sweep_jitter_randomized": ("randomized_wait", [round(i * 0.5, 10) for i in range(21)], 0.5),
}

# Dense world: 4x the default AP count on 4x the default area.  The timed
# runs are kept short (20 steps) so that one benchmark run can pool 160
# run_simulation calls in about 30 s, enough for a steady p90.  The memory
# pass runs one unit at the built-in scenario's length (150 steps) instead,
# because the event logs a run holds and writes grow with its length, and
# those are what peak_rss_mib has to show.
DENSE_GRID = 6
DENSE_SIDE = 400.0
DENSE_USERS = 300
DENSE_MOBILE = 150
DENSE_SIM_TIME = 10.0
DENSE_FULL_SIM_TIME = 75.0
DENSE_ERROR_LEVELS = (0.005, 0.02, 0.08)


def input_index(seed: int) -> int:
    """The input set a workload seed selects."""
    return seed % N_INPUTS


def sim_seeds(workload: str, index: int) -> List[int]:
    """Simulation seeds of one unit of ``workload`` on input set ``index``."""
    n = DENSE_SEEDS_PER_UNIT if workload == "dense_cli_run" else SWEEP_SEEDS_PER_UNIT
    return [index * n + j + 1 for j in range(n)]


def dense_document(index: int, sim_time: float = DENSE_SIM_TIME) -> dict:
    """Scenario document of the dense workload for input set ``index``.

    A 6x6 AP grid with symmetric 4-neighbour wired links, 50 m coverage disks
    that overlap between adjacent cells, per-AP error rates drawn from three
    levels, and 300 users placed uniformly inside the area, half of them
    mobile.  Only the standard library is used, so the document is identical
    on every platform and independent of the package under test.
    """
    rnd = random.Random(1_000_003 * (index + 1))
    spacing = DENSE_SIDE / DENSE_GRID
    aps = []
    for gy in range(DENSE_GRID):
        for gx in range(DENSE_GRID):
            neighbors = [
                f"ap{ny}{nx}"
                for ny, nx in ((gy, gx - 1), (gy, gx + 1), (gy - 1, gx), (gy + 1, gx))
                if 0 <= ny < DENSE_GRID and 0 <= nx < DENSE_GRID
            ]
            aps.append({
                "id": f"ap{gy}{gx}",
                "position": [round(spacing * (gx + 0.5), 6), round(spacing * (gy + 0.5), 6)],
                "coverage_radius": 50.0,
                "base_qos": {
                    "bandwidth": 54.0,
                    "delay": 2.0,
                    "error": rnd.choice(DENSE_ERROR_LEVELS),
                },
                "wired_neighbors": sorted(neighbors),
            })
    mobile = set(rnd.sample(range(DENSE_USERS), DENSE_MOBILE))
    users = [
        {
            "id": f"u{i:03d}",
            "mobile": i in mobile,
            "initial_position": [round(rnd.uniform(5.0, DENSE_SIDE - 5.0), 6),
                                 round(rnd.uniform(5.0, DENSE_SIDE - 5.0), 6)],
            "app_requirements": {"bandwidth": 0.0, "delay": 0.0, "error": 0.0},
        }
        for i in range(DENSE_USERS)
    ]
    return {
        "sim_time": sim_time,
        "decision_step": 0.5,
        "area": [DENSE_SIDE, DENSE_SIDE],
        "rng_seed": index + 1,
        "mobility_ratio": DENSE_MOBILE / DENSE_USERS,
        "strategy": {"kind": "hysteresis", "parameter": 0.1},
        "handover_cost_steps": 1,
        "aps": aps,
        "users": users,
    }


def scenario_document(workload: str, index: int, full_length: bool = False) -> dict:
    """The scenario document of a workload on input set ``index``; the sweeps
    always run the built-in scenario's full length."""
    if workload == "dense_cli_run":
        return dense_document(index, DENSE_FULL_SIM_TIME if full_length else DENSE_SIM_TIME)
    from hodsim import default_document  # the built-in scenario is the program's own

    doc = default_document()
    doc["qos_jitter_sigma"] = SWEEPS[workload][2]
    return doc


class Api(NamedTuple):
    """The package entry points a unit calls; the traced run substitutes
    wrapped ones."""

    load_scenario: Callable
    sweep: Callable
    sweep_csv: Callable
    cli_main: Callable


def plain_api() -> Api:
    import hodsim.cli
    import hodsim.metrics
    import hodsim.scenario

    return Api(hodsim.scenario.load_scenario, hodsim.metrics.sweep,
               hodsim.metrics.sweep_csv, hodsim.cli.main)


class Unit:
    """One unit of a workload on one input set.

    ``run(api)`` is the timed call into the program; ``output()`` returns the
    bytes the digest gate checks: the sweep CSV, or the event CSVs of the
    unit's seeds concatenated in seed order.  ``key`` names the unit's pinned
    outputs: the workload, or ``dense_cli_run.full`` for the full-length
    dense unit of the memory pass.
    """

    def __init__(self, workload: str, index: int, work_dir: Path, full_length: bool = False):
        self.workload = workload
        self.index = index
        self.key = workload + (".full" if full_length and workload not in SWEEPS else "")
        self.seeds = sim_seeds(workload, index)
        self.runs = len(self.seeds) * (len(SWEEPS[workload][1]) if workload in SWEEPS else 1)
        doc = scenario_document(workload, index, full_length)
        steps = int(round(doc["sim_time"] / doc["decision_step"]))
        # terminal-decision rows: mobile terminals x steps x runs
        self.decisions = sum(u["mobile"] for u in doc["users"]) * steps * self.runs
        self.text = json.dumps(doc, indent=1) + "\n"
        self.out_dir = work_dir / f"{self.key}-{index}"
        self.config_path = work_dir / f"{self.key}-{index}.json"
        if workload not in SWEEPS:
            self.config_path.write_text(self.text)
        self._sweep_csv = ""

    def run(self, api: Api) -> None:
        if self.workload in SWEEPS:
            kind, values, _sigma = SWEEPS[self.workload]
            config = api.load_scenario(self.text)
            self._sweep_csv = api.sweep_csv(api.sweep(config, kind, values, self.seeds))
            return
        argv = ["run", "--config", str(self.config_path), "--out", str(self.out_dir),
                "--seeds", ",".join(str(s) for s in self.seeds)]
        with redirect_stdout(io.StringIO()):
            code = api.cli_main(argv)
        if code != 0:
            raise RuntimeError(f"hodsim {' '.join(argv)} exited with {code}")

    def output(self) -> bytes:
        if self.workload in SWEEPS:
            return self._sweep_csv.encode("utf-8")
        return b"".join((self.out_dir / f"events_s{s}.csv").read_bytes() for s in self.seeds)

    def output_files_bytes(self) -> int:
        """Total size of the files the CLI wrote (0 for sweeps)."""
        if not self.out_dir.is_dir():
            return 0
        return sum(p.stat().st_size for p in self.out_dir.iterdir())
