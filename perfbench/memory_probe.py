"""Memory pass of the hodsim benchmark; started by run.py in a fresh interpreter.

    python3 perfbench/memory_probe.py WORKLOAD INPUT_INDEX WORK_DIR

Runs one unit of the workload at full length (for dense_cli_run the built-in
scenario's 150 steps, not the 20 of the timed loop), checks its output
against the pinned digest, and prints as one JSON object the largest
resident set of this process and of every child it waited for, with the
runs attempted and failed.
"""

import json
import sys
from pathlib import Path

import worker  # puts the checkout's src on the import path
import workloads

workload, index, work_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
unit = workloads.Unit(workload, index, work_dir, full_length=True)
outcome = worker.Outcome()
worker.run_unit(unit, workloads.plain_api(), worker.load_pinned(), outcome)
print(json.dumps({"peak_rss_mib": worker.peak_rss_mib(), "attempted": outcome.attempted,
                  "failed": outcome.failed, "errors": outcome.errors}))
