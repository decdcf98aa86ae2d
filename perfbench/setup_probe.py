"""Set-up probe of the hodsim benchmark; started by run.py in a fresh interpreter.

Times ``import hodsim`` and building and validating the workload's scenario,
with the reference loop of hostspeed.py just before and just after, and
prints the three times as one JSON object.  The dense scenario document is
made before the import, because the generator is the benchmark's and not the
program's; the built-in scenario of the sweeps is made by the program.
"""

import json
import sys
import time
from pathlib import Path

import workloads
from hostspeed import reference_loop

workload, index = sys.argv[1], int(sys.argv[2])
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
document = workloads.dense_document(index) if workload == "dense_cli_run" else None

before = reference_loop()
start = time.perf_counter()
import hodsim  # noqa: E402

imported = time.perf_counter()
if document is None:
    document = workloads.scenario_document(workload, index)
hodsim.load_scenario(document)
built = time.perf_counter()
reference = max(before, reference_loop())
print(json.dumps({"import_s": imported - start, "scenario_s": built - imported,
                  "reference_s": reference}))
