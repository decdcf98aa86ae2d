"""Write pinned.json: the sha256 of every unit output of every workload,
and of the full-length dense unit of the memory pass.

    python3 perfbench/pin.py

Run it only on a commit whose outputs are known to be right.  The pinned
outputs of this file were produced by the unmodified package; a change that
moves them must say why in CHANGES.md.  The golden event logs are checked
against the fingerprint prefixes published in ROADMAP.md before anything is
written.
"""

import json
import sys
import tempfile
from pathlib import Path

import run
import worker  # sets up the import path of the package under test
import workloads

ROADMAP_GOLDENS = {
    "events_s1.csv": "64d882d6ec8ecca9",
    "events_s2.csv": "4e9eeb0492245a52",
    "events_s3.csv": "301355820fada4b7",
}


def main() -> int:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=worker.ROOT) as tmp:
        work = Path(tmp)
        goldens = worker.golden_digests(work / "golden")
        for name, prefix in ROADMAP_GOLDENS.items():
            if not goldens[name].startswith(prefix):
                print(f"{name}: {goldens[name][:16]} is not the ROADMAP golden {prefix}",
                      file=sys.stderr)
                return 1
        api = workloads.plain_api()
        outputs = {}
        for workload in workloads.WORKLOADS:
            # sweep units always run at full length
            lengths = (False,) if workload in workloads.SWEEPS else (False, True)
            for index in range(workloads.N_INPUTS):
                for full_length in lengths:
                    unit = workloads.Unit(workload, index, work, full_length)
                    unit.run(api)
                    digest = worker.sha256(unit.output())
                    outputs.setdefault(unit.key, {})[str(index)] = digest
                    print(unit.key, index, digest[:16], flush=True)
    pinned = {"revision": run.revision(), "goldens": goldens, "outputs": outputs}
    worker.PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
