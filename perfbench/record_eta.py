"""Record the experiment_qubit pool's eta_f values into reference_eta.json.

Run from the repository root, once, at the commit whose values become the
reference:

    python3 perfbench/record_eta.py
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from workloads import EXPERIMENT_POOL, experiment_spec, run_experiment  # noqa: E402


def main() -> int:
    eta = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for index in range(EXPERIMENT_POOL):
            spec_json = json.dumps(experiment_spec(index))
            out = run_experiment(index, spec_json, os.path.join(tmp, "experiment.json"))
            if out["rc"] != 0:
                sys.stderr.write(f"pool entry {index}: exit code {out['rc']}\n")
                return 1
            eta[str(index)] = out["eta_f"]
            print(index, out["eta_f"], flush=True)
    with open(os.path.join(HERE, "reference_eta.json"), "w", encoding="utf-8") as fh:
        json.dump({"eta_f": eta}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
