"""Write the benchmark's stored expectations from the current program.

    python3 perfbench/make_golden.py

* ``golden/knit_sequences.json``: the worked and golden knitted sequences
  (type, kernel, middle, target), copied from ``preproj.fixtures`` so that
  the knit workload's inputs and expected shapes belong to the benchmark.
* ``golden/cli/<item>.out``: the exact stdout of each cli item.

These files were written once, at the commit that defined the benchmark;
rewriting them makes a changed output pass, so do it only for an intended
change of output.
"""
import json
import os
import subprocess
import sys

from worker import CLI_ENTRY, ROOT, worker_env
from workloads import GOLDEN, cli_commands


def main() -> None:
    from preproj import fixtures

    os.makedirs(os.path.join(GOLDEN, "cli"), exist_ok=True)
    seqs = [{"id": f.fixture_id, "type": str(f.type), "kernel": f.kernel,
             "middle": list(f.middle), "target": f.target}
            for f in fixtures.worked_example_fixtures() + fixtures.golden_knit_fixtures()]
    with open(os.path.join(GOLDEN, "knit_sequences.json"), "w") as fh:
        json.dump(seqs, fh, indent=1)
        fh.write("\n")
    for item_id, argv in cli_commands():
        proc = subprocess.run([sys.executable, "-c", CLI_ENTRY] + argv, env=worker_env(),
                              capture_output=True, check=True, cwd=ROOT)
        with open(os.path.join(GOLDEN, "cli", f"{item_id}.out"), "wb") as fh:
            fh.write(proc.stdout)


if __name__ == "__main__":
    main()
