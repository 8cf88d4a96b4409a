"""One round of a workload in a fresh process.

    python3 perfbench/worker.py <workload> <seed> <mode>

mode is ``setup`` (build the inputs and stop), ``plain`` or ``traced``.
Prints one JSON object: the monotonic time at which set-up ended, each
item's id, label, seconds, status, result digest and the pace around it
(pace.py), the round's wall time (without the pace samples taken between
items), its peak resident set size, its median pace sample and, when
traced, the tracer's totals.  Set-up
is timed by the parent from before it started this process, so it covers
interpreter start, importing preproj and building the seeded inputs.
"""
from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from pace import Pace  # noqa: E402

CLI_ENTRY = "import sys; from preproj.cli import main; sys.exit(main())"


def run_round(workload: str, seed: int, mode: str) -> dict:
    """Time the in-process items, then the cli items, each once, sampling
    the machine pace (pace.py) between them.

    Cli items are cold ``preproj`` processes; traced ones run the same entry
    point under the tracer and hand back its totals on stderr, which are
    added to the in-process tracer's."""
    import random

    import workloads

    items = workloads.in_process_items(workload, seed)
    ready = time.monotonic()
    pace = Pace()
    if mode == "setup":
        for _ in range(5):
            pace.sample(force=True)
        return {"ready": ready, "pace_s": pace.median()}
    commands = workloads.cli_commands(workloads.WORKLOADS[workload][1])
    random.Random(seed).shuffle(commands)
    tracer = None
    if mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    results, starts, times = [], [], []
    start = time.perf_counter()
    for item in items:
        pace.sample()
        t0 = time.perf_counter()
        starts.append(t0)
        try:
            results.append(item.run())
        except Exception as exc:  # an item that raises fails; the round goes on
            results.append(exc)
        times.append(time.perf_counter() - t0)
    if tracer is not None:
        tracer.uninstall()
    prefix = ([sys.executable, os.path.join(HERE, "traced_cli.py")] if mode == "traced"
              else [sys.executable, "-c", CLI_ENTRY])
    outputs, cli_times, traces = [], [], []
    for _, argv in commands:
        pace.sample()
        t0 = time.perf_counter()
        starts.append(t0)
        proc = subprocess.run(prefix + argv, capture_output=True)
        cli_times.append(time.perf_counter() - t0)
        outputs.append((proc.returncode, proc.stdout))
        traces.append(proc.stderr)
    wall = time.perf_counter() - start - pace.spent
    rows = []
    for item, res, sec in zip(items, results, times):
        if isinstance(res, Exception):
            status, dig = workloads.ERROR, f"{type(res).__name__}: {res}"
        else:
            status, dig = item.check(res)
        rows.append([item.id, item.label, sec, status, dig])
    for (item_id, _), (code, out), sec in zip(commands, outputs, cli_times):
        status, dig = workloads.check_cli(item_id, code, out)
        rows.append([item_id, item_id.rsplit("-", 1)[1], sec, status, dig])
    for row, t0 in zip(rows, starts):
        row.append(pace.around(t0))
    trace = merge_traces(tracer.report(), traces) if tracer is not None else None
    maxrss = max(resource.getrusage(who).ru_maxrss
                 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return {"ready": ready, "wall_s": wall, "items": rows, "trace": trace,
            "maxrss_kb": maxrss, "pace_s": pace.median(), "pace_samples": len(pace.samples)}


def worker_env() -> dict:
    """Environment of every timed process; cli items inherit it from their worker."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"   # identical set iteration order in every round
    # time processes as an installed package runs them, from cached bytecode
    # (written by the warm-up), whatever the caller's environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def merge_traces(own: dict, blobs: list[bytes]) -> dict:
    """Add the tracer totals of the traced cli processes to this process's."""
    from tracer import TRACE_MARK

    total = {"calls": {}, "self_s": {}, "sites": {}, "extra": {}, "missing": []}
    reports = [own] + [json.loads(line[len(TRACE_MARK):]) for blob in blobs
                       for line in blob.decode().splitlines() if line.startswith(TRACE_MARK)]
    if len(reports) != len(blobs) + 1:
        raise RuntimeError("a traced cli process reported no totals")
    for rep in reports:
        for key in ("calls", "self_s", "sites"):
            for name, value in rep[key].items():
                total[key][name] = total[key].get(name, 0) + value
        for name, value in rep["extra"].items():
            combine = max if name == "pathalg.coef_max_bits" else (lambda a, b: a + b)
            total["extra"][name] = combine(total["extra"].get(name, 0), value)
        total["missing"] = sorted(set(total["missing"]) | set(rep["missing"]))
    return total


def main() -> None:
    workload, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    out = run_round(workload, seed, mode)
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
