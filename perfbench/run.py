"""The preproj benchmark.

    python3 perfbench/run.py --workload {pathalg,weights} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; preproj is imported from ``src``.
Every round of a workload is a fresh process (worker.py), because the
path-algebra model cache lives for the whole process.

With ``--trace 0`` it runs rounds until ``--seconds`` is used up (at least
MIN_ROUNDS) and reports the end-to-end metrics, with every time normalised
to the reference pace of pace.py; the ``record`` line keeps the raw times
and the paces.  With ``--trace 1`` it runs
one untraced and two traced rounds, checks that tracing changed no result
and that the counts repeat exactly, and reports the per-layer metrics.
Human-readable lines and a ``record`` line come first; the last line of
stdout is the JSON result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from pace import normalise  # noqa: E402
from worker import worker_env  # noqa: E402
from workloads import ERROR, OK, WORKLOADS, WRONG  # noqa: E402

MIN_ROUNDS = 3
RUN_LIMIT_S = 170   # a run must end within 180 s, whatever the program does
SETUP_PROBES_PER_ROUND = 2
INPUT_SIZE = {
    "pathalg": "19 printed map pairs x 3 weights (printed, component, seeded Gaussian), "
               "verify_zero_product(degree_cap=24) + check_certificate; "
               "245 worked and golden sequences, types in seeded order, knit + extract_maps; "
               "7 cold preproj processes: README knit and dims examples as text and "
               "--format json, + dims --format json for A20, D16, E8",
    "weights": "15 extended types x 80 seeded weights (1 in 4 Gaussian) through "
               "quasi_dominantize..descriptor (+ presentation on ~A), "
               "+ smooth_resolution per type; "
               "8 cold preproj processes: README decompose, intersect, resolve and "
               "presentation examples as text and --format json",
}

# Names the traced run must see called on each workload: "layer.function"
# counts every call, "layer.function@module" only calls made through the
# binding in that module, which catches a binding the tracer missed.
CLI_HITS = ["cli.main", "cli.dispatch", "cli.to_json", "dynkin.parse_type@cli"]
EXPECTED_HITS = {
    "pathalg": [
        "weights.FieldElem.mul", "weights.FieldElem.add", "weights.FieldElem.div",
        "dynkin.arrow", "dynkin.build_extended@pathalg", "dynkin.build_extended@knitting",
        "pathalg.extend_to", "pathalg._build_layer", "pathalg.nf", "pathalg.nf_path",
        "pathalg.is_zero", "pathalg.certificate", "pathalg.ideal_member",
        "pathalg.check_certificate", "pathalg.multiply@pathalg", "pathalg.multiply@knitting",
        "pathalg.model_for@pathalg", "pathalg.model_for@knitting",
        "pathalg.verify_zero_product", "pathalg.verify_zero_product@knitting",
        "knitting.knit", "knitting.extract_maps",
        *CLI_HITS, "cli.cmd_knit", "cli.cmd_dims", "pathalg.graded_dims_pi@cli",
        "pathalg.hom_matrix@cli", "knitting.knit@cli", "knitting.extract_maps@cli"],
    "weights": [
        "weights.FieldElem.mul", "weights.FieldElem.add", "dynkin.cartan@weights",
        "dynkin.cartan@intersection", "dynkin.build_extended@dynkin",
        "dynkin.build_extended@singularity", "dynkin.classify_components@singularity",
        "dynkin.nakayama@singularity", "weights.dual_reflection", "weights.numbers_game",
        "weights.quasi_dominantize", "weights.classify_weight",
        "weights.resolve_to_smooth@intersection", "singularity.q_lambda_decompose",
        "singularity.translation_permutation", "singularity.descriptor",
        "typea.presentation", "intersection.smooth_resolution",
        "intersection.intersection_matrix",
        *CLI_HITS, "cli.cmd_decompose", "cli.cmd_intersect", "cli.cmd_resolve",
        "cli.cmd_presentation", "intersection.intersection_matrix@cli",
        "intersection.smooth_resolution@cli", "typea.presentation@cli",
        "singularity.q_lambda_decompose@cli", "weights.classify_weight@cli"],
}
LAYER_SELF = ("dynkin", "weights", "pathalg", "knitting", "singularity",
              "intersection", "typea", "cli")


class BenchError(Exception):
    """The benchmark could not run (missing sources, a crashed worker)."""


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one worker; kill it and everything it started if it is still
    running at the deadline (a monotonic time)."""
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"),
                             workload, str(seed), mode],
                            env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(deadline - t0, 0.1))
    except BaseException as exc:
        kill_group(proc)
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"{workload} {mode} worker was still running at the "
                             f"{RUN_LIMIT_S} s limit") from None
        raise
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} worker exited {proc.returncode}:\n{stderr}")
    out = json.loads(stdout.strip().splitlines()[-1])
    out["spawned"] = t0
    return out


def kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL the worker's process group (it and its preproj processes) and
    wait until none of them is left."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def quantile(values: list[float], p: float) -> float:
    """Linear interpolation between order statistics (p in percent)."""
    xs = sorted(values)
    pos = p / 100 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """The highest percentile of the ladder with at least ten of the n
    samples beyond it.  The ladder skips p95: on these workloads it falls on
    the step between the few heavy items (model building, E7-33, the smooth
    resolutions) and the rest, where it jumps from seed to seed."""
    for p in (99.9, 99, 90, 75):
        if n * (1 - p / 100) >= 10:
            return p
    return 50.0


def environment() -> dict:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "preproj")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    commit = None   # a checkout without .git is identified by src_sha256 alone
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    return {"commit": commit, "src_sha256": h.hexdigest()[:16],
            "python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0))}


def summarize_items(rounds: list[dict]) -> dict:
    rows = [r for rnd in rounds for r in rnd["items"]]
    by_label: dict[str, list[float]] = {}
    for _, label, sec, *_ in rows:
        by_label.setdefault(label, []).append(sec)
    failing = sorted({f"{item_id} ({status})" for item_id, _, _, status, *_ in rows
                      if status != OK})
    return {"rows": rows, "failing": failing,
            "failed": sum(1 for r in rows if r[3] != OK),
            "wrong": sum(1 for r in rows if r[3] in (WRONG, ERROR)),
            "labels": {k: {"n": len(v), "p50_ms": statistics.median(v) * 1e3,
                           "total_s": sum(v)} for k, v in sorted(by_label.items())}}


def end_to_end(workload: str, seed: int, seconds: int,
               deadline: float) -> tuple[dict, dict, dict]:
    start = time.monotonic()
    setups, rounds, longest = [], [], 0.0
    # set-up probes are spread over the run, like the rounds, so that both
    # medians see the same stretch of machine time
    # go on while one more round, as long as the longest so far, fits in the run
    while len(rounds) < MIN_ROUNDS or time.monotonic() - start + longest <= seconds:
        t0 = time.monotonic()
        for _ in range(SETUP_PROBES_PER_ROUND):
            probe = spawn(workload, seed, "setup", deadline)
            setups.append((probe["ready"] - probe["spawned"], probe["pace_s"]))
        rounds.append(spawn(workload, seed, "plain", deadline))
        longest = max(longest, time.monotonic() - t0)
    items = summarize_items(rounds)
    # Every time is normalised by the machine pace measured around it (see
    # pace.py), and a round's time is the sum of its items'.  Percentiles
    # are taken over the item samples of all rounds; the tail percentile is
    # fixed by the item count of MIN_ROUNDS rounds, so it does not change
    # with the number of rounds that fit in the run.
    per_round = [[normalise(row[2], row[5]) for row in r["items"]] for r in rounds]
    latencies = [x for times in per_round for x in times]
    pct = tail_percentile(len(rounds[0]["items"]) * MIN_ROUNDS)
    metrics = {
        "wall_s": (statistics.median(sum(times) for times in per_round), "s"),
        "setup_s": (statistics.median(normalise(t, p) for t, p in setups), "s"),
        "item_p50_ms": (quantile(latencies, 50) * 1e3, "ms"),
        "item_tail_ms": (quantile(latencies, pct) * 1e3, "ms"),
        "peak_rss_mb": (statistics.mean(r["maxrss_kb"] for r in rounds) / 1024, "MB"),
    }
    info = {"rounds": len(rounds), "tail_percentile": pct,
            "item_samples": len(items["rows"]),
            "failed_frac": items["failed"] / len(items["rows"]),
            "raw_wall_s_rounds": [r["wall_s"] for r in rounds],
            "pace_s_rounds": [r["pace_s"] for r in rounds],
            "pace_samples_rounds": [r["pace_samples"] for r in rounds],
            "raw_setup_s_probes": [t for t, _ in setups],
            "pace_s_probes": [p for _, p in setups]}
    return metrics, items, info


def layer_metrics(traces: list[dict], plain_wall: float, traced_walls: list[float]) -> dict:
    a = traces[0]

    def calls(name):
        return a["calls"].get(name, 0)

    def self_s(prefix):
        return statistics.mean(sum(v for k, v in t["self_s"].items()
                                   if k == prefix or k.startswith(prefix + "."))
                               for t in traces)

    def ratio(num, den):
        return num / den if den else 0.0

    extra = a["extra"]
    m = {}
    for op in ("mul", "add", "div"):
        m[f"weights.FieldElem.{op}.calls"] = (calls(f"weights.FieldElem.{op}"), "count")
    m["pathalg.coef_max_bits"] = (extra["pathalg.coef_max_bits"], "bits")
    for name in ("dynkin.cartan", "dynkin.build_extended", "dynkin.arrow",
                 "weights.dual_reflection", "weights.numbers_game", "pathalg.nf",
                 "pathalg.nf_path", "pathalg.multiply", "pathalg.certificate",
                 "pathalg.ideal_member"):
        m[f"{name}.calls"] = (calls(name), "count")
    for name in ("weights.dual_reflection", "pathalg.extend_to", "pathalg.nf",
                 "pathalg.multiply", "pathalg.certificate", "pathalg.check_certificate",
                 "knitting.knit", "knitting.extract_maps", "cli.dispatch", "cli.to_json"):
        m[f"{name}.self_s"] = (self_s(name), "s")
    for layer in LAYER_SELF:
        m[f"{layer}.self_s"] = (self_s(layer), "s")
    for name in ("weights.reflection_word_len", "pathalg.layers_built",
                 "pathalg.basis_elems", "pathalg.certificate_terms",
                 "knitting.assignments_tried"):
        m[name] = (extra[name], "count")
    m["pathalg.greedy_hit_ratio"] = (ratio(extra["pathalg.greedy_hits"],
                                           calls("pathalg.ideal_member")), "ratio")
    m["knitting.assignment_hit_ratio"] = (ratio(extra["knitting.resolved"],
                                                extra["knitting.assignments_tried"]), "ratio")
    m["trace.overhead_s"] = (statistics.median(traced_walls) - plain_wall, "s")
    return m


def traced(workload: str, seed: int, deadline: float) -> tuple[dict, dict, dict, list[str]]:
    plain = spawn(workload, seed, "plain", deadline)
    runs = [spawn(workload, seed, "traced", deadline) for _ in range(2)]
    problems = []
    want = {r[0]: (r[3], r[4]) for r in plain["items"]}
    for k, run in enumerate(runs):
        got = {r[0]: (r[3], r[4]) for r in run["items"]}
        diff = sorted(i for i in want if got.get(i) != want[i])
        if diff or set(got) != set(want):
            problems.append(f"traced round {k + 1} changed results of {diff[:5]}")
    counts = [{key: t[key] for key in ("calls", "sites", "extra")}
              for t in (r["trace"] for r in runs)]
    if counts[0] != counts[1]:
        problems.append("counts differ between the two traced rounds")
    hits = {**counts[0]["calls"], **counts[0]["sites"]}
    missed = [name for name in EXPECTED_HITS[workload] if not hits.get(name)]
    if missed:
        problems.append(f"wrapped names never hit: {missed}")
    metrics = layer_metrics([r["trace"] for r in runs], plain["wall_s"],
                            [r["wall_s"] for r in runs])
    items = summarize_items([plain] + runs)
    info = {"untraced_wall_s": plain["wall_s"], "traced_wall_s": [r["wall_s"] for r in runs],
            "not_traced": runs[0]["trace"]["missing"], "self_check": problems or "ok"}
    return metrics, items, info, problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="preproj benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "preproj", "__init__.py")):
        print(f"error: no preproj sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "input": INPUT_SIZE[args.workload], **environment(),
              "loadavg_start": os.getloadavg()}
    try:
        # warm-up: byte-compiles the sources, so no timed process pays for it
        spawn(args.workload, args.seed, "setup", deadline)
        if args.trace:
            metrics, items, info, problems = traced(args.workload, args.seed, deadline)
        else:
            metrics, items, info = end_to_end(args.workload, args.seed, args.seconds,
                                              deadline)
            problems = []
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record.update(info)
    record["loadavg_end"] = os.getloadavg()
    record["labels"] = items["labels"]
    record["failing_items"] = items["failing"]

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:8s} {name:34s} {value:14.6f} {unit}")
    if not args.trace:
        print(f"{args.workload:8s} {'failed_frac':34s} {info['failed_frac']:14.6f} ratio")
    print(f"{args.workload:8s} failing items: {', '.join(items['failing']) or 'none'}")
    print("record " + json.dumps(record, sort_keys=True))
    result = {"correct": items["wrong"] == 0 and not problems,
              "attempted": len(items["rows"]), "failed": items["failed"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
