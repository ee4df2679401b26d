"""Compare two revisions on the benchmark in alternating pairs.

Usage, from the repository root:

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --first-seed 901 \
        --out BENCH_9.json --description "what the change does"

Each side is a git commit or tree, exported with ``git archive`` into its own
temporary directory, so both sides run their own ``bench/`` and ``src/`` and
the working tree is never touched. To measure uncommitted work, stage it and
pass ``--change $(git write-tree)``, the tree of the index. The output names
each side by the tree hashes of its ``src/`` and ``bench/``: any commit that
holds the same files has the same hashes (``git rev-parse HEAD:src``), so a
measured change can be checked against the commit that lands it.

For every workload in BENCHMARK.json, 10 pairs run at seeds ``first-seed``
to ``first-seed + 9``; each run is

    python3 bench/run.py --workload W --seed S --seconds 28 --trace 0

Odd seeds run the parent first and even seeds the change first, so neither
side always finds the machine in the same state. The output file holds, per
workload and end-to-end metric, every run, each side's median and quartiles,
the ratio of the medians, the per-pair ratio ``pair_ratio`` (the median over
the pairs of change / parent) and the number of pairs the change wins (it
reads lower; ties count for neither), and three flags against the metric's
``bound`` in BENCHMARK.json: ``over_bound``, the change's median is worse
than the parent's by more than the bound, relative to the parent's median;
``over_bound_paired``, the per-pair ratio is worse than 1 by more than the
bound; and ``unresolved``, the parent's IQR over its median exceeds the
bound, so its runs spread too widely to tell. A host that slows both sides
together for part of a comparison can put the two medians in different
speed modes and trip ``over_bound`` with no difference within any pair;
the per-pair ratio does not move with such drift. One line per workload
prints both ratios, the flags and the failed operations. The file also
holds the failed and attempted operations of every run and the minor page
faults and system CPU seconds each run cost (``getrusage(RUSAGE_CHILDREN)``
deltas around it), and three traced runs per side of every workload
(``--seed S --seconds 14 --trace 1`` for S = 0, 1, 2, alternating sides
like the pairs), with every run, the median and the quartiles per side of
their quality, solver, classifier and per-layer metrics: one traced run per
side cannot tell a 30% move of a layer from noise.

SIGTERM ends a comparison as Ctrl-C does: it raises SystemExit, which kills
the running bench child and removes the temporary directory of exports.
"""

import argparse
import json
import resource
import signal
import subprocess
import sys
import tarfile
import tempfile
from io import BytesIO
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RUN_SECONDS = 28
# Pairs per workload; a claimed gain needs the change to win 9 of 10.
PAIRS = 10
TRACED_SEEDS, TRACED_SECONDS = (0, 1, 2), 14
TRACED_METRICS = ("objective", "stationarity", "test_error", "dictlearn.iterations",
                  "dictlearn.converged_ratio", "dictlearn.s_per_iteration",
                  "dictlearn.fit.s", "dictlearn.fit.calls", "dictlearn.factorize.s",
                  "linalg.eigh.calls", "linalg.eigvalsh.calls",
                  "landmarks.select_kmeans.s", "nystrom.build_core.s",
                  "inductive.embed.s", "linear_svm.train_linear.s",
                  "linear_svm.predict.s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git commit or tree of the parent")
    parser.add_argument("--change", required=True, help="git commit or tree of the change")
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--description", default="")
    args = parser.parse_args(argv)
    if args.first_seed < 0:
        parser.error("--first-seed must be >= 0")
    return args


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev, into):
    """Write the files of commit or tree ``rev`` into the directory ``into``;
    return the tree hashes of its src/ and bench/."""
    tree = git("rev-parse", "--verify", f"{rev}^{{tree}}").decode().strip()
    with tarfile.open(fileobj=BytesIO(git("archive", "--format=tar", tree))) as tar:
        tar.extractall(into, filter="data")
    return {path: git("rev-parse", f"{tree}:{path}").decode().strip()
            for path in ("src", "bench")}


def run_bench(checkout, workload, seed, seconds, trace):
    """One bench run; returns (env, result, usage): the run's output, and its
    minor page faults and system CPU seconds."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    usage = {"minor_faults": after.ru_minflt - before.ru_minflt,
             "system_s": after.ru_stime - before.ru_stime}
    if proc.returncode != 0:
        raise RuntimeError(f"bench run {workload} seed {seed} in {checkout} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[len("# env "):]) for line in lines if line.startswith("# env "))
    return env, json.loads(lines[-1]), usage


def summary(runs):
    q1, median, q3 = np.percentile(runs, [25, 50, 75])
    return {"runs": runs, "median": float(median), "q1": float(q1), "q3": float(q3),
            "iqr": float(q3 - q1)}


def compare(seeds, results, usage, bounds):
    """Per-metric summary of one workload's pairs; results[side] and
    usage[side] are lists of bench results and of resource usages in seed
    order, and bounds maps each end-to-end metric to its BENCHMARK.json
    entry."""
    out = {"seeds": seeds,
           "failed": {side: [r["failed"] for r in results[side]] for side in results},
           "attempted": {side: [r["attempted"] for r in results[side]] for side in results},
           "rusage": {side: {key: summary([u[key] for u in usage[side]])
                             for key in ("minor_faults", "system_s")}
                      for side in usage},
           "metrics": {}}
    for name, entry in results["parent"][0]["metrics"].items():
        parent = [r["metrics"][name]["value"] for r in results["parent"]]
        change = [r["metrics"][name]["value"] for r in results["change"]]
        p, c = summary(parent), summary(change)
        pair_ratio = (float(np.median([b / a for a, b in zip(parent, change)]))
                      if all(parent) else None)
        out["metrics"][name] = {
            "unit": entry["unit"], "parent": p, "change": c,
            "change_over_parent": c["median"] / p["median"] if p["median"] else None,
            "pair_ratio": pair_ratio,
            "change_wins": sum(b < a for a, b in zip(parent, change)),
            "ties": sum(b == a for a, b in zip(parent, change)),
            "pairs": len(seeds),
        }
        if name in bounds:
            out["metrics"][name].update(bound_flags(p, c, pair_ratio, bounds[name]))
    return out


def bound_flags(parent, change, pair_ratio, spec):
    """``over_bound``, ``over_bound_paired`` and ``unresolved`` of one
    end-to-end metric, from the two sides' summaries, the per-pair ratio
    (None when a parent run reads 0) and the metric's BENCHMARK.json entry."""
    base = parent["median"]
    lower = spec["better"] == "lower"
    worse = change["median"] - base if lower else base - change["median"]
    paired = None if pair_ratio is None else (pair_ratio - 1.0 if lower else 1.0 - pair_ratio)
    return {"bound": spec["bound"], "over_bound": worse > spec["bound"] * abs(base),
            "over_bound_paired": paired is not None and paired > spec["bound"],
            "unresolved": parent["iqr"] > spec["bound"] * abs(base)}


def workload_line(workload, comparison):
    """One line: each end-to-end metric's ratio of medians, its per-pair
    ratio and its flags, then the failed operations of each side."""
    parts = []
    for name, m in comparison["metrics"].items():
        if "bound" in m:
            flags = [flag for flag in ("over_bound", "over_bound_paired", "unresolved")
                     if m[flag]]
            ratios = [f"{r:.3f}x" if r is not None else "n/a"
                      for r in (m["change_over_parent"], m["pair_ratio"])]
            parts.append(f"{name} {ratios[0]}, paired {ratios[1]}"
                         + (f" ({', '.join(flags)})" if flags else ""))
    failed = ", ".join(f"{side} {sum(comparison['failed'][side])}"
                       for side in ("parent", "change"))
    return f"{workload}: {'; '.join(parts)}; failed operations: {failed}"


def order(seed):
    """Odd seeds run the parent first, even seeds the change."""
    return ("parent", "change") if seed % 2 else ("change", "parent")


def exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, exit_on_sigterm)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + PAIRS))
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        dirs = {side: Path(tmp) / side for side in ("parent", "change")}
        trees = {side: export(rev, dirs[side])
                 for side, rev in (("parent", args.parent), ("change", args.change))}
        host, report = None, {}
        for workload in workloads:
            results = {"parent": [], "change": []}
            usage = {"parent": [], "change": []}
            for seed in seeds:
                for side in order(seed):
                    env, result, used = run_bench(dirs[side], workload, seed, RUN_SECONDS, 0)
                    host = host or {k: env[k] for k in ("nproc", "blas_threads", "python",
                                                        "numpy", "scipy", "blas")}
                    results[side].append(result)
                    usage[side].append(used)
                    print(f"{workload} seed {seed} {side}: "
                          + " ".join(f"{k}={v['value']:.6g}"
                                     for k, v in result["metrics"].items()), flush=True)
            report[workload] = compare(seeds, results, usage, bounds)
            print(workload_line(workload, report[workload]), flush=True)
        traced = {}
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for seed in TRACED_SEEDS:
                for side in order(seed):
                    runs[side].append(run_bench(dirs[side], workload, seed, TRACED_SECONDS,
                                                1)[1]["metrics"])
            traced[workload] = {
                name: {side: summary([r[name]["value"] for r in runs[side]]) for side in runs}
                for name in TRACED_METRICS}
    doc = {
        "description": args.description,
        "trees": trees,
        "host": host,
        "method": (f"{PAIRS} pairs per workload at seeds {seeds[0]}-{seeds[-1]}, each "
                   "pair running the parent and the change from separate exports of their "
                   "git trees, named in 'trees' by the hashes of their src/ and bench/; "
                   "odd seeds run the parent first, even seeds the change first. Per run: "
                   f"python3 bench/run.py --workload W --seed S --seconds {RUN_SECONDS} "
                   "--trace 0. Medians and quartiles are numpy.percentile over the runs; "
                   "change_wins counts pairs where the change reads lower; pair_ratio is "
                   "the median over the pairs of change / parent. "
                   "over_bound: the change's median is worse than the parent's by more "
                   "than the metric's bound, relative to the parent's median; "
                   "over_bound_paired: pair_ratio is worse than 1 by more than the bound; "
                   "unresolved: the parent's IQR exceeds the bound times its median. "
                   "rusage holds each run's minor page faults and system CPU seconds, "
                   "getrusage(RUSAGE_CHILDREN) deltas around it."),
    }
    doc["traced_seeds"] = {
        "command": (f"python3 bench/run.py --workload W --seed S --seconds {TRACED_SECONDS} "
                    f"--trace 1 for S in {list(TRACED_SEEDS)}, sides alternating as in the "
                    "pairs; per side, the runs in seed order and their median and quartiles"),
        **traced}
    doc["workloads"] = report
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
