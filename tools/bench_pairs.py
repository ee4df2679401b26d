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
the ratio of the medians and the number of pairs the change wins (it reads
lower; ties count for neither), plus the failed and attempted operations of
every run. It also holds one traced run per side of every workload
(``--seed 0 --seconds 14 --trace 1``), for its quality, solver and
classifier metrics.
"""

import argparse
import json
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
TRACED_SEED, TRACED_SECONDS = 0, 14
TRACED_METRICS = ("objective", "stationarity", "test_error", "dictlearn.iterations",
                  "dictlearn.converged_ratio", "dictlearn.s_per_iteration",
                  "dictlearn.fit.s", "dictlearn.fit.calls", "linalg.eigh.calls",
                  "linear_svm.train_linear.s", "linear_svm.predict.s")


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
    """One bench run; returns (env, result) from its output."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"bench run {workload} seed {seed} in {checkout} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[len("# env "):]) for line in lines if line.startswith("# env "))
    return env, json.loads(lines[-1])


def summary(runs):
    q1, median, q3 = np.percentile(runs, [25, 50, 75])
    return {"runs": runs, "median": float(median), "q1": float(q1), "q3": float(q3),
            "iqr": float(q3 - q1)}


def compare(seeds, results):
    """Per-metric summary of one workload's pairs; results[side] is a list of
    bench results in seed order."""
    out = {"seeds": seeds,
           "failed": {side: [r["failed"] for r in results[side]] for side in results},
           "attempted": {side: [r["attempted"] for r in results[side]] for side in results},
           "metrics": {}}
    for name, entry in results["parent"][0]["metrics"].items():
        parent = [r["metrics"][name]["value"] for r in results["parent"]]
        change = [r["metrics"][name]["value"] for r in results["change"]]
        p, c = summary(parent), summary(change)
        out["metrics"][name] = {
            "unit": entry["unit"], "parent": p, "change": c,
            "change_over_parent": c["median"] / p["median"] if p["median"] else None,
            "change_wins": sum(b < a for a, b in zip(parent, change)),
            "ties": sum(b == a for a, b in zip(parent, change)),
            "pairs": len(seeds),
        }
    return out


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + PAIRS))
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        dirs = {side: Path(tmp) / side for side in ("parent", "change")}
        trees = {side: export(rev, dirs[side])
                 for side, rev in (("parent", args.parent), ("change", args.change))}
        host, report = None, {}
        for workload in workloads:
            results = {"parent": [], "change": []}
            for seed in seeds:
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                for side in order:
                    env, result = run_bench(dirs[side], workload, seed, RUN_SECONDS, 0)
                    host = host or {k: env[k] for k in ("nproc", "blas_threads", "python",
                                                        "numpy", "scipy", "blas")}
                    results[side].append(result)
                    print(f"{workload} seed {seed} {side}: "
                          + " ".join(f"{k}={v['value']:.6g}"
                                     for k, v in result["metrics"].items()), flush=True)
            report[workload] = compare(seeds, results)
        traced = {}
        for workload in workloads:
            sides = {side: run_bench(dirs[side], workload, TRACED_SEED, TRACED_SECONDS,
                                     1)[1]["metrics"]
                     for side in ("parent", "change")}
            traced[workload] = {name: {side: sides[side][name]["value"] for side in sides}
                                for name in TRACED_METRICS}
    doc = {
        "description": args.description,
        "trees": trees,
        "host": host,
        "method": (f"{PAIRS} pairs per workload at seeds {seeds[0]}-{seeds[-1]}, each "
                   "pair running the parent and the change from separate exports of their "
                   "git trees, named in 'trees' by the hashes of their src/ and bench/; odd seeds run the parent first, even seeds the change "
                   f"first. Per run: python3 bench/run.py --workload W --seed S --seconds "
                   f"{RUN_SECONDS} --trace 0. Medians and quartiles are numpy.percentile over "
                   "the runs; change_wins counts pairs where the change reads lower."),
    }
    doc["traced_seed"] = {
        "command": (f"python3 bench/run.py --workload W --seed {TRACED_SEED} "
                    f"--seconds {TRACED_SECONDS} --trace 1"),
        **traced}
    doc["workloads"] = report
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
