"""Fit six pair problems at m = 200 and print what each fit cost.

Usage, from the repository root:

    python3 tools/pair_sweep.py

The problems: make_blobs 20000 x 10 with 4 classes at separation 2, at
dataset seeds 7 and 8; k-means landmarks, m = 200, seed 0; lambda = 0.1.
On each dataset three pair sets are drawn, ``default_rng(s).integers(0, n,
(p, 2))`` for (s, p) = (1, 300), (2, 300) and (3, 1000), pairs of one row
dropped, each pair a must-link when both rows share a class and a
cannot-link otherwise. Only the fit is timed.

It prints one JSON line per fit and one for the total: iterations, p x p
factor builds, rho updates, the stop reason, the final objective J and the
fit's seconds. BLAS runs on one thread, as in the benchmark, so the counts
and objectives repeat bit for bit; running this file in two checkouts
compares a solver change on pair fits larger than the benchmark's.
"""

import json
import os
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from gnystrom import (KernelParams, KMeansConfig, LearnConfig, SideInformation,  # noqa: E402
                      bandwidth_heuristic, build_core, fit, make_blobs, select_kmeans)

N, D, CLASSES, SEPARATION, M, LAM = 20000, 10, 4, 2.0, 200, 0.1
DATASET_SEEDS = (7, 8)
# (pair seed, pairs drawn) of the three pair sets per dataset.
PAIR_SETS = ((1, 300), (2, 300), (3, 1000))


def side_information(ds, seed, count):
    pairs = np.random.default_rng(seed).integers(0, ds.n, (count, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    same = ds.y[pairs[:, 0]] == ds.y[pairs[:, 1]]
    return SideInformation.from_constraints(pairs[same].tolist(), pairs[~same].tolist())


def main():
    total = dict.fromkeys(("fits", "iterations", "factor_builds", "rho_updates"), 0)
    total["seconds"] = 0.0
    for dataset_seed in DATASET_SEEDS:
        ds = make_blobs(N, D, n_classes=CLASSES, separation=SEPARATION, seed=dataset_seed)
        Z = select_kmeans(ds.X, KMeansConfig(k=M, seed=0))
        core = build_core(ds.X, Z, KernelParams(bandwidth=float(bandwidth_heuristic(ds.X))))
        for pair_seed, count in PAIR_SETS:
            side = side_information(ds, pair_seed, count)
            t0 = time.perf_counter()
            report = fit(core, side, LearnConfig(lam=LAM)).report
            seconds = time.perf_counter() - t0
            row = {"dataset_seed": dataset_seed, "pair_seed": pair_seed,
                   "pairs": int(side.pairs.shape[0]), "iterations": report.iterations,
                   "factor_builds": report.factor_builds,
                   "rho_updates": report.rho_updates,
                   "converged_by": report.converged_by,
                   "objective": report.final_objective, "seconds": round(seconds, 3)}
            print(json.dumps(row), flush=True)
            total["fits"] += 1
            for key in ("iterations", "factor_builds", "rho_updates"):
                total[key] += row[key]
            total["seconds"] += seconds
    total["seconds"] = round(total["seconds"], 3)
    print(json.dumps({"total": total}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
