"""Sweep the KKT property test's draws over a range of seeds.

Usage, from the repository root:

    python3 tools/kkt_stress.py --first-seed 0 --last-seed 1499

``tests/test_dictlearn.py::test_fit_satisfies_kkt_conditions`` draws a seed,
a kind and a lambda, then m and the problem from the seed. This script makes
the same draws for every seed in the range and every kind x lambda pair the
test allows (labels at lambda 0, 1e-3, 1 and 100; grouping at the three
positive ones), fits each at ``max_iters = 20000`` and applies the test's
three checks. It prints one JSON line on stdout: the fits, the KKT failures
(and which draws failed), the total iterations, the fits past 2,000
iterations, the fits returned at their start after 0 iterations
(``at_start``), the iterations per kind and lambda
(``iterations_by_draw``, keyed ``"<kind> <lambda>"``), the largest iteration
count of one fit per kind and lambda (``max_iterations_by_draw``, keyed the
same), the seed of that largest fit (``slowest_seed_by_draw``, the first
such seed on a tie, keyed the same), so a tail regression names its draw, a
``digest``, the sha256 of every returned S and objective trace in sweep
order, ``digest_iterating``, the same over the fits that iterated only, and
``digest_by_draw``, the same per kind and lambda, keyed like
``iterations_by_draw``. Each returned state also carries its factor L; per
kind and lambda, ``factor_error_by_draw`` holds the largest
||S - L @ L.T||_F / ||S||_F, and ``eigenvalue_margin_by_draw`` the smallest
lambda_min(S) / lambda_max(S), which DictionaryState's check of a bare S
(one eigvalsh) requires to be at least -1e-8. The test itself stays a sample of a few hundred
draws; this sweep shows how often it can fail. BLAS runs on one thread, as
in the benchmark, so a sweep repeats bit for bit, and running this file in
two checkouts shows whether a change leaves every fit bit-identical (the
stdout lines are equal, so ``cmp`` checks it), moves only fits that stop at
their start (only ``digest_iterating`` matches), and which kind and lambda
cells it moves (the ``digest_by_draw`` cells that differ). When a change
alters what this script prints, as dropping a field does, a bit-identity
check across it runs the change's copy of the script in both checkouts.

The wall seconds of the fits per kind and lambda vary from run to run, so
they go to stderr as a JSON line of their own, ``{"seconds_by_draw": ...}``,
keyed like ``iterations_by_draw``, so a solver change can be read cell by
cell. A second stderr line, ``{"converged_by_by_draw": ...}``, keyed the
same, counts the fits per stop reason (``{"grad_norm": n, ...}``). The
digests hash S and the trace but not the stop reason, so this line shows
whether a change to the solver's stopping kept every reason; it is
deterministic, so ``cmp`` of it checks that too. It stays off stdout, so
the stdout line of a sweep reads as before.
"""

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from gnystrom.dictlearn import LearnConfig, fit, gradient  # noqa: E402
from test_dictlearn import _random_grouping_problem, _random_labeled_problem  # noqa: E402

LAMBDAS = (0.0, 1e-3, 1.0, 100.0)
MAX_ITERS = 20000
# The default iteration cap of LearnConfig.
DEFAULT_CAP = 2000


def draws(seed):
    """(kind, lam, core, side) for every kind x lambda pair the test allows."""
    for grouping in (False, True):
        for lam in LAMBDAS:
            if grouping and lam == 0.0:
                continue
            rng = np.random.default_rng(seed)
            m = int(rng.integers(2, 7))
            if grouping:
                core, side = _random_grouping_problem(rng, m=m)
            else:
                core, side = _random_labeled_problem(rng, m=m, l=int(rng.integers(2, 9)))
            yield side.kind, lam, core, side


def kkt_holds(S, core, side, lam):
    """The three checks of the property test, with its tolerances."""
    G = gradient(S, core, side, lam)
    scale = 1.0 + np.linalg.norm(gradient(np.zeros_like(S), core, side, lam))
    tol = 1e-4 * scale
    return bool(np.linalg.eigvalsh(S).min() >= -1e-8 * max(1.0, np.linalg.norm(S))
                and np.linalg.eigvalsh(G).min() >= -tol
                and abs(np.sum(S * G)) <= tol * (1.0 + np.linalg.norm(S)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--last-seed", type=int, default=1499)
    args = parser.parse_args(argv)
    totals = dict.fromkeys(("fits", "kkt_failures", "iterations", "past_default_cap",
                            "at_start"), 0)
    by_draw, seconds, max_by_draw, slowest_seed, digest_by_draw, failed = {}, {}, {}, {}, {}, []
    factor_error, margin, reasons = {}, {}, {}
    digest, digest_iterating = hashlib.sha256(), hashlib.sha256()
    for seed in range(args.first_seed, args.last_seed + 1):
        for kind, lam, core, side in draws(seed):
            start = time.perf_counter()
            result = fit(core, side, LearnConfig(lam=lam, max_iters=MAX_ITERS))
            elapsed = time.perf_counter() - start
            report = result.report
            key = f"{kind} {lam:g}"
            seconds[key] = seconds.get(key, 0.0) + elapsed
            hashes = [digest, digest_by_draw.setdefault(key, hashlib.sha256())]
            if report.iterations:
                hashes.append(digest_iterating)
            for h in hashes:
                h.update(result.state.S.tobytes())
                h.update(report.objective_trace.tobytes())
            totals["fits"] += 1
            totals["at_start"] += report.iterations == 0
            totals["iterations"] += report.iterations
            by_draw[key] = by_draw.get(key, 0) + report.iterations
            if report.iterations > max_by_draw.get(key, -1):
                max_by_draw[key], slowest_seed[key] = report.iterations, seed
            totals["past_default_cap"] += report.iterations > DEFAULT_CAP
            counts = reasons.setdefault(key, {})
            counts[report.converged_by] = counts.get(report.converged_by, 0) + 1
            S, L = result.state.S, result.state.L
            norm = np.linalg.norm(S)
            error = np.linalg.norm(S - L @ L.T) / norm if norm else 0.0
            factor_error[key] = max(factor_error.get(key, 0.0), float(error))
            vals = np.linalg.eigvalsh(S)
            ratio = vals[0] / vals[-1] if vals[-1] > 0 else 0.0
            margin[key] = min(margin.get(key, np.inf), float(ratio))
            if not kkt_holds(result.state.S, core, side, lam):
                totals["kkt_failures"] += 1
                failed.append({"seed": seed, "kind": kind, "lam": lam,
                               "iterations": report.iterations})
    print(json.dumps({"seeds": [args.first_seed, args.last_seed], **totals,
                      "iterations_by_draw": by_draw,
                      "max_iterations_by_draw": max_by_draw,
                      "slowest_seed_by_draw": slowest_seed,
                      "factor_error_by_draw": factor_error,
                      "eigenvalue_margin_by_draw": margin,
                      "digest": digest.hexdigest(),
                      "digest_iterating": digest_iterating.hexdigest(),
                      "digest_by_draw": {k: h.hexdigest() for k, h in digest_by_draw.items()},
                      "failed": failed}))
    print(json.dumps({"seconds_by_draw": {k: round(v, 3) for k, v in seconds.items()}}),
          file=sys.stderr)
    print(json.dumps({"converged_by_by_draw": reasons}), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
