"""Sweep the KKT property test's draws over a range of seeds.

Usage, from the repository root:

    python3 tools/kkt_stress.py --first-seed 0 --last-seed 1499

``tests/test_dictlearn.py::test_fit_satisfies_kkt_conditions`` draws a seed,
a kind and a lambda, then m and the problem from the seed. This script makes
the same draws for every seed in the range and every kind x lambda pair the
test allows (labels at lambda 0, 1e-3, 1 and 100; grouping at the three
positive ones), fits each at ``max_iters = 20000`` and applies the test's
three checks. It prints one JSON line: the fits, the KKT failures (and which
draws failed), the total iterations, the fits past 2,000 iterations, the
factor builds, the rho updates, the fits returned at their start after 0
iterations (``at_start``), a ``digest``, the sha256 of every returned S and
objective trace in sweep order, ``digest_iterating``, the same over the
fits that iterated only, and ``digest_labels``, the same over the label-kind
fits only. The test itself stays a sample of a few hundred draws; this
sweep shows how often it can fail. BLAS runs on one thread, as in the
benchmark, so a sweep repeats bit for bit, and running this file in two
checkouts shows whether a change leaves every fit bit-identical (the
digests match), moves only fits that stop at their start (only
``digest_iterating`` matches) or moves only pair fits (only
``digest_labels`` matches).
"""

import argparse
import hashlib
import json
import os
import sys
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
                            "factor_builds", "rho_updates", "at_start"), 0)
    failed = []
    digest, digest_iterating, digest_labels = (hashlib.sha256() for _ in range(3))
    for seed in range(args.first_seed, args.last_seed + 1):
        for kind, lam, core, side in draws(seed):
            result = fit(core, side, LearnConfig(lam=lam, max_iters=MAX_ITERS))
            report = result.report
            hashes = [digest]
            if report.iterations:
                hashes.append(digest_iterating)
            if kind == "labels":
                hashes.append(digest_labels)
            for h in hashes:
                h.update(result.state.S.tobytes())
                h.update(report.objective_trace.tobytes())
            totals["fits"] += 1
            totals["at_start"] += report.iterations == 0
            totals["iterations"] += report.iterations
            totals["past_default_cap"] += report.iterations > DEFAULT_CAP
            totals["factor_builds"] += report.factor_builds
            totals["rho_updates"] += report.rho_updates
            if not kkt_holds(result.state.S, core, side, lam):
                totals["kkt_failures"] += 1
                failed.append({"seed": seed, "kind": kind, "lam": lam,
                               "iterations": report.iterations})
    print(json.dumps({"seeds": [args.first_seed, args.last_seed], **totals,
                      "digest": digest.hexdigest(),
                      "digest_iterating": digest_iterating.hexdigest(),
                      "digest_labels": digest_labels.hexdigest(), "failed": failed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
