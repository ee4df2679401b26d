"""gnystrom benchmark: runs one workload and prints its metrics.

Usage, from the repository root:

    python3 bench/run.py --workload select-moons --seed 0 --seconds 28 --trace 0

The library is imported from ``src/`` next to this directory. A run builds
its problems from the seed, then solves them one per unit of work; how many
follows from ``--seconds`` and the workload's nominal unit time, not from
the speed of the code, so every version of the library does the same work.
The set-up is timed once before the first unit and once after each unit;
``setup_s`` is the median. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs every problem twice, once with spans around each layer
call and once without, and prints the per-layer metrics. The last line of
standard output is the JSON result; ``.bench_out/`` receives a copy with the
run environment, plus the spans of a traced run.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
# One BLAS thread, on every machine: the quality metrics repeat exactly only
# at a fixed thread count, and one thread is never more than nproc.
BLAS_THREADS = 1
LAYERS = ("datasets", "kernels", "landmarks", "nystrom", "dictlearn", "modelselect",
          "inductive", "linear_svm", "linalg")
TIMED_FUNCTIONS = ("kernels.bandwidth_heuristic", "landmarks.select_kmeans",
                   "nystrom.build_core", "dictlearn.fit", "dictlearn.factorize",
                   "modelselect.select_lambda", "linalg.eigh", "inductive.from_state",
                   "inductive.save", "inductive.load", "inductive.embed",
                   "linear_svm.train_linear", "linear_svm.predict")
COUNTED_FUNCTIONS = ("dictlearn.fit", "linalg.eigh", "linalg.eigvalsh")


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def pin_blas_threads():
    """Fix the BLAS thread count; takes effect only before NumPy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("NumPy was imported before the BLAS thread count was pinned")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_library():
    """Import gnystrom from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "gnystrom" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'gnystrom'} not found; run from a gnystrom checkout")
    sys.path.insert(0, str(src))
    import gnystrom

    if src.resolve() not in Path(gnystrom.__file__).resolve().parents:
        sys.exit(f"error: imported gnystrom from {gnystrom.__file__}, not from {src}")
    return gnystrom


def git_sha():
    """HEAD of the checkout read from .git directly; "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(np, scipy):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }


def metric_units(kind):
    """Name -> unit of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def mean(values):
    return statistics.fmean(values) if values else 0.0


def end_to_end_metrics(setup_s, units):
    return {
        "setup_s": statistics.median(setup_s),
        "wall_s": mean([u.wall_s for u in units]),
        "fit_s": mean([u.fit_s for u in units]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def solver_counts(reports):
    iterations = sum(r.iterations for r in reports)
    return {
        "iterations": iterations,
        # Read defensively: a solver without a line search has no such field.
        "line_search_steps": sum(getattr(r, "armijo_backtracks_total", 0) for r in reports),
        "converged": sum(r.converged_by != "max_iters" for r in reports),
    }


def evaluate(gn, np, ops, unit, index):
    """Recompute each fit's objective and stationarity from the returned S
    with the public objective, gradient and psd_project, then drop the fit
    data so memory does not grow with the number of units run."""
    unit.objective = unit.stationarity = 0.0
    for S, core, side, lam in unit.fits:
        objective = gn.objective(S, core, side, lam)
        if not np.isfinite(objective):
            # psd_project rejects a non-finite S; count the fit and go on.
            ops.fail(f"unit {index}: objective {objective} at lambda {lam}")
            continue
        step = gn.psd_project(S - gn.gradient(S, core, side, lam))
        unit.objective += objective
        unit.stationarity += float(np.linalg.norm(S - step))
    unit.fits = []


def quality(units):
    """Quality over the given units: summed objective and stationarity, and
    the share of scored rows misclassified."""
    scored = sum(u.scored for u in units)
    return {
        "objective": sum(u.objective for u in units),
        "stationarity": sum(u.stationarity for u in units),
        "test_error": sum(u.wrong for u in units) / scored if scored else 0.0,
    }


def per_layer_metrics(np, tracer, traced, untraced, overheads, traced_wall, quality_values):
    funcs_by_unit, layers_by_unit = [], []
    for run_id in traced:
        funcs, layers = tracer.summary(run_id)
        funcs_by_unit.append(funcs)
        layers_by_unit.append(layers)
    _, setup_layers = tracer.summary("setup")

    def per_unit(name, slot):
        return mean([f.get(name, (0.0, 0))[slot] for f in funcs_by_unit])

    counts = [solver_counts(u.reports) for u in untraced]
    fit_s = per_unit("dictlearn.fit", 0)
    iterations = mean([c["iterations"] for c in counts])
    fits = sum(len(u.reports) for u in untraced)
    batches = [b for u in untraced for b in u.batch_s]
    serve_s = sum(u.phases.get("serve_s", 0.0) for u in untraced)
    served = sum(u.scored for u in untraced if u.batch_s)
    metrics = {f"{name}.s": per_unit(name, 0) for name in TIMED_FUNCTIONS}
    metrics.update({f"{name}.calls": per_unit(name, 1) for name in COUNTED_FUNCTIONS})
    metrics.update({f"{layer}.self_s": mean([l.get(layer, 0.0) for l in layers_by_unit])
                    for layer in LAYERS})
    metrics["datasets.self_s"] = setup_layers.get("datasets", 0.0)
    metrics.update({
        "nystrom.E_bytes": mean([u.e_bytes for u in untraced]),
        "dictlearn.iterations": iterations,
        "dictlearn.line_search_steps": mean([c["line_search_steps"] for c in counts]),
        "dictlearn.s_per_iteration": fit_s / max(iterations, 1.0),
        "dictlearn.converged_ratio": sum(c["converged"] for c in counts) / fits if fits else 0.0,
        "modelselect.candidates": mean([u.candidates for u in untraced]),
        "inductive.model_bytes": mean([u.model_bytes for u in untraced]),
        "train_s": mean([u.phases.get("train_s", 0.0) for u in untraced]),
        "serve_rows_per_s": served / serve_s if serve_s else 0.0,
        "serve_batch_p50_ms": 1e3 * float(np.percentile(batches, 50)) if batches else 0.0,
        "serve_batch_p90_ms": 1e3 * float(np.percentile(batches, 90)) if batches else 0.0,
        **quality_values,
        "trace.wall_s": mean(traced_wall),
        "trace.overhead_s": mean(overheads),
        "trace.spans": mean([sum(c for _, c in f.values()) for f in funcs_by_unit]),
    })
    return metrics


def same_outputs(a, b):
    return a.wrong == b.wrong and len(a.reports) == len(b.reports) and all(
        ra.objective_trace.shape == rb.objective_trace.shape
        and (ra.objective_trace == rb.objective_trace).all()
        for ra, rb in zip(a.reports, b.reports))


def main(argv=None):
    pin_blas_threads()
    gn = import_library()
    import numpy as np
    import scipy

    from tracing import Tracer
    from workloads import WORKLOADS, Ops

    args = parse_args(argv, WORKLOADS)
    workload = WORKLOADS[args.workload]
    env = environment(np, scipy)
    OUT_DIR.mkdir(exist_ok=True)
    ops = Ops()
    tracer = Tracer() if args.trace else None

    count = workload.problems(args.seconds, args.trace)
    setup_s = []

    def timed_setup():
        t0 = time.perf_counter()
        problems = workload.setup(gn, args.seed, count)
        setup_s.append(time.perf_counter() - t0)
        return problems

    inputs = timed_setup()
    if tracer:
        with tracer.installed("setup"):
            workload.setup(gn, args.seed, count)

    def attempt(index, traced):
        try:
            if not traced:
                unit = workload.unit(gn, ops, inputs, index, OUT_DIR)
            else:
                with tracer.installed(index):
                    unit = workload.unit(gn, ops, inputs, index, OUT_DIR)
            evaluate(gn, np, ops, unit, index)
        except gn.GNystromError as exc:
            ops.fail(f"unit {index}: {type(exc).__name__}: {exc}")
            return None
        return unit

    untraced, first_units, traced_ids, traced_wall, overheads = [], [], [], [], []
    start = time.perf_counter()
    for index in range(count):
        if args.trace:
            # Each problem runs with and without spans; the order alternates
            # so neither pass always finds the caches warm.
            order = (False, True) if index % 2 == 0 else (True, False)
            done = {traced: attempt(index, traced) for traced in order}
            unit, traced_unit = done[False], done[True]
            if traced_unit is not None:
                traced_ids.append(index)
                traced_wall.append(traced_unit.wall_s)
            if unit is not None and traced_unit is not None:
                overheads.append(traced_unit.wall_s - unit.wall_s)
                ops.check(same_outputs(unit, traced_unit),
                          f"unit {index}: traced and untraced outputs differ")
        else:
            unit = attempt(index, False)
            # Set-up is timed between units too, so its samples spread over
            # the whole run instead of the machine's state at the start.
            timed_setup()
        if unit is not None:
            untraced.append(unit)
            if index < workload.quality_units:
                first_units.append(unit)
    measured_s = time.perf_counter() - start

    if args.trace:
        metrics = per_layer_metrics(np, tracer, traced_ids, untraced, overheads, traced_wall,
                                    quality(first_units))
        tracer.write(OUT_DIR / f"spans-{workload.name}.jsonl", start)
    else:
        metrics = end_to_end_metrics(setup_s, untraced)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are computed "
                           "but not listed in BENCHMARK.json, or listed but not computed")
    result = {
        "correct": ops.failed == 0 and len(untraced) == count,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    counts = [solver_counts(u.reports) for u in untraced]
    run_info = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
                "seconds": args.seconds, "units": count, "measured_s": measured_s,
                "quality_units": len(first_units),
                "iterations_per_unit": mean([c["iterations"] for c in counts]),
                "line_search_steps_per_unit": mean([c["line_search_steps"] for c in counts])}

    print(f"# env {json.dumps(env)}")
    print(f"# run {json.dumps(run_info)}")
    for message in ops.messages:
        print(f"# FAILED {message}")
    print(f"# failed_ops/attempted_ops {ops.failed}/{ops.attempted}")
    for name, entry in result["metrics"].items():
        print(f"# {name:<32} {entry['value']:>16.6g} {entry['unit']}")
    with open(OUT_DIR / f"result-{workload.name}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"env": env, "run": run_info, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
