"""Command-line front end.

Subcommands cover the full pipeline: ``synth`` writes reproducible toy
datasets, ``landmarks`` exports selected landmark coordinates,
``fit`` learns and saves an inductive model, ``embed`` applies a saved
model to new samples, ``evaluate`` runs the comparison harness, and
``select-lambda`` prints the per-candidate selection table, with a warning
line for a choice the report flags (see :class:`modelselect.SelectionReport`).

Exit codes: 0 success, 2 input or parse error, 3 numerical failure.
"""

import argparse
import sys
from dataclasses import replace

import numpy as np

from .datasets import load_dataset, make_blobs, make_two_moons, sample_labeled
from .dictlearn import DictionaryState
from .errors import InputError, NumericalError
from .experiment import (ExperimentConfig, _parse_value, _repeat_draws, _select_landmarks,
                         emit_report, experiment_config_from_file, pipeline, run_experiment)
from .inductive import InductiveModel, embed, load, save
from .landmarks import LANDMARK_METHODS
from .modelselect import DEFAULT_LAMBDA_GRID, FLAT_PRIOR_SPREAD
from .supervision import SideInformation


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gnystrom",
        description="Low-rank kernel decompositions with learned dictionaries.")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="write a synthetic dataset as CSV")
    synth.add_argument("--kind", choices=("blobs", "moons"), default="blobs")
    synth.add_argument("--n", type=int, default=600)
    synth.add_argument("--d", type=int, default=10)
    synth.add_argument("--classes", type=int, default=2)
    synth.add_argument("--separation", type=float, default=3.0)
    synth.add_argument("--noise", type=float, default=0.1)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True)
    synth.set_defaults(func=_cmd_synth)

    landmarks = sub.add_parser("landmarks", help="select landmarks and write them as CSV")
    _add_input_args(landmarks)
    landmarks.add_argument("--m", type=int, required=True)
    landmarks.add_argument("--method", choices=LANDMARK_METHODS, default="kmeans")
    landmarks.add_argument("--seed", type=int, default=0)
    landmarks.add_argument("--out", required=True)
    landmarks.set_defaults(func=_cmd_landmarks)

    fit_cmd = sub.add_parser("fit", help="learn a dictionary and save the model")
    _add_input_args(fit_cmd)
    fit_cmd.add_argument("--labels-per-class", type=int, required=True,
                         help="labeled samples drawn per class")
    fit_cmd.add_argument("--m", type=int, default=None,
                         help="landmark count (default: a tenth of the data)")
    fit_cmd.add_argument("--method", choices=LANDMARK_METHODS, default="kmeans")
    fit_cmd.add_argument("--lambda", dest="lam", type=float, default=None,
                         help="fixed prior weight")
    fit_cmd.add_argument("--lambda-grid", default=None,
                         help="comma-separated candidates; overrides --lambda")
    fit_cmd.add_argument("--bandwidth", default="heuristic",
                         help="'heuristic' or a positive number")
    fit_cmd.add_argument("--seed", type=int, default=0)
    fit_cmd.add_argument("--model-out", required=True)
    fit_cmd.set_defaults(func=_cmd_fit)

    embed_cmd = sub.add_parser("embed", help="embed samples with a saved model")
    embed_cmd.add_argument("--model", required=True)
    _add_input_args(embed_cmd)
    embed_cmd.add_argument("--out", required=True)
    embed_cmd.set_defaults(func=_cmd_embed)

    evaluate = sub.add_parser("evaluate", help="run the comparison harness")
    _add_input_args(evaluate)
    evaluate.add_argument("--config", required=True)
    evaluate.add_argument("--method", choices=("baseline", "generalized"),
                          default="generalized")
    evaluate.add_argument("--report", choices=("text", "csv"), default="text")
    evaluate.set_defaults(func=_cmd_evaluate)

    select = sub.add_parser("select-lambda", help="print the per-candidate table")
    _add_input_args(select)
    select.add_argument("--config", required=True)
    select.set_defaults(func=_cmd_select_lambda)
    return parser


def _add_input_args(cmd):
    cmd.add_argument("--input", required=True)
    cmd.add_argument("--format", choices=("csv", "svmlight"), default="csv")


def _cmd_synth(args):
    if args.kind == "blobs":
        ds = make_blobs(args.n, args.d, n_classes=args.classes,
                        separation=args.separation, seed=args.seed)
    else:
        ds = make_two_moons(args.n, noise=args.noise, seed=args.seed)
    rows = np.column_stack([ds.y.astype(np.float64), ds.X])
    fmt = ["%d"] + ["%.17g"] * ds.d
    np.savetxt(args.out, rows, delimiter=",", fmt=fmt)
    print(f"wrote {ds.n} samples ({ds.d} features, "
          f"{ds.classes.size} classes) to {args.out}")
    return 0


def _cmd_landmarks(args):
    ds = load_dataset(args.input, format=args.format)
    Z = _select_landmarks(ds.X, args.method, args.m, args.seed)
    np.savetxt(args.out, Z, delimiter=",", fmt="%.17g")
    print(f"wrote {len(Z)} {args.method} landmarks to {args.out}")
    return 0


def _cmd_fit(args):
    ds = load_dataset(args.input, format=args.format)
    count = args.labels_per_class * ds.classes.size
    side = SideInformation.from_labels(sample_labeled(ds, count, args.seed))
    grid = None
    if args.lambda_grid is not None:
        grid = _parse_value("lambda_grid", args.lambda_grid, "--lambda-grid")
    cfg = ExperimentConfig(labeled_per_run=count, m=args.m,
                           landmark_method=args.method,
                           bandwidth=_parse_value("bandwidth", args.bandwidth, "--bandwidth"),
                           lam=args.lam if grid is None else None, lambda_grid=grid)
    run = pipeline(ds.X, side, cfg, args.seed)
    record, report = run.record, run.record.solver
    if run.selection is not None:
        print(f"selected lambda={record.lam:g} (criterion={record.criterion:.6f} "
              f"over {len(run.selection.records)} candidates)")
    model = InductiveModel.from_state(run.landmarks, run.kernel,
                                      DictionaryState(S=record.S, L=record.L),
                                      lam=record.lam, report=report)
    save(model, args.model_out)
    print(f"fitted on {count} labeled samples, m={run.core.m}: "
          f"{report.iterations} iterations, stopped by {report.converged_by}, "
          f"objective {report.final_objective:.6g}")
    print(f"saved model to {args.model_out}")
    return 0


def _cmd_embed(args):
    model = load(args.model)
    ds = load_dataset(args.input, format=args.format)  # labels ignored
    G = embed(model, ds.X)
    np.savetxt(args.out, G, delimiter=",", fmt="%.17g")
    print(f"embedded {G.shape[0]} samples into {G.shape[1]} dimensions -> {args.out}")
    return 0


def _cmd_evaluate(args):
    ds = load_dataset(args.input, format=args.format)
    cfg = experiment_config_from_file(args.config)
    method = "nystrom_baseline" if args.method == "baseline" else "generalized"
    report = run_experiment(ds, cfg, method)
    fmt = "csv" if args.report == "csv" else "text_table"
    sys.stdout.write(emit_report(report, format=fmt))
    return 0


def _cmd_select_lambda(args):
    ds = load_dataset(args.input, format=args.format)
    cfg = experiment_config_from_file(args.config)
    # Repeat 0 of evaluate on the same config.
    labeled, landmark_seed = next(_repeat_draws(ds, cfg))
    grid = cfg.lambda_grid if cfg.lambda_grid is not None else DEFAULT_LAMBDA_GRID
    selection = pipeline(ds.X, SideInformation.from_labels(labeled),
                         replace(cfg, lam=None, lambda_grid=grid), landmark_seed).selection
    print(f"{'lambda':>12}  {'rho_prior':>10}  {'rho_align':>10}  "
          f"{'criterion':>10}  {'iters':>5}  stopped_by")
    for rec in selection.records:
        if rec.solver is None:
            iters, stopped = "-", f"failed: {rec.failure}"
        else:
            iters, stopped = rec.solver.iterations, rec.solver.converged_by
        print(f"{rec.lam:>12g}  {rec.rho_prior:>10.6f}  {rec.rho_align:>10.6f}  "
              f"{rec.criterion:>10.6f}  {iters:>5}  {stopped}")
    print(f"chosen lambda = {selection.chosen_lambda:g}")
    if selection.chosen_at_edge:
        print("warning: the chosen lambda is at an edge of the scored grid; "
              "the criterion may peak outside it")
    if selection.prior_is_flat:
        print(f"warning: rho_prior spreads by at most {FLAT_PRIOR_SPREAD:g} across the "
              f"scored candidates; the choice rests on rho_align alone")
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
