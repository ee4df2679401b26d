"""End-to-end tests for the command-line interface and its exit codes."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gnystrom import SideInformation, experiment, load, load_dataset, sample_labeled
from gnystrom.cli import main


@pytest.fixture()
def blob_csv(tmp_path):
    path = tmp_path / "blobs.csv"
    rc = main(["synth", "--kind", "blobs", "--n", "80", "--d", "3",
               "--classes", "2", "--separation", "3.0", "--seed", "0",
               "--out", str(path)])
    assert rc == 0
    return path


def test_synth_writes_loadable_csv(blob_csv):
    ds = load_dataset(blob_csv)
    assert ds.n == 80 and ds.d == 3
    assert set(ds.classes.tolist()) == {0, 1}


def test_synth_moons(tmp_path):
    path = tmp_path / "moons.csv"
    rc = main(["synth", "--kind", "moons", "--n", "60", "--noise", "0.05",
               "--seed", "1", "--out", str(path)])
    assert rc == 0
    ds = load_dataset(path)
    assert ds.n == 60 and ds.d == 2


def test_landmarks_command(blob_csv, tmp_path, capsys):
    out = tmp_path / "landmarks.csv"
    rc = main(["landmarks", "--input", str(blob_csv), "--m", "6",
               "--method", "kmeans", "--seed", "0", "--out", str(out)])
    assert rc == 0
    Z = np.loadtxt(out, delimiter=",")
    assert Z.shape == (6, 3)
    assert "6 kmeans landmarks" in capsys.readouterr().out


def test_fit_embed_round_trip(blob_csv, tmp_path, capsys):
    model_path = tmp_path / "model.bin"
    rc = main(["fit", "--input", str(blob_csv), "--labels-per-class", "5",
               "--m", "8", "--lambda", "1.0", "--seed", "0",
               "--model-out", str(model_path)])
    assert rc == 0
    assert "saved model" in capsys.readouterr().out
    model = load(model_path)
    assert model.metadata["lambda"] == 1.0

    emb_path = tmp_path / "embedded.csv"
    rc = main(["embed", "--model", str(model_path), "--input", str(blob_csv),
               "--out", str(emb_path)])
    assert rc == 0
    G = np.loadtxt(emb_path, delimiter=",")
    assert G.shape == (80, model.rank)


def test_fit_with_grid_selects_lambda(blob_csv, tmp_path, capsys):
    model_path = tmp_path / "model.bin"
    rc = main(["fit", "--input", str(blob_csv), "--labels-per-class", "5",
               "--m", "8", "--lambda-grid", "0.1,1,10", "--seed", "0",
               "--model-out", str(model_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "selected lambda=" in out
    assert load(model_path).metadata["lambda"] in (0.1, 1.0, 10.0)


def test_fit_fixed_bandwidth(blob_csv, tmp_path):
    model_path = tmp_path / "model.bin"
    rc = main(["fit", "--input", str(blob_csv), "--labels-per-class", "5",
               "--m", "8", "--bandwidth", "4.5", "--seed", "0",
               "--model-out", str(model_path)])
    assert rc == 0
    assert load(model_path).kernel.bandwidth == 4.5


@pytest.fixture()
def eval_config(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "labeled_per_run = 10\n"
        "repeats = 2\n"
        "seed = 0\n"
        "m = 8\n"
        "lambda = 1.0\n"
    )
    return cfg


def test_evaluate_text_report(blob_csv, eval_config, capsys):
    rc = main(["evaluate", "--input", str(blob_csv), "--config", str(eval_config),
               "--method", "generalized", "--report", "text"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "error (%)" in out
    assert "time (s)" in out


def test_evaluate_csv_report(blob_csv, eval_config, capsys):
    rc = main(["evaluate", "--input", str(blob_csv), "--config", str(eval_config),
               "--method", "baseline", "--report", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "repeat,error,lambda,rho_prior,rho_align"
    assert len(lines) == 3


_CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# evaluate --report csv rows (error, lambda, rho_prior, rho_align) of the
# shipped configs on the datasets their comments describe. Errors and
# lambdas must match exactly; the alignment factors, which move with the
# solver's rounding, to 1e-9 relative.
_GOLDEN = {
    "moons400": (["--kind", "moons", "--n", "400", "--noise", "0.1", "--seed", "3"], [
        (0.052083333333333336, 0.001, 0.9999999997575513, 0.9850924260962677),
        (0.06510416666666667, 0.001, 0.999999999981381, 0.9859140840780883),
        (0.08072916666666667, 0.001, 0.9999999981129903, 0.9484173227846474),
        (0.1953125, 0.001, 0.9999999998817686, 0.9432153087394437),
        (0.07552083333333333, 0.001, 0.9999999999041782, 0.9878058531316285),
    ]),
    "blobs600": (["--kind", "blobs", "--n", "600", "--d", "10", "--classes", "2",
                  "--separation", "2.0", "--seed", "7"], [
        (0.1706896551724138, 1.0, 0.9986190290932713, 0.5086011181866427),
        (0.1724137931034483, 1.0, 0.9963833468194804, 0.7307136596399642),
        (0.19310344827586207, 1.0, 0.9950946392691497, 0.7670316297784505),
        (0.2, 1.0, 0.9978268484382603, 0.6603257031959678),
        (0.23793103448275862, 1.0, 0.9978622534048166, 0.6221414606529952),
        (0.2120689655172414, 1.0, 0.9971414328836731, 0.776630436454362),
        (0.19137931034482758, 1.0, 0.9975817482910652, 0.6642090074213439),
        (0.2293103448275862, 1.0, 0.9976009644280592, 0.6310135782530182),
        (0.2206896551724138, 1.0, 0.9981677324847783, 0.5833634639911804),
        (0.1706896551724138, 1.0, 0.9986422369392045, 0.4784882421681737),
    ]),
}


def test_select_lambda_warns_on_moons400(tmp_path, capsys):
    """On the moons400 config the criterion picks the grid's smallest lambda,
    and rho_prior reads 1.000000 for every candidate: both warnings print."""
    data = tmp_path / "moons400.csv"
    assert main(["synth", *_GOLDEN["moons400"][0], "--out", str(data)]) == 0
    capsys.readouterr()
    rc = main(["select-lambda", "--input", str(data),
               "--config", str(_CONFIGS / "moons400.cfg")])
    assert rc == 0
    warnings = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("warning:")]
    assert len(warnings) == 2
    assert "edge of the scored grid" in warnings[0]
    assert "rho_align alone" in warnings[1]


def test_select_lambda_scores_evaluate_repeat_0(tmp_path, capsys):
    """select-lambda draws its labels and landmarks from the seeds the
    config's seed derives for evaluate's repeat 0, so its table is that
    repeat's selection and its chosen row is the repeat's result."""
    data = tmp_path / "moons400.csv"
    config = _CONFIGS / "moons400.cfg"
    assert main(["synth", *_GOLDEN["moons400"][0], "--out", str(data)]) == 0
    capsys.readouterr()
    assert main(["select-lambda", "--input", str(data), "--config", str(config)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]
            if not line.startswith(("chosen", "warning"))]
    ds, cfg = load_dataset(data), experiment.experiment_config_from_file(config)
    label_seed, landmark_seed = np.random.SeedSequence(cfg.seed).generate_state(2)
    side = SideInformation.from_labels(
        sample_labeled(ds, cfg.labeled_per_run, int(label_seed)))
    selection = experiment.pipeline(ds.X, side, cfg, int(landmark_seed)).selection
    assert rows == [[f"{r.lam:g}", f"{r.rho_prior:.6f}", f"{r.rho_align:.6f}",
                     f"{r.criterion:.6f}", str(r.solver.iterations), r.solver.converged_by]
                    for r in selection.records]
    first = experiment.run_experiment(ds, cfg, "generalized").results[0]
    assert (first.chosen_lambda, first.rho_align) == (selection.chosen_lambda,
                                                      selection.chosen.rho_align)


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_evaluate_shipped_config_matches_golden_rows(name, tmp_path, capsys):
    synth_args, expected = _GOLDEN[name]
    data = tmp_path / f"{name}.csv"
    assert main(["synth", *synth_args, "--out", str(data)]) == 0
    capsys.readouterr()
    rc = main(["evaluate", "--input", str(data), "--config", str(_CONFIGS / f"{name}.cfg"),
               "--method", "generalized", "--report", "csv"])
    assert rc == 0
    rows = [[float(v) for v in line.split(",")[1:]]
            for line in capsys.readouterr().out.strip().split("\n")[1:]]
    assert [row[:2] for row in rows] == [list(row[:2]) for row in expected]
    assert_allclose([row[2:] for row in rows], [row[2:] for row in expected],
                    rtol=1e-9, atol=0)


def test_select_lambda_prints_table(blob_csv, tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("labeled_per_run = 10\nm = 8\nlambda_grid = 0.1,1,10\n")
    rc = main(["select-lambda", "--input", str(blob_csv), "--config", str(cfg)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "rho_prior" in out
    assert "chosen lambda =" in out
    assert out.count("\n") >= 5  # header + one row per candidate + choice


def test_missing_input_exits_2(tmp_path, capsys):
    rc = main(["landmarks", "--input", str(tmp_path / "absent.csv"),
               "--m", "3", "--out", str(tmp_path / "out.csv")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_svmlight_index_too_large_exits_2(tmp_path, capsys):
    data = tmp_path / "d.svm"
    data.write_text("1 4611686018427387904:2.0\n")
    rc = main(["landmarks", "--input", str(data), "--format", "svmlight", "--m", "1",
               "--out", str(tmp_path / "out.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "too large to densify" in err


def test_bad_config_exits_2(blob_csv, tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("labeled_per_run = 10\nunknown_key = 1\n")
    rc = main(["evaluate", "--input", str(blob_csv), "--config", str(cfg)])
    assert rc == 2


def test_removed_svm_key_exits_2(blob_csv, tmp_path, capsys):
    # svm_c is no config key (the classifier runs train_linear's defaults);
    # it is refused by name, not ignored.
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("labeled_per_run = 10\nsvm_c = 1.0\n")
    rc = main(["evaluate", "--input", str(blob_csv), "--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'svm_c'" in err


@pytest.mark.parametrize("flag, value", [("--bandwidth", "abc"),
                                         ("--lambda-grid", "0.1,x")])
def test_fit_bad_number_exits_2(blob_csv, tmp_path, capsys, flag, value):
    rc = main(["fit", "--input", str(blob_csv), "--labels-per-class", "5",
               "--m", "8", flag, value, "--model-out", str(tmp_path / "model.bin")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag in err


@pytest.mark.parametrize("command", ["synth", "landmarks", "fit", "evaluate"])
def test_negative_seed_exits_2(command, blob_csv, tmp_path, capsys):
    out = str(tmp_path / "out")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("labeled_per_run = 10\nm = 8\nseed = -4\n")
    argv = {"synth": ["synth", "--kind", "moons", "--seed", "-2", "--out", out],
            "landmarks": ["landmarks", "--input", str(blob_csv), "--m", "6",
                          "--seed", "-3", "--out", out],
            "fit": ["fit", "--input", str(blob_csv), "--labels-per-class", "5",
                    "--m", "8", "--seed", "-1", "--model-out", out],
            "evaluate": ["evaluate", "--input", str(blob_csv), "--config", str(cfg)]}
    assert main(argv[command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: seed must be nonnegative")


def test_embed_corrupt_model_exits_2(blob_csv, tmp_path, capsys):
    model_path = tmp_path / "model.bin"
    assert main(["fit", "--input", str(blob_csv), "--labels-per-class", "5",
                 "--m", "8", "--model-out", str(model_path)]) == 0
    data = bytearray(model_path.read_bytes())
    data[28] = 0xFF  # first byte of the kernel family name
    model_path.write_bytes(bytes(data))
    rc = main(["embed", "--model", str(model_path), "--input", str(blob_csv),
               "--out", str(tmp_path / "embedded.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_degenerate_data_exits_3(tmp_path, capsys):
    # Identical feature rows make the bandwidth heuristic undefined, which is
    # a numerical failure rather than bad input.
    path = tmp_path / "flat.csv"
    path.write_text("0,1.0\n1,1.0\n0,1.0\n1,1.0\n")
    rc = main(["fit", "--input", str(path), "--labels-per-class", "1",
               "--m", "2", "--model-out", str(tmp_path / "model.bin")])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_solver_linalg_failure_exits_3(blob_csv, tmp_path, monkeypatch, capsys):
    # A LAPACK failure inside the solver is a numerical error (exit 3), not
    # a traceback.
    real_fit = experiment.fit

    def broken_eigh(M):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    def failing_fit(*args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", broken_eigh)
            return real_fit(*args, **kwargs)

    monkeypatch.setattr(experiment, "fit", failing_fit)
    rc = main(["fit", "--input", str(blob_csv), "--labels-per-class", "5",
               "--m", "8", "--lambda", "1e-3", "--seed", "0",
               "--model-out", str(tmp_path / "model.bin")])
    assert rc == 3
    assert "did not converge" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    out = tmp_path / "tiny.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "gnystrom", "synth", "--n", "10", "--d", "2",
         "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert out.exists()
