"""End-to-end tests for the command-line interface and its exit codes."""

import subprocess
import sys

import numpy as np
import pytest

from gnystrom import cli, load, load_dataset
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


def test_bad_config_exits_2(blob_csv, tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("labeled_per_run = 10\nunknown_key = 1\n")
    rc = main(["evaluate", "--input", str(blob_csv), "--config", str(cfg)])
    assert rc == 2


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
    real_fit = cli.fit

    def broken_eigh(M):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    def failing_fit(*args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", broken_eigh)
            return real_fit(*args, **kwargs)

    monkeypatch.setattr(cli, "fit", failing_fit)
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
