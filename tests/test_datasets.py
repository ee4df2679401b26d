"""Tests for dataset parsing, balanced label sampling, and the synthetic
generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from gnystrom import (
    Dataset,
    InputError,
    ParseError,
    load_dataset,
    make_blobs,
    make_two_moons,
    sample_labeled,
)


# ---------------------------------------------------------------------------
# CSV


def test_csv_basic(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("1,0.5,0.5\n2,1.0,0.0\n")
    ds = load_dataset(f, format="csv")
    assert ds.n == 2 and ds.d == 2
    assert set(ds.classes.tolist()) == {1, 2}
    assert_allclose(ds.X, [[0.5, 0.5], [1.0, 0.0]])


def test_csv_header_detected(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("label,f1,f2\n1,0.5,0.5\n2,1.0,0.0\n")
    ds = load_dataset(f)
    assert ds.n == 2 and ds.d == 2


def test_csv_comments_and_blanks_skipped(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("# comment\n\n1,2.0\n\n# more\n0,3.0\n")
    ds = load_dataset(f)
    assert ds.n == 2 and ds.d == 1


def test_csv_non_numeric_feature_is_parse_error(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("1,0.5\n2,oops\n")
    with pytest.raises(ParseError) as exc:
        load_dataset(f)
    assert "line 2" in str(exc.value)


def test_csv_ragged_row_is_input_error(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("1,0.5,0.5\n2,1.0\n")
    with pytest.raises(InputError) as exc:
        load_dataset(f)
    assert "line 2" in str(exc.value)


def test_csv_string_labels_preserved(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("cat,0.5\ndog,1.0\ncat,0.0\n")
    ds = load_dataset(f)
    assert set(ds.classes.tolist()) == {"cat", "dog"}


def test_csv_empty_file_rejected(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("# nothing here\n")
    with pytest.raises(InputError):
        load_dataset(f)


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(InputError):
        load_dataset(tmp_path / "d.csv", format="parquet")


# ---------------------------------------------------------------------------
# svmlight


def test_svmlight_densifies(tmp_path):
    f = tmp_path / "d.svm"
    f.write_text("1 1:0.5 3:2.0\n")
    ds = load_dataset(f, format="svmlight")
    assert_allclose(ds.X, [[0.5, 0.0, 2.0]])
    assert ds.y.tolist() == [1]


def test_svmlight_multiple_rows_share_width(tmp_path):
    f = tmp_path / "d.svm"
    f.write_text("1 1:1.0\n-1 2:3.0 4:1.5\n")
    ds = load_dataset(f, format="svmlight")
    assert ds.X.shape == (2, 4)
    assert_allclose(ds.X[0], [1.0, 0.0, 0.0, 0.0])
    assert_allclose(ds.X[1], [0.0, 3.0, 0.0, 1.5])


def test_svmlight_comments_stripped(tmp_path):
    f = tmp_path / "d.svm"
    f.write_text("# full comment\n1 1:0.5 # trailing\n")
    ds = load_dataset(f, format="svmlight")
    assert ds.n == 1


def test_svmlight_malformed_pair(tmp_path):
    f = tmp_path / "d.svm"
    f.write_text("1 1:0.5 nonsense\n")
    with pytest.raises(ParseError) as exc:
        load_dataset(f, format="svmlight")
    assert "line 1" in str(exc.value)


def test_svmlight_zero_index_rejected(tmp_path):
    f = tmp_path / "d.svm"
    f.write_text("1 0:0.5\n")
    with pytest.raises(ParseError):
        load_dataset(f, format="svmlight")


def test_svmlight_repeated_index_rejected(tmp_path):
    """A feature index repeated within a row is an error, not a silent
    overwrite by its last value."""
    f = tmp_path / "d.svm"
    f.write_text("1 1:0.5\n1 3:1.0 3:2.0\n")
    with pytest.raises(ParseError, match="repeated") as exc:
        load_dataset(f, format="svmlight")
    assert "line 2" in str(exc.value)


def test_svmlight_bad_label(tmp_path):
    f = tmp_path / "d.svm"
    f.write_text("abc 1:0.5\n")
    with pytest.raises(ParseError):
        load_dataset(f, format="svmlight")


@pytest.mark.parametrize("label", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("format", ["csv", "svmlight"])
def test_non_finite_label_is_parse_error(tmp_path, format, label):
    """A label of inf used to become class -2**63 after a RuntimeWarning,
    and nan a float class of its own."""
    f = tmp_path / "d.txt"
    row = f"{label},0.5" if format == "csv" else f"{label} 1:0.5"
    f.write_text(("1,0.5" if format == "csv" else "1 1:0.5") + "\n" + row + "\n")
    with pytest.raises(ParseError, match="non-finite label") as exc:
        load_dataset(f, format=format)
    assert "line 2" in str(exc.value)


@pytest.mark.parametrize("format, text, error, match", [
    ("csv", "1,0.5\n2\n", ParseError, "expected a label and at least one feature"),
    ("svmlight", "0 1:abc\n", ParseError, "malformed feature"),
    ("svmlight", "# only\n# comments\n", InputError, "no data rows"),
    ("svmlight", "1\n0\n", InputError, "no features present"),
], ids=["csv-label-only", "svmlight-malformed-feature", "svmlight-comments-only",
        "svmlight-labels-only"])
def test_malformed_file_is_rejected(tmp_path, format, text, error, match):
    f = tmp_path / "d.txt"
    f.write_text(text)
    with pytest.raises(error, match=match):
        load_dataset(f, format=format)


def test_non_integral_numeric_labels_load_as_float(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("0.5,1.0\n1,2.0\n0.5,3.0\n")
    ds = load_dataset(f)
    assert ds.y.dtype == np.float64
    assert ds.y.tolist() == [0.5, 1.0, 0.5]


def test_svmlight_index_too_large_to_densify(tmp_path):
    """An index whose row alone exceeds the largest array NumPy can describe
    is refused before anything is allocated."""
    f = tmp_path / "d.svm"
    f.write_text("1 4611686018427387904:2.0\n")
    with pytest.raises(InputError, match="too large to densify"):
        load_dataset(f, format="svmlight")


# ---------------------------------------------------------------------------
# round trips


@st.composite
def _labeled_matrices(draw):
    """Finite float matrices of 1-6 rows and 1-4 columns, one integer label
    per row."""
    X = draw(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 4)),
                    elements=st.floats(allow_nan=False, allow_infinity=False)))
    y = draw(arrays(np.int64, X.shape[0], elements=st.integers(-1000, 1000)))
    return X, y


@settings(max_examples=100, deadline=None)
@given(data=_labeled_matrices())
def test_csv_round_trip_is_exact(tmp_path_factory, data):
    """CSV written as ``gnystrom synth`` writes it loads back bit for bit."""
    X, y = data
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    rows = np.column_stack([y.astype(np.float64), X])
    np.savetxt(path, rows, delimiter=",", fmt=["%d"] + ["%.17g"] * X.shape[1])
    ds = load_dataset(path)
    assert np.array_equal(ds.X, X) and np.array_equal(ds.y, y)


@settings(max_examples=100, deadline=None)
@given(data=_labeled_matrices())
def test_svmlight_round_trip_is_exact(tmp_path_factory, data):
    """svmlight with repr values, zeros left out and the last column always
    written (so the width is recovered) loads back bit for bit."""
    X, y = data
    d = X.shape[1]
    path = tmp_path_factory.mktemp("svm") / "d.svm"
    lines = [" ".join([repr(int(label))] + [f"{j + 1}:{row[j]!r}" for j in range(d)
                                             if row[j] != 0.0 or j == d - 1])
             for label, row in zip(y, X.tolist())]
    path.write_text("\n".join(lines) + "\n")
    ds = load_dataset(path, format="svmlight")
    assert np.array_equal(ds.X, X) and np.array_equal(ds.y, y)


# ---------------------------------------------------------------------------
# sample_labeled


def _toy_dataset(counts):
    """Dataset with the requested per-class sizes; features are unused
    placeholders."""
    labels = np.concatenate([np.full(c, k, dtype=np.int64)
                             for k, c in enumerate(counts)])
    X = np.arange(labels.size, dtype=np.float64)[:, None]
    return Dataset(X=X, y=labels)


def test_sample_labeled_even_split():
    ds = _toy_dataset([10, 10])
    lv = sample_labeled(ds, 4, seed=0)
    assert len(lv) == 4
    counts = {k: int(np.sum(lv.labels == k)) for k in (0, 1)}
    assert counts == {0: 2, 1: 2}


def test_sample_labeled_remainder_to_largest_classes():
    ds = _toy_dataset([40, 35, 34])
    lv = sample_labeled(ds, 100, seed=0)
    counts = {k: int(np.sum(lv.labels == k)) for k in (0, 1, 2)}
    assert counts == {0: 34, 1: 33, 2: 33}


def test_sample_labeled_deterministic():
    ds = _toy_dataset([20, 20, 20])
    a = sample_labeled(ds, 9, seed=7)
    b = sample_labeled(ds, 9, seed=7)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.labels, b.labels)


def test_sample_labeled_indices_point_at_their_labels():
    ds = _toy_dataset([15, 5, 10])
    lv = sample_labeled(ds, 12, seed=3)
    assert np.array_equal(ds.y[lv.indices], lv.labels)
    assert len(set(lv.indices.tolist())) == 12


def test_sample_labeled_infeasible_quota():
    ds = _toy_dataset([2, 50])
    with pytest.raises(InputError):
        sample_labeled(ds, 20, seed=0)  # class 0 cannot provide 10


@pytest.mark.parametrize("labels, shown", [(np.array([0, 0, 1, 1, 1]), "class 0"),
                                           (np.array(["a", "a", "b", "b", "b"]), "class 'a'")])
def test_sample_labeled_quota_error_names_the_class_plainly(labels, shown):
    ds = Dataset(X=np.zeros((5, 1)), y=labels)
    with pytest.raises(InputError) as info:
        sample_labeled(ds, 6, seed=0)
    assert str(info.value) == f"{shown} has 2 members but a quota of 3"


def test_sample_labeled_count_below_class_count():
    ds = _toy_dataset([5, 5, 5])
    with pytest.raises(InputError):
        sample_labeled(ds, 2, seed=0)


# ---------------------------------------------------------------------------
# synthetic generators


def test_make_blobs_shapes_and_classes():
    ds = make_blobs(101, d=4, n_classes=3, seed=0)
    assert ds.X.shape == (101, 4)
    assert set(ds.classes.tolist()) == {0, 1, 2}
    # deterministic under the seed
    again = make_blobs(101, d=4, n_classes=3, seed=0)
    assert np.array_equal(ds.X, again.X)
    assert np.array_equal(ds.y, again.y)


def test_make_blobs_separation_controls_spread():
    near = make_blobs(200, d=2, n_classes=2, separation=0.5, seed=1)
    far = make_blobs(200, d=2, n_classes=2, separation=20.0, seed=1)
    gap = lambda ds: np.linalg.norm(ds.X[ds.y == 0].mean(axis=0)
                                    - ds.X[ds.y == 1].mean(axis=0))
    assert gap(far) > gap(near)


def test_make_blobs_validation():
    with pytest.raises(InputError):
        make_blobs(1, d=2, n_classes=2)
    with pytest.raises(InputError):
        make_blobs(10, d=0)
    # Counts that are not integers raised a bare TypeError.
    for args in ((10.0, 2), (10, 2.0), (10, 2, 2.0)):
        with pytest.raises(InputError, match="must be of integer type"):
            make_blobs(*args)
    with pytest.raises(InputError, match="n must be of integer type"):
        make_two_moons(10.0)
    with pytest.raises(InputError, match="noise must be a real number"):
        make_two_moons(10, noise="0.1")
    with pytest.raises(InputError, match="need n >= 2"):
        make_two_moons(1)
    # separation went unchecked: "abc" raised a bare ValueError, and True,
    # negative distances and any value with one class were accepted.
    for separation, n_classes in (("abc", 2), (True, 2), (-1.0, 2), (float("nan"), 2),
                                  ("abc", 1), (-3.0, 1)):
        with pytest.raises(InputError, match="separation must be a"):
            make_blobs(10, 2, n_classes=n_classes, separation=separation)


def test_sample_labeled_takes_an_integer_count():
    """A float count raised a bare TypeError and 2**70 an OverflowError."""
    ds = Dataset(X=np.zeros((4, 1)), y=np.array([0, 1, 0, 1]))
    for count in (10.0, 2**70, True):
        with pytest.raises(InputError, match="count must be"):
            sample_labeled(ds, count, 0)
    assert len(sample_labeled(ds, np.int64(2), 0)) == 2


def test_make_two_moons():
    ds = make_two_moons(100, noise=0.05, seed=2)
    assert ds.X.shape == (100, 2)
    assert set(ds.classes.tolist()) == {0, 1}
    assert abs(int(np.sum(ds.y == 0)) - 50) <= 1
    again = make_two_moons(100, noise=0.05, seed=2)
    assert np.array_equal(ds.X, again.X)


def test_dataset_validation():
    with pytest.raises(InputError):
        Dataset(X=np.ones((3, 2)), y=np.ones(2))
    ds = Dataset(X=np.ones((3, 2)), y=np.array([0, 1, 0]))
    assert ds.n == 3 and ds.d == 2
