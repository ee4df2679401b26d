"""Dataset loading, balanced label sampling, and synthetic generators."""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._arrays import as_count, as_data_matrix, as_real, as_seed
from .errors import InputError, ParseError
from .kernels import LabelVector

DATASET_FORMATS = ("csv", "svmlight")


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with one label per row."""

    X: np.ndarray
    y: np.ndarray
    name: str = "dataset"

    def __post_init__(self):
        X = as_data_matrix(self.X)
        y = np.asarray(self.y)
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise InputError("y must hold one label per row of X")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self):
        return int(self.X.shape[0])

    @property
    def d(self):
        return int(self.X.shape[1])

    @property
    def classes(self):
        return np.unique(self.y)


def load_dataset(path, format="csv"):
    """Read a labeled dataset from disk.

    CSV rows are ``label,feat1,...,featd`` with an optional header row
    (detected by non-numeric feature fields on the first line). svmlight
    rows are ``label index:value ...`` with 1-based indices, densified to
    the largest index present; an index too large to densify raises
    InputError. A label that reads as a number must be finite. Malformed
    lines raise :class:`ParseError` carrying the line number.
    """
    if format not in DATASET_FORMATS:
        raise InputError(f"unknown dataset format {format!r}")
    path = Path(path)
    if format == "csv":
        X, labels = _read_csv(path)
    else:
        X, labels = _read_svmlight(path)
    return Dataset(X=X, y=_canonical_labels(labels), name=path.stem)


def _read_csv(path):
    rows = []
    labels = []
    expected = None
    first_data_line = True
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = [f.strip() for f in line.split(",")]
            if len(fields) < 2:
                raise ParseError("expected a label and at least one feature",
                                 path=str(path), line=lineno)
            if first_data_line:
                first_data_line = False
                if not _all_floats(fields[1:]):
                    continue  # header row
            if _all_floats(fields[:1]) and not np.isfinite(float(fields[0])):
                raise ParseError(f"non-finite label {fields[0]!r}", path=str(path), line=lineno)
            feats = []
            for pos, token in enumerate(fields[1:], start=2):
                try:
                    feats.append(float(token))
                except ValueError:
                    raise ParseError(f"non-numeric value {token!r} in column {pos}",
                                     path=str(path), line=lineno) from None
            if expected is None:
                expected = len(feats)
            elif len(feats) != expected:
                raise InputError(
                    f"{path}: row at line {lineno} has {len(feats)} features, "
                    f"expected {expected}")
            labels.append(fields[0])
            rows.append(feats)
    if not rows:
        raise InputError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64), labels


def _read_svmlight(path):
    entries = []
    labels = []
    max_index = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                label = float(parts[0])
            except ValueError:
                raise ParseError(f"non-numeric label {parts[0]!r}",
                                 path=str(path), line=lineno) from None
            if not np.isfinite(label):
                raise ParseError(f"non-finite label {parts[0]!r}", path=str(path), line=lineno)
            pairs = {}
            for token in parts[1:]:
                idx_str, sep, val_str = token.partition(":")
                if not sep:
                    raise ParseError(f"expected index:value, got {token!r}",
                                     path=str(path), line=lineno)
                try:
                    idx = int(idx_str)
                    val = float(val_str)
                except ValueError:
                    raise ParseError(f"malformed feature {token!r}",
                                     path=str(path), line=lineno) from None
                if idx < 1:
                    raise ParseError(f"feature indices are 1-based, got {idx}",
                                     path=str(path), line=lineno)
                if idx in pairs:
                    raise ParseError(f"feature index {idx} repeated", path=str(path), line=lineno)
                pairs[idx] = val
                max_index = max(max_index, idx)
            labels.append(label)
            entries.append(pairs)
    if not entries:
        raise InputError(f"{path}: no data rows")
    if max_index == 0:
        raise InputError(f"{path}: no features present")
    try:
        X = np.zeros((len(entries), max_index))
    except (ValueError, MemoryError):
        raise InputError(f"{path}: feature index {max_index} is too large to densify") from None
    for row, pairs in enumerate(entries):
        for idx, val in pairs.items():
            X[row, idx - 1] = val
    return X, labels


def _all_floats(tokens):
    try:
        for token in tokens:
            float(token)
    except ValueError:
        return False
    return True


def _canonical_labels(labels):
    """Map label strings to int64 when every label is an integral number,
    float64 when numeric, plain strings otherwise."""
    try:
        numeric = np.asarray([float(v) for v in labels])
    except (TypeError, ValueError):
        return np.asarray([str(v) for v in labels])
    if np.all(numeric == np.round(numeric)):
        return numeric.astype(np.int64)
    return numeric


def sample_labeled(ds, count, seed):
    """Balanced labeled subset: per-class quotas as even as possible.

    The remainder after an even split goes to the largest classes (class
    order breaking ties), and members are drawn uniformly without
    replacement with the given seed. Infeasible quotas raise InputError.
    """
    count = as_count(count, "count")
    classes, class_counts = np.unique(ds.y, return_counts=True)
    k = classes.size
    if count < k:
        raise InputError(f"count={count} is below the number of classes {k}")
    base, rem = divmod(count, k)
    quotas = np.full(k, base, dtype=np.intp)
    order = np.argsort(-class_counts, kind="stable")
    quotas[order[:rem]] += 1
    for cls, quota, have in zip(classes, quotas, class_counts):
        if quota > have:
            raise InputError(
                f"class {cls.item()!r} has {have} members but a quota of {quota}")
    rng = np.random.default_rng(as_seed(seed))
    picked = [rng.choice(np.flatnonzero(ds.y == cls), size=int(quota), replace=False)
              for cls, quota in zip(classes, quotas)]
    indices = np.sort(np.concatenate(picked))
    return LabelVector(indices=indices, labels=ds.y[indices])


def make_blobs(n, d, n_classes=2, separation=3.0, seed=0, name="blobs"):
    """Isotropic unit-variance Gaussian blobs.

    Class centers sit on coordinate axes at distance ``separation`` from the
    origin (cycling through axes with growing radius when there are more
    classes than dimensions), so ``separation`` controls class overlap
    directly; being a distance, it must be a nonnegative finite real. Rows
    are shuffled; labels are 0..n_classes-1.
    """
    n, d, n_classes = as_count(n, "n"), as_count(d, "d"), as_count(n_classes, "n_classes")
    separation = as_real(separation, "separation")
    if n < n_classes:
        raise InputError(f"need n >= n_classes, got n={n} with n_classes={n_classes}")
    rng = np.random.default_rng(as_seed(seed))
    centers = np.zeros((n_classes, d))
    for c in range(1, n_classes):
        axis = (c - 1) % d
        radius = separation * (1 + (c - 1) // d)
        centers[c, axis] = radius
    per = np.full(n_classes, n // n_classes, dtype=np.intp)
    per[: n - int(per.sum())] += 1
    X = np.vstack([rng.standard_normal((int(cnt), d)) + centers[c]
                   for c, cnt in enumerate(per)])
    y = np.repeat(np.arange(n_classes, dtype=np.int64), per)
    shuffle = rng.permutation(n)
    return Dataset(X=X[shuffle], y=y[shuffle], name=name)


def make_two_moons(n, noise=0.1, seed=0, name="moons"):
    """Two interleaved half-circles in 2-D with Gaussian coordinate noise."""
    n, noise = as_count(n, "n"), as_real(noise, "noise")
    if n < 2:
        raise InputError("need n >= 2")
    rng = np.random.default_rng(as_seed(seed))
    n_outer = n // 2
    n_inner = n - n_outer
    t_outer = np.linspace(0.0, np.pi, n_outer)
    t_inner = np.linspace(0.0, np.pi, n_inner)
    outer = np.column_stack([np.cos(t_outer), np.sin(t_outer)])
    inner = np.column_stack([1.0 - np.cos(t_inner), 0.5 - np.sin(t_inner)])
    X = np.vstack([outer, inner]) + noise * rng.standard_normal((n, 2))
    y = np.concatenate([np.zeros(n_outer, dtype=np.int64),
                        np.ones(n_inner, dtype=np.int64)])
    shuffle = rng.permutation(n)
    return Dataset(X=X[shuffle], y=y[shuffle], name=name)
