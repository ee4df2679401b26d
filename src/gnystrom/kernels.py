"""Gaussian kernels, Gram-matrix assembly, and alignment.

Everything downstream works with an explicit kernel ``k(x, y) =
exp(-||x - y||^2 / b)``; the bandwidth ``b`` is normally picked with
:func:`bandwidth_heuristic`. :func:`nka_score` is the normalized alignment
between two kernel matrices after double-centering, used both as a fit
diagnostic and as the model-selection criterion.

:func:`kernel_matrix` is the package's one routine for kernel blocks: E and
W, ``similarity`` and ``embed`` all call it. Its
exponents come from one matrix product. Rows with an entry at or near zero
distance are recomputed pairwise, so those rows are exactly pairwise: every
row of a block of a point set against itself, such as W, and every row of a
point that coincides with a landmark. All other entries agree with their
pairwise value to about 1e-15.
"""

from dataclasses import dataclass

import numpy as np

from ._arrays import as_data_matrix, as_index_array, as_real, as_square_matrix
from .errors import DegenerateBandwidthError, InputError, UndefinedAlignmentError

# Centered operands with Frobenius norm below this (relative to the raw
# operand) are treated as zero, i.e. alignment is undefined for them.
_ZERO_ALIGNMENT_RTOL = 1e-13

# Entries per row block of _squared_distances' work array (512 KiB).
_PAIRWISE_BLOCK = 1 << 16


@dataclass(frozen=True)
class KernelParams:
    """Bandwidth of the Gaussian kernel ``k(x, y) =
    exp(-||x - y||^2 / bandwidth)``, in squared-distance units.
    """

    bandwidth: float

    def __post_init__(self):
        object.__setattr__(self, "bandwidth", as_real(self.bandwidth, "bandwidth", positive=True))


@dataclass(frozen=True)
class LabelVector:
    """Class labels attached to a subset of sample rows.

    ``indices`` are row positions into a data matrix and must be distinct;
    ``labels[i]`` is the class of row ``indices[i]``.
    """

    indices: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        indices = as_index_array(self.indices)
        labels = np.asarray(self.labels)
        if labels.ndim != 1:
            raise InputError("labels must be 1-D")
        if indices.shape[0] != labels.shape[0]:
            raise InputError("indices and labels must have equal length")
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "labels", labels)

    def __len__(self):
        return int(self.indices.shape[0])


def kernel_matrix(A, B, params):
    """Gaussian kernel matrix between the rows of A and the rows of B.

    The exponent ``-|a-b|^2 / bandwidth`` comes from one n x (d+2) by
    (d+2) x m matrix product, ``[a-c, |a-c|^2, 1]`` against
    ``[2 (b-c) / w, -1 / w, -|b-c|^2 / w]`` for bandwidth w, with both sides
    centred at the mean ``c`` of B's rows, so that cancellation error scales
    with the data's spread, not with its offset.

    A row with an entry that the expansion cannot tell from zero distance
    (an exponent at or above minus its rounding bound, which covers every
    positive result), or one that overflowed, is recomputed pairwise by
    :func:`_squared_distances`: each of its entries is the kernel of its own
    pair, rounded once, the value scipy's ``cdist`` gives. So a row of A
    that equals a row of B is exactly pairwise, with exactly 1 in that
    column, and ``kernel_matrix(X, X)`` (W in ``build_core``) is pairwise in
    every row: exactly symmetric with a unit diagonal, and a sample that
    coincides with a landmark gets W's row bit for bit, as the Nystrom
    interpolation property and its error bound (zero error at a landmark)
    need. Every other entry agrees with its pairwise value to about 1e-15.

    The exponential is taken in place: one n x m buffer, written by the
    product and rewritten by ``exp``, with one row max read in between.
    """
    A = as_data_matrix(A, "A")
    B = as_data_matrix(B, "B")
    if A.shape[1] != B.shape[1]:
        raise InputError(
            f"operands must share a feature dimension, got {A.shape[1]} and {B.shape[1]}"
        )
    bandwidth = params.bandwidth
    n, d = A.shape
    # A row whose terms overflow (coordinates near the largest float, or a
    # bandwidth near the smallest) holds inf or nan and fails the test for
    # rows to recompute below; a pairwise exponent that overflows is -inf,
    # whose exponential 0 is right. So overflow here needs no warning.
    with np.errstate(over="ignore", invalid="ignore"):
        c = B.mean(axis=0)
        Bc = B - c
        sq_b = np.einsum("ij,ij->i", Bc, Bc)
        Aa = np.empty((n, d + 2))
        Ac = np.subtract(A, c, out=Aa[:, :d])
        sq_a = np.einsum("ij,ij->i", Ac, Ac, out=Aa[:, d])
        Aa[:, d + 1] = 1.0
        Ba = np.empty((B.shape[0], d + 2))
        np.multiply(Bc, 2.0 / bandwidth, out=Ba[:, :d])
        Ba[:, d] = -1.0 / bandwidth
        np.divide(sq_b, -bandwidth, out=Ba[:, d + 1])
        block = Aa @ Ba.T
        # The computed dot product of length d + 2 is off by at most about
        # (d + 2) * eps times the sum of its terms' magnitudes,
        # (2 |a-c||b-c| + |a-c|^2 + |b-c|^2) / w <= 2 (|a-c|^2 + |b-c|^2) / w;
        # rounding the operands' entries adds a few eps more.
        bound = 2.0 * (d + 4) * np.finfo(np.float64).eps / bandwidth * (sq_a + sq_b.max())
        near = np.flatnonzero(~(block.max(axis=1) < -bound))
        pairwise = _squared_distances(A[near], B)
        block[near] = np.divide(pairwise, -bandwidth, out=pairwise)
    return np.exp(block, out=block)


def _squared_distances(A, B):
    """Squared Euclidean distances between the rows of A and of B, summed
    feature by feature in order, one rounded square added per feature: the
    bits of scipy's ``cdist(A, B, "sqeuclidean")``, and after ``np.sqrt``
    those of ``cdist(A, B)``. Rows go in blocks of about 2**16 entries, so
    besides the result a call holds one such block.
    """
    n, d = A.shape
    out = np.empty((n, B.shape[0]))
    cols = np.ascontiguousarray(B.T)
    rows = max(1, _PAIRWISE_BLOCK // B.shape[0])
    work = np.empty((min(rows, n), B.shape[0]))
    for a in range(0, n, rows):
        acc = out[a:a + rows]
        diff = work[:acc.shape[0]]
        np.subtract(A[a:a + rows, :1], cols[0], out=acc)
        acc *= acc
        for j in range(1, d):
            np.subtract(A[a:a + rows, j:j + 1], cols[j], out=diff)
            diff *= diff
            acc += diff
    return out


def bandwidth_heuristic(X):
    """Mean squared Euclidean distance over unordered sample pairs.

    Computed exactly in O(nd) time from centered squared norms, with one
    n x d temporary: the average over all n*(n-1)/2 pairs equals
    ``2 * sum_i ||x_i - mean||^2 / (n - 1)``.
    """
    X = as_data_matrix(X)
    n = X.shape[0]
    if n < 2:
        raise InputError("bandwidth heuristic needs at least two samples")
    squares = X - X.mean(axis=0)
    squares *= squares
    # sum_{i<j} ||x_i - x_j||^2 == n * sum_i ||x_i - mean||^2
    total = float(np.sum(squares))
    mean_sq = 2.0 * total / (n - 1)
    if mean_sq <= 0.0:
        raise DegenerateBandwidthError("all samples coincide; mean pairwise distance is zero")
    return mean_sq


def _double_center(K):
    """Conjugate K by the centering projector H = I - (1/q) * ones.

    Subtracts row means, column means, and adds back the grand mean, which
    equals H @ K @ H without forming H.
    """
    K = as_square_matrix(K)
    row = K.mean(axis=1, keepdims=True)
    col = K.mean(axis=0, keepdims=True)
    grand = K.mean()
    return K - row - col + grand


def nka_score(K, Kp):
    """Normalized alignment of two kernel matrices after double-centering.

    Returns the cosine of the two centered matrices under the Frobenius
    inner product, clipped to [-1, 1]. A constant matrix centers to zero and
    has no defined direction; that raises :class:`UndefinedAlignmentError`
    instead of silently returning a number, so model selection has to handle
    it explicitly. A non-finite entry raises :class:`InputError`.

    Each operand is first scaled by the power of two that brings its largest
    absolute entry into [0.5, 1). That is exact (barring the underflow of
    entries some 300 orders below the largest), so the cosine keeps its bits,
    and it does not depend on the operands' scale: no norm overflows at 1e300
    or underflows at 1e-300.
    """
    return _prepared_cosine(_prepared(K, "K"), _prepared(Kp, "Kp"))


def _prepared(K, name):
    """One operand of :func:`nka_score`, prepared: (Kc, ||Kc||_F, ||K||_F)
    for K unit-scaled (:func:`_unit_scaled`) and Kc its double-centred
    form. An operand that several scores share is prepared once."""
    K = _unit_scaled(K, name)
    Kc = _double_center(K)
    return Kc, float(np.linalg.norm(Kc)), float(np.linalg.norm(K))


def _prepared_cosine(a, b):
    """:func:`nka_score` of two :func:`_prepared` operands."""
    if a[0].shape != b[0].shape:
        raise InputError(f"alignment operands must match in shape, "
                         f"got {a[0].shape} and {b[0].shape}")
    return _centred_cosine(float(np.sum(a[0] * b[0])), a[1], b[1], a[2], b[2])


def _unit_scaled(K, name):
    """K as a finite square matrix, times the power of two that brings its
    largest absolute entry into [0.5, 1) (a zero matrix stays as it is)."""
    K = as_square_matrix(K, name)
    if not np.all(np.isfinite(K)):
        raise InputError(f"{name} contains non-finite values")
    return np.ldexp(K, -np.frexp(np.max(np.abs(K), initial=0.0))[1])


def _centred_cosine(inner, norm_a, norm_b, raw_a, raw_b):
    """:func:`nka_score` from the inner product and the Frobenius norms of
    the two centred operands, and the norms of the raw ones."""
    floor_a = _ZERO_ALIGNMENT_RTOL * max(1.0, raw_a)
    floor_b = _ZERO_ALIGNMENT_RTOL * max(1.0, raw_b)
    if norm_a <= floor_a or norm_b <= floor_b:
        raise UndefinedAlignmentError("an operand centers to the zero matrix")
    return float(np.clip(inner / (norm_a * norm_b), -1.0, 1.0))
