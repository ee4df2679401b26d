"""Gaussian kernels, Gram-matrix assembly, target kernels, and alignment.

Everything downstream works with an explicit kernel ``k(x, y) =
exp(-||x - y||^2 / b)``; the bandwidth ``b`` is normally picked with
:func:`bandwidth_heuristic`. :func:`nka_score` is the normalized alignment
between two kernel matrices after double-centering, used both as a fit
diagnostic and as the model-selection criterion.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from ._arrays import as_data_matrix, as_index_array, as_square_matrix, as_vector
from .errors import DegenerateBandwidthError, InputError, UndefinedAlignmentError

# Centered operands with Frobenius norm below this (relative to the raw
# operand) are treated as zero, i.e. alignment is undefined for them.
_ZERO_ALIGNMENT_RTOL = 1e-13


@dataclass(frozen=True)
class KernelParams:
    """Bandwidth of the Gaussian kernel ``k(x, y) =
    exp(-||x - y||^2 / bandwidth)``, in squared-distance units.
    """

    bandwidth: float

    def __post_init__(self):
        bw = float(self.bandwidth)
        if not (np.isfinite(bw) and bw > 0.0):
            raise InputError(f"bandwidth must be positive and finite, got {self.bandwidth}")
        object.__setattr__(self, "bandwidth", bw)


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


def rbf_kernel(x, y, params):
    """Evaluate the Gaussian kernel for one pair of points."""
    xv = as_vector(x, "x")
    yv = as_vector(y, "y")
    if xv.shape != yv.shape:
        raise InputError(f"points must share a dimension, got {xv.shape} and {yv.shape}")
    diff = xv - yv
    return float(np.exp(-(diff @ diff) / params.bandwidth))


def kernel_matrix(A, B, params):
    """Pairwise kernel matrix between the rows of A and the rows of B.

    Squared distances are computed pairwise, never by the expansion
    ``|a|^2 + |b|^2 - 2 a.b``, so every entry is the kernel of its own pair
    rounded once. The training blocks (E and W in ``build_core``, eigenvector
    extrapolation, ``similarity``) rely on that: the same array on both sides
    gives an exactly symmetric result with a unit diagonal, and a sample that
    coincides with a landmark gets W's row bit for bit, which the Nystrom
    interpolation property and its error bound (zero error at a landmark)
    need. The expansion's cancellation error, about 1e-16 per entry, breaks
    both. Serving uses the faster :func:`_rbf_block` instead.
    """
    A = as_data_matrix(A, "A")
    B = as_data_matrix(B, "B")
    if A.shape[1] != B.shape[1]:
        raise InputError(
            f"operands must share a feature dimension, got {A.shape[1]} and {B.shape[1]}"
        )
    sq = cdist(A, B, "sqeuclidean")
    sq /= -params.bandwidth
    return np.exp(sq, out=sq)


def _rbf_block(X, Z, bandwidth):
    """Kernel block ``exp(-|x - z|^2 / bandwidth)`` for rows X and landmarks Z.

    The exponent ``-|x-z|^2 / bandwidth`` comes from one n x (d+2) by
    (d+2) x m matrix product, ``[x-c, |x-c|^2, 1]`` against
    ``[2 (z-c) / b, -1 / b, -|z-c|^2 / b]``, with both sides centred at the
    landmark mean ``c`` so that cancellation error scales with the data's
    spread, not with its offset. A row with an entry the expansion cannot
    tell from zero distance (at or above minus its rounding bound, which
    covers every positive result), or one that overflowed, is recomputed
    pairwise, so a row equal to a landmark gets exactly 1 in that landmark's
    column. The exponential is taken in place: one n x m buffer, written by
    the product and rewritten by ``exp``, with one row max read in between.
    Agrees with :func:`kernel_matrix` to about 1e-15.
    """
    n, d = X.shape
    # A row whose terms overflow (coordinates near the largest float, or a
    # bandwidth near the smallest) holds inf or nan and fails the test for
    # rows to recompute below; a pairwise exponent that overflows is -inf,
    # whose exponential 0 is right. So overflow here needs no warning.
    with np.errstate(over="ignore", invalid="ignore"):
        c = Z.mean(axis=0)
        Zc = Z - c
        sq_z = np.einsum("ij,ij->i", Zc, Zc)
        Xa = np.empty((n, d + 2))
        Xc = np.subtract(X, c, out=Xa[:, :d])
        sq_x = np.einsum("ij,ij->i", Xc, Xc, out=Xa[:, d])
        Xa[:, d + 1] = 1.0
        Za = np.empty((Z.shape[0], d + 2))
        np.multiply(Zc, 2.0 / bandwidth, out=Za[:, :d])
        Za[:, d] = -1.0 / bandwidth
        np.divide(sq_z, -bandwidth, out=Za[:, d + 1])
        block = Xa @ Za.T
        # The computed dot product of length d + 2 is off by at most about
        # (d + 2) * eps times the sum of its terms' magnitudes,
        # (2 |x-c||z-c| + |x-c|^2 + |z-c|^2) / b <= 2 (|x-c|^2 + |z-c|^2) / b;
        # rounding the operands' entries adds a few eps more.
        bound = 2.0 * (d + 4) * np.finfo(np.float64).eps / bandwidth * (sq_x + sq_z.max())
        near = np.flatnonzero(~(block.max(axis=1) < -bound))
        block[near] = cdist(X[near], Z, "sqeuclidean") / -bandwidth
    return np.exp(block, out=block)


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


def ideal_kernel(labels):
    """0/1 target kernel: entry (i, j) is 1 exactly when the labels agree."""
    if isinstance(labels, LabelVector):
        values = labels.labels
    else:
        values = np.asarray(labels)
    if values.ndim != 1 or values.shape[0] < 1:
        raise InputError("ideal_kernel needs a nonempty 1-D label sequence")
    return (values[:, None] == values[None, :]).astype(np.float64)


def double_center(K):
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
    it explicitly.
    """
    K = as_square_matrix(K, "K")
    Kp = as_square_matrix(Kp, "Kp")
    if K.shape != Kp.shape:
        raise InputError(f"alignment operands must match in shape, got {K.shape} and {Kp.shape}")
    Kc = double_center(K)
    Kpc = double_center(Kp)
    return _centred_cosine(float(np.sum(Kc * Kpc)), float(np.linalg.norm(Kc)),
                           float(np.linalg.norm(Kpc)), float(np.linalg.norm(K)),
                           float(np.linalg.norm(Kp)))


def _centred_cosine(inner, norm_a, norm_b, raw_a, raw_b):
    """:func:`nka_score` from the inner product and the Frobenius norms of
    the two centred operands, and the norms of the raw ones."""
    floor_a = _ZERO_ALIGNMENT_RTOL * max(1.0, raw_a)
    floor_b = _ZERO_ALIGNMENT_RTOL * max(1.0, raw_b)
    if norm_a <= floor_a or norm_b <= floor_b:
        raise UndefinedAlignmentError("an operand centers to the zero matrix")
    return float(np.clip(inner / (norm_a * norm_b), -1.0, 1.0))
