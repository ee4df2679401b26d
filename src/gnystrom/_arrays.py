"""Helpers shared by the public modules: the validation of arrays, counts
and reals; ``RANK_RTOL``, the relative eigenvalue level below which
eigenvalues count as rounding; and the symmetric eigendecomposition, PSD
projection and rank truncation that several modules build on."""

import numbers

import numpy as np

from .errors import InputError, NumericalError

# Eigenvalues at or below this fraction of the largest are taken for
# rounding: dictlearn.factorize and the factor a fit returns drop them, the
# ADMM loop lifts its congruence weights to that level, and the closed form
# at lam = 0 takes the eigenvalues of C above it as C's numerical range.
RANK_RTOL = 1e-12
# The largest index or count an intp array holds.
_INTP_MAX = int(np.iinfo(np.intp).max)


def as_data_matrix(x, name="X"):
    """Coerce to a finite float64 matrix of shape (n, d) with n, d >= 1."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise InputError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise InputError(f"{name} must be non-empty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} contains non-finite values")
    return arr


def as_square_matrix(x, name="K"):
    """Coerce to a float64 square matrix; shape errors raise InputError."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InputError(f"{name} must be square, got shape {arr.shape}")
    return arr


def as_vector(x, name="x"):
    """Coerce to a finite float64 vector."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise InputError(f"{name} must be 1-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} contains non-finite values")
    return arr


def _nonnegative_integers(x, name):
    """Coerce to a 1-D integer array, tested for sign in its own dtype."""
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise InputError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise InputError(f"{name} must be of integer type")
    if arr.size and arr.min() < 0:
        raise InputError(f"{name} must be nonnegative")
    return arr


def as_index_array(x, name="indices", distinct=True):
    """Coerce to a 1-D array of nonnegative integer indices, distinct unless
    ``distinct`` is False."""
    arr = _nonnegative_integers(x, name)
    # Tested before the cast to intp, which would wrap such values.
    if arr.size and arr.max() > _INTP_MAX:
        raise InputError(f"{name} must be below 2**63")
    arr = arr.astype(np.intp, copy=False)
    if distinct and np.unique(arr).size != arr.size:
        raise InputError(f"{name} must be distinct")
    return arr


def as_seed(seed):
    """A user seed for numpy's generators, as an int; InputError unless it
    is a nonnegative integer below 2**64."""
    return int(_nonnegative_integers([seed], "seed")[0])


def as_count(x, name):
    """A count, such as a number of centers or of iterations, as an int;
    InputError unless it is an integer of at least 1 and below 2**63. A
    float, even a whole one, and a bool are not integers."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise InputError(f"{name} must be of integer type")
    value = int(x)
    if value < 1:
        raise InputError(f"{name} must be >= 1, got {value}")
    if value > _INTP_MAX:
        raise InputError(f"{name} must be below 2**63, got {value}")
    return value


def as_real(x, name, positive=False):
    """A finite real, such as a weight, a bandwidth or a tolerance, as a
    float; InputError unless it is a real number, finite and at least 0, or
    above 0 if ``positive``. A bool, a string and an array are not reals."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise InputError(f"{name} must be a real number, got {x!r}")
    try:
        value = float(x)
    except OverflowError:  # an int beyond the float range
        value = np.inf
    if not (np.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
        sign = "positive" if positive else "nonnegative"
        raise InputError(f"{name} must be a {sign} finite real, got {x!r}")
    return value


def eigh(M):
    """numpy.linalg.eigh, with a LAPACK failure raised as NumericalError."""
    try:
        return np.linalg.eigh(M)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc


def _project(M):
    """The Frobenius-nearest PSD matrix to the symmetrized M: its
    eigenvalues below 0 clamped to 0."""
    return _clamp(*eigh(0.5 * (M + M.T)))


def _clamp(vals, vecs):
    """The PSD projection of the symmetric matrix with eigenpairs (vals, vecs)."""
    out = (vecs * np.maximum(vals, 0.0)) @ vecs.T
    return 0.5 * (out + out.T)


def _truncate(vals, vecs, rtol):
    """The eigenpairs of ``eigh``'s (vals, vecs), in ascending order, with
    eigenvalue above both ``rtol`` times the largest one and 0.

    The rank truncation shared by the Nyström pseudo-inverse and the PSD
    factor (Kumar, Mohri & Talwalkar 2012, JMLR).
    """
    top = float(vals[-1]) if vals.size else 0.0
    keep = vals > max(rtol * top, 0.0)
    return vals[keep], vecs[:, keep]
