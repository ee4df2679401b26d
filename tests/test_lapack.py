"""Tests of the LAPACK and BLAS routines loaded without ``scipy.linalg``."""

import numpy as np
import pytest
from scipy.linalg import blas, lapack

from gnystrom import _lapack


def _spd(rng, n):
    A = rng.normal(size=(n, n))
    return A @ A.T + n * np.eye(n)


def _calls(rng):
    """(name, module of the public wrapper, arguments, keywords) per routine,
    called as the package calls it."""
    S, B, F = _spd(rng, 6), rng.normal(size=(6, 2)), rng.normal(size=(9, 6))
    factor = np.linalg.cholesky(S)
    L = np.tril(rng.normal(size=(6, 6)))
    sym = S - 8.0 * np.eye(6)
    return [
        ("dposv", lapack, (S, B), {}),
        ("dpotrf", lapack, (S,), {"lower": 1, "clean": 0}),
        ("dpotrs", lapack, (factor, B), {"lower": 1}),
        ("dsyevr", lapack, (sym,),
         {"compute_v": 1, "range": "V", "vl": -np.inf, "vu": 0.0, "lower": 1}),
        ("dgeqrt", lapack, (4, F), {}),
        ("dtrmm", blas, (1.0, L.T, F.T), {}),
        ("dsyrk", blas, (1.0, F.T), {"beta": 1.0, "c": S, "trans": 0, "lower": 1}),
    ]


def test_routines_match_scipy_public_wrappers_bit_for_bit():
    rng = np.random.default_rng(0)
    calls = _calls(rng)
    assert {name for name, *_ in calls} == {
        "dposv", "dpotrf", "dpotrs", "dsyevr", "dgeqrt", "dtrmm", "dsyrk"}
    for name, public, args, kwargs in calls:
        ours = getattr(_lapack, name)(*args, **kwargs)
        theirs = getattr(public, name)(*args, **kwargs)
        if not isinstance(ours, tuple):
            ours, theirs = (ours,), (theirs,)
        assert len(ours) == len(theirs), name
        for a, b in zip(ours, theirs):
            assert np.array_equal(a, b), name


def test_missing_module_raises_import_error_naming_the_directory(tmp_path):
    with pytest.raises(ImportError, match=str(tmp_path)):
        _lapack._load(tmp_path, "_flapack")
