"""Tests of the LAPACK and BLAS routines the package binds: NumPy's bundled
OpenBLAS through ctypes, or SciPy's compiled modules where there is none."""

import importlib.util
import shutil
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import blas, lapack

from gnystrom import _lapack

NAMES = {"dposv", "dpotrf", "dpotrs", "dsyevr", "dgeqrt", "dtrmm", "dsyrk"}


def _spd(rng, n):
    A = rng.normal(size=(n, n))
    return A @ A.T + n * np.eye(n)


def _calls(rng):
    """(name, module of the public wrapper, arguments, keywords, indices of
    the outputs the package reads) per call on arrays, made as the package
    makes it, dictlearn's dsyevr and dposv aside (:func:`_prepared`):
    dictlearn's dpotrf, linear_svm's dpotrf and dpotrs, supervision's dsyrk,
    dpotrf, dpotrs and dgeqrt, inductive's dtrmm; and dsyevr and dposv on
    arrays, as SciPy's wrappers take them."""
    S, b, B = _spd(rng, 6), rng.normal(size=6), rng.normal(size=(6, 2))
    F, K = rng.normal(size=(9, 6)), rng.normal(size=(11, 6))
    factor = np.linalg.cholesky(S)
    L = np.tril(rng.normal(size=(6, 6)))
    sym = S - 8.0 * np.eye(6)
    return [
        ("dsyevr", lapack, (sym,),
         {"compute_v": 1, "range": "V", "vl": -np.inf, "vu": 0.0, "lower": 1}, (0, 1, 2, 4)),
        ("dposv", lapack, (S.copy(order="F"), b), {"overwrite_a": 1, "overwrite_b": 1},
         (1, 2)),
        ("dpotrf", lapack, (S,), {"lower": 1}, (0, 1)),
        ("dpotrf", lapack, (S,), {}, (0, 1)),
        ("dpotrf", lapack, (S.copy(),), {"lower": 1, "clean": 0, "overwrite_a": 1}, (0, 1)),
        ("dpotrf", lapack, (S.copy(order="F"),), {"lower": 1, "clean": 0, "overwrite_a": 1},
         (0, 1)),
        ("dpotrs", lapack, (factor, b), {"lower": 1}, (0, 1)),
        ("dpotrs", lapack, (factor, B), {"lower": 1}, (0, 1)),
        ("dsyrk", blas, (1.0, F.T[:, :5]),
         {"beta": 1.0, "c": S.copy(order="F"), "trans": 0, "lower": 1, "overwrite_c": 1}, ()),
        ("dgeqrt", lapack, (4, np.asfortranarray(F)), {"overwrite_a": 1}, (0, 2)),
        ("dtrmm", blas, (1.0, L.T, K.T), {"overwrite_b": 1}, ()),
    ]


def _read(out, indices):
    """The outputs the package reads: all of a bare array, else those at
    ``indices``; of dsyevr's w and z the first m."""
    if not isinstance(out, tuple):
        return [out]
    if len(out) == 5:  # dsyevr: w, z, m, isuppz, info
        m = out[2]
        out = (out[0][:m], out[1][:, :m], *out[2:])
    return [out[i] for i in indices]


def _assert_same(ours, theirs, name):
    assert len(ours) == len(theirs), name
    for a, b in zip(ours, theirs):
        assert np.array_equal(a, b), name
        assert np.asarray(a).dtype == np.asarray(b).dtype or np.isscalar(a), name


def _copy(args, kwargs):
    """Fresh copies of the arrays in a call, as overwrite flags let a routine
    write into them."""
    def fresh(x):
        return x.copy(order="K") if isinstance(x, np.ndarray) else x
    return [fresh(a) for a in args], {k: fresh(v) for k, v in kwargs.items()}


def test_routines_match_scipy_public_wrappers_bit_for_bit():
    rng = np.random.default_rng(0)
    calls = _calls(rng)
    assert {name for name, *_ in calls} == NAMES
    for name, public, args, kwargs, indices in calls:
        a, k = _copy(args, kwargs)
        ours = getattr(_lapack, name)(*a, **k)
        a, k = _copy(args, kwargs)
        theirs = getattr(public, name)(*a, **k)
        _assert_same(_read(ours, indices), _read(theirs, indices), name)


def _prepared(module, rng):
    """(ours, SciPy's) for the loop's calls: dsyevr through a Syevr loaded
    with a matrix, and dposv through a Posv whose leading block of order 4
    of 6 holds a system, against SciPy's wrappers on the arrays."""
    sym, S, b = _spd(rng, 6) - 8.0 * np.eye(6), _spd(rng, 4), rng.normal(size=4)
    options = {"compute_v": 1, "range": "V", "vl": -np.inf, "vu": 0.0, "lower": 1}
    plan = module.Syevr(6, **options)
    plan.a[...] = sym
    system = module.Posv(6)
    A, x = system.block(4)
    A[...], x[...] = S, b
    return [("dsyevr", _read(module.dsyevr(plan), (0, 1, 2, 4)),
             _read(lapack.dsyevr(sym, **options), (0, 1, 2, 4))),
            ("dposv", _read(module.dposv(system), (1, 2)),
             _read(lapack.dposv(S, b), (1, 2)))]


def test_prepared_calls_match_scipy_public_wrappers_bit_for_bit():
    for name, ours, theirs in _prepared(_lapack, np.random.default_rng(4)):
        _assert_same(ours, theirs, name)


def test_data_pointer_read_from_the_array_struct():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(7, 5))
    for x in (a, a.T, a[2:, 1:], np.asfortranarray(a), a[:, 3], np.empty(0)):
        assert _lapack._data(x).value == x.ctypes.data


def test_bundled_library_is_numpys_when_numpy_bundles_one():
    libs = sorted(Path(np.__file__).parent.parent.glob("numpy.libs/libscipy_openblas64_*"))
    libs += sorted(Path(np.__file__).parent.glob(".dylibs/libscipy_openblas64_*"))
    if not libs:
        pytest.skip("this NumPy bundles no ILP64 OpenBLAS")
    assert _lapack.LIBRARY == libs[0]


@pytest.mark.skipif(_lapack.LIBRARY is None, reason="the routines are SciPy's")
def test_wrappers_work_in_place_as_f2py_does():
    rng = np.random.default_rng(1)
    S, b = _spd(rng, 5), rng.normal(size=5)
    # A writeable Fortran-ordered float64 array is used in place when the
    # overwrite flag allows.
    A, x = S.copy(order="F"), b.copy()
    c, y, info = _lapack.dposv(A, x, overwrite_a=1, overwrite_b=1)
    assert info == 0 and c is A and y is x
    # Any other input is copied and left as it was: C order, a read-only
    # array, integers, a list, or no overwrite flag.
    ro = S.copy(order="F")
    ro.flags.writeable = False
    for a in (S.copy(), ro, np.eye(5, dtype=np.int64), np.eye(5).tolist()):
        before = np.array(a)
        c, info = _lapack.dpotrf(a, lower=1, overwrite_a=1)
        assert info == 0 and c is not a and c.flags.f_contiguous
        assert np.array_equal(np.array(a), before)
    A = S.copy(order="F")
    assert _lapack.dpotrf(A, lower=1)[0] is not A and np.array_equal(A, S)
    # dsyevr copies its input and reads one triangle only.
    M = S - 6.0 * np.eye(5)
    w, z, m, _, info = _lapack.dsyevr(np.tril(M), range="V", vl=-np.inf, vu=0.0, lower=1)
    ref = lapack.dsyevr(M, range="V", vl=-np.inf, vu=0.0, lower=1)
    assert info == 0 and m == ref[2] and 0 < m < 5
    assert w.shape == (m,) and z.shape == (5, m) and z.flags.f_contiguous
    assert np.array_equal(w, ref[0][:m]) and np.array_equal(z, ref[1][:, :m])


@pytest.mark.skipif(_lapack.LIBRARY is None, reason="the routines are SciPy's")
def test_shapes_that_do_not_fit_raise_before_any_call():
    with pytest.raises(ValueError):
        _lapack.dposv(np.eye(3), np.ones(4))
    with pytest.raises(ValueError):
        _lapack.dposv(np.ones((3, 4)), np.ones(3))
    with pytest.raises(ValueError):
        _lapack.dpotrs(np.eye(3), np.ones((2, 2)))
    with pytest.raises(ValueError):
        _lapack.dpotrf(np.ones((2, 3)))
    with pytest.raises(ValueError):
        _lapack.dsyevr(np.ones((2, 3)))
    with pytest.raises(ValueError):
        _lapack.dtrmm(1.0, np.eye(3), np.ones((4, 2)))
    with pytest.raises(ValueError):
        _lapack.dsyrk(1.0, np.ones((3, 2)), c=np.eye(2))


def test_failed_discovery_falls_back_to_scipys_modules(tmp_path, monkeypatch):
    """With no bundled library to find, a fresh copy of the module takes the
    routines from SciPy's compiled modules (dsyevr and dposv call them,
    taking a Syevr or a Posv too), and they give the public wrappers'
    results in full."""
    monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    spec = importlib.util.spec_from_file_location("lapack_fallback", _lapack.__file__)
    fallback = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fallback)
    assert fallback.LIBRARY is None
    for name, public, args, kwargs, _ in _calls(np.random.default_rng(3)):
        ours = getattr(fallback, name)
        assert type(ours).__name__ == "fortran" or name in ("dsyevr", "dposv"), name
        a, k = _copy(args, kwargs)
        out = ours(*a, **k)
        a, k = _copy(args, kwargs)
        ref = getattr(public, name)(*a, **k)
        out, ref = (out, ref) if isinstance(out, tuple) else ((out,), (ref,))
        _assert_same(out, ref, name)
    for name, out, ref in _prepared(fallback, np.random.default_rng(4)):
        _assert_same(out, ref, name)


def test_discovery_skips_a_library_without_the_routines(tmp_path):
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    other = sorted(libs.glob("libquadmath*")) if libs.is_dir() else []
    if not other:
        pytest.skip("this NumPy bundles no library to stand in")
    (tmp_path / "numpy.libs").mkdir()
    shutil.copy(other[0], tmp_path / "numpy.libs" / "libscipy_openblas64_-stand-in.so")
    (tmp_path / "numpy.libs" / "libscipy_openblas64_-empty.so").write_bytes(b"")
    assert _lapack._bundled_openblas(tmp_path / "numpy") is None
