"""The seven LAPACK and BLAS routines the package calls, bound with
:mod:`ctypes` in the OpenBLAS that NumPy has already loaded.

NumPy's wheels bundle one OpenBLAS, ``libscipy_openblas64_*`` in
``numpy.libs/`` (``numpy/.dylibs/`` on macOS), which runs every ``@``,
``eigh`` and ``qr``. This module assumes what that build's name says: it
uses 64-bit integers (ILP64), and it exports the Fortran routines under a
``scipy_`` prefix and a ``64_`` suffix (``scipy_dsyevr_64_``). It loads the
first such file whose symbols are all there (the seven, and ``dlaset``,
which zeroes the triangle ``dpotrf`` leaves), which is the object NumPy
loaded, so a process maps one OpenBLAS and never imports SciPy. On Linux
x86_64 with one BLAS thread (NumPy 2.4, SciPy 1.17) that took
``import gnystrom`` from a peak of 34.1 MiB resident (``ru_maxrss``), with
SciPy's ``_flapack`` and ``_fblas`` and their second OpenBLAS, to 28.9 MiB;
NumPy alone takes 26.8 MiB (``tools/import_cost.py`` measures it).

Each wrapper takes the arguments and returns the values of SciPy's f2py
wrapper of the same name (``scipy.linalg.lapack.dsyevr`` and so on), for the
keywords the package passes, and like it holds the GIL for the call. Arrays
reach Fortran as f2py hands them: in place when an ``overwrite_*`` flag
allows and the array already is a writeable, aligned, Fortran-ordered
float64 one, else as such a copy. ``dsyevr`` gets f2py's workspace sizes
(``lwork = 26 n``, ``liwork = 10 n``), which set dsytrd's block size, and
returns its m eigenpairs only. So every output the package reads has the
bits SciPy's wrapper would give with the same library. SciPy's own OpenBLAS
(0.3.30 next to NumPy's 0.3.31 here) gives other last bits in ``dpotrf``'s
factors: its unblocked Cholesky sums with ``ddot``, whose strided kernel
rounds differently in the two releases.

The solver's loop runs ``dsyevr`` (order m) and ``dposv`` (order up to 10)
once per iteration. Inside select-moons units a wrapper that checks and
converts its arguments in Python took 3 to 5 us a call beyond LAPACK's own
work, against 1 to 2 us for f2py's C, and made the fit about 5% slower.
So the loop holds a :class:`Syevr` and a :class:`Posv`, which keep a
routine's arrays and build every argument once, and passes them to
:func:`dsyevr` and :func:`dposv` in place of the arrays. The other calls
read an array's data address from NumPy's array struct, whose first field
after the object header is that pointer (``PyArray_DATA``), at a fourth of
the cost of the buffer protocol; the module checks that layout on an array
before it uses the library. The functions declare no ``argtypes``, which
would double the cost of a call: every argument is already a pointer, a
64-bit integer or a double passed by reference, or a one-byte ``bytes``
character. Like SciPy's wrappers, they pass no hidden lengths for the
character arguments, which LAPACK declares one long.

Where NumPy bundles no such library (conda and distribution builds, or
Accelerate on macOS arm64), it lacks one of the symbols, or NumPy's array
struct is not laid out as above, the routines are SciPy's: its compiled
modules ``_flapack`` and ``_fblas`` loaded straight from their files. That
skips ``scipy.linalg``'s ``__init__``, about 300 more modules (57.2 MiB
against 34.1 MiB for ``import gnystrom`` on the machine above); only the
top-level ``scipy`` package is imported, so SciPy's own start-up runs, which
on some platforms registers the directory of its bundled BLAS.
"""

import ctypes
from functools import lru_cache
from pathlib import Path

import numpy as np

_ROUTINES = ("dposv", "dpotrf", "dpotrs", "dsyevr", "dgeqrt", "dtrmm", "dsyrk")


def _bundled_openblas(numpy_dir):
    """(path, {name: function}) of the ILP64 OpenBLAS bundled with the NumPy
    installed in ``numpy_dir``, or None if there is none or it lacks one of
    the routines."""
    for path in sorted([*numpy_dir.parent.glob("numpy.libs/libscipy_openblas64_*"),
                        *numpy_dir.glob(".dylibs/libscipy_openblas64_*")]):
        try:
            library = ctypes.PyDLL(str(path))
            functions = {name: getattr(library, f"scipy_{name}_64_")
                         for name in (*_ROUTINES, "dlaset")}
        except (OSError, AttributeError):
            continue
        for function in functions.values():
            function.restype = None
        return path, functions
    return None


def _scipy_routines():
    """The seven routines from SciPy's compiled modules, loaded from their
    files without importing ``scipy.linalg``."""
    from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
    from importlib.util import module_from_spec, spec_from_loader

    import scipy

    def load(name):
        directory = Path(scipy.__file__).parent / "linalg"
        for suffix in EXTENSION_SUFFIXES:
            path = directory / f"{name}{suffix}"
            if path.is_file():
                loader = ExtensionFileLoader(f"scipy.linalg.{name}", str(path))
                module = module_from_spec(spec_from_loader(loader.name, loader))
                loader.exec_module(module)
                return module
        raise ImportError(f"SciPy's compiled module {name} is not in {directory}")

    flapack, fblas = load("_flapack"), load("_fblas")
    return {name: getattr(fblas if name in ("dtrmm", "dsyrk") else flapack, name)
            for name in _ROUTINES}


# NumPy's array struct holds the data pointer right after the object header
# (PyArrayObject_fields).
_DATA_OFFSET = object.__basicsize__
_pointer_at = ctypes.c_void_p.from_address


def _data(a):
    """The data pointer of the ndarray ``a``, passed by value. It is read
    from ``a``'s struct when passed, so the caller keeps ``a`` alive."""
    return _pointer_at(id(a) + _DATA_OFFSET)


def _layout_holds():
    probe = np.empty(3)
    return _data(probe).value == probe.ctypes.data


# The bundled library's path, or None where the routines are SciPy's, and
# the functions by name.
LIBRARY, _f = (_layout_holds() and _bundled_openblas(Path(np.__file__).parent)) or (None, None)
_scipy = _scipy_routines() if _f is None else None

_UPLO = (b"U", b"L")
_JOBZ = (b"N", b"V")
_FLOAT64 = np.dtype(np.float64)
# NPY_ARRAY_F_CONTIGUOUS | NPY_ARRAY_ALIGNED | NPY_ARRAY_WRITEABLE.
_FORTRAN_BEHAVED = 0x0502


@lru_cache(maxsize=256)
def _int(value):
    """A 64-bit integer passed by reference. LAPACK only reads it, so one
    object serves every call and thread."""
    return ctypes.byref(ctypes.c_int64(value))


def _real(value):
    return ctypes.byref(ctypes.c_double(value))


_ONE, _ZERO = _int(1), _real(0.0)
# dsyevr's isuppz for range "V", which LAPACK does not write.
_NO_SUPPORT = np.zeros(0, np.int64)
_NO_SUPPORT.flags.writeable = False


def _fortran(a, in_place):
    """The array f2py hands Fortran for ``a``: ``a`` itself when
    ``in_place`` is set and it is a writeable, aligned, Fortran-ordered
    float64 array (of NumPy's own float64 dtype object), else a
    Fortran-ordered float64 copy."""
    if (in_place and type(a) is np.ndarray and a.dtype is _FLOAT64
            and a.flags.num & _FORTRAN_BEHAVED == _FORTRAN_BEHAVED):
        return a
    return np.array(a, dtype=np.float64, order="F")


def _square(a, name):
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    return a.shape[0]


class Syevr:
    """dsyevr made ready for symmetric matrices of order n and one choice of
    :func:`dsyevr`'s options: the input ``a`` (Fortran order), which a call
    decomposes and destroys, and the outputs, the workspaces and every
    argument, 2 n^2 + 39 n words, made once. ``dsyevr(plan)`` returns what
    :func:`dsyevr` returns, as views of the plan's own arrays, which its
    next call overwrites."""

    def __init__(self, n, compute_v=1, range="A", lower=0, vl=0.0, vu=1.0):
        self.compute_v, self.range = compute_v, range
        if _f is None:
            self.a = np.empty((n, n), order="F")
            self.options = {"compute_v": compute_v, "range": range, "lower": lower,
                            "vl": vl, "vu": vu}
            return
        nn, lwork, liwork = n * n, max(1, 26 * n), max(1, 10 * n)
        floats, ints = np.empty(2 * nn + n + lwork), np.zeros(2 * n + liwork, np.int64)
        self.a = floats[:nn].reshape((n, n), order="F")
        self.z = floats[nn:2 * nn].reshape((n, n), order="F")
        self.w = floats[2 * nn:2 * nn + n]
        # Written only when all eigenpairs are asked for.
        self.isuppz = ints[:2 * n]
        self.m, self.info = ctypes.c_int64(), ctypes.c_int64()
        f, i = _data(floats).value, _data(ints).value
        order, ld = _int(n), _int(max(1, n))
        self.args = (_JOBZ[compute_v], range.encode(), _UPLO[lower], order,
                     ctypes.c_void_p(f), ld, _real(vl), _real(vu), _ONE, order, _ZERO,
                     ctypes.byref(self.m), ctypes.c_void_p(f + 16 * nn),
                     ctypes.c_void_p(f + 8 * nn), ld, ctypes.c_void_p(i),
                     ctypes.c_void_p(f + 8 * (2 * nn + n)), _int(lwork),
                     ctypes.c_void_p(i + 16 * n), _int(liwork), ctypes.byref(self.info))
        # The arguments hold bare addresses: keep the blocks alive.
        self.blocks = floats, ints

    def __call__(self):
        if _f is None:
            return _scipy["dsyevr"](self.a, **self.options)
        _f["dsyevr"](*self.args)
        m = self.m.value
        return (self.w[:m], self.z[:, :m if self.compute_v else 0], m,
                _NO_SUPPORT if self.range == "V" else self.isuppz, self.info.value)


def dsyevr(a, compute_v=1, range="A", lower=0, vl=0.0, vu=1.0):
    """(w, z, m, isuppz, info): the m eigenvalues of the symmetric ``a`` in
    the set ``range`` names ("A" all, "V" those in (vl, vu]), ascending in
    w, and their eigenvectors in the columns of z. SciPy's wrapper returns
    n of each, zero beyond m; these w and z hold the m, so ``w[:m]`` and
    ``z[:, :m]`` read the same bits. isuppz is empty for range "V", as
    there. ``a`` is copied, and only its ``lower`` or upper triangle read.
    A :class:`Syevr` in place of ``a`` runs with its own options."""
    if type(a) is Syevr:
        return a()
    if _f is None:
        return _scipy["dsyevr"](a, compute_v=compute_v, range=range, lower=lower, vl=vl, vu=vu)
    a = np.asarray(a)
    plan = Syevr(_square(a, "a"), compute_v, range, lower, vl, vu)
    plan.a[...] = a
    w, z, m, isuppz, info = plan()
    return w.copy(), z.copy(order="F"), m, isuppz.copy(), info


class Posv:
    """dposv made ready for systems of order up to ``capacity``: buffers of
    that order (``a`` in Fortran order) whose leading block of the order
    :meth:`block` last set holds the system, and every argument, made once.
    ``dposv(system)`` factors the block in place, its upper triangle read
    as dposv's default, solves for its right-hand side in place, and returns
    (c, x, info) as :func:`dposv` does, views of the buffers. The leading
    dimension does not change the bits: dposv gave the same ones at leading
    dimension 10 as at the order, on 3,148 systems of order 1 to 10 (the
    Anderson systems of two select-moons units among them)."""

    def __init__(self, capacity):
        a, b = np.zeros((capacity, capacity), order="F"), np.zeros(capacity)
        self.blocks = [(a[:n, :n], b[:n], _int(n)) for n in range(capacity + 1)]
        self.n = capacity
        if _f is not None:
            self.info = ctypes.c_int64()
            ld = _int(max(1, capacity))
            self.args = (ctypes.c_void_p(_data(a).value), ld, ctypes.c_void_p(_data(b).value),
                         ld, ctypes.byref(self.info))

    def block(self, n):
        """(a, b): the views of order n, which the next call solves."""
        self.n = n
        return self.blocks[n][:2]

    def __call__(self):
        a, b, order = self.blocks[self.n]
        if _f is None:
            return _scipy["dposv"](a, b, overwrite_a=1, overwrite_b=1)
        _f["dposv"](b"U", order, _ONE, *self.args)
        return a, b, self.info.value


def dposv(a, b=None, lower=0, overwrite_a=0, overwrite_b=0):
    """(c, x, info): the Cholesky factor c of the symmetric positive
    definite ``a`` and the solution x of a x = b. A :class:`Posv` in place
    of ``a`` solves the system it holds."""
    if type(a) is Posv:
        return a()
    if _f is None:
        return _scipy["dposv"](a, b, lower=lower, overwrite_a=overwrite_a, overwrite_b=overwrite_b)
    return _solve("dposv", a, b, lower, overwrite_a, overwrite_b)


def dpotrs(c, b, lower=0, overwrite_b=0):
    """(x, info): the solution of a x = b from the Cholesky factor c of a,
    which is only read."""
    return _solve("dpotrs", c, b, lower, 1, overwrite_b)[1:]


def _solve(routine, a, b, lower, overwrite_a, overwrite_b):
    """dposv or dpotrs, whose arguments are alike: (a, x, info)."""
    a, b = _fortran(a, overwrite_a), _fortran(b, overwrite_b)
    n = a.shape[0]
    if a.shape != (n, n) or b.ndim not in (1, 2) or b.shape[0] != n:
        raise ValueError(f"a of shape {a.shape} and b of shape {b.shape} "
                         "do not form a linear system")
    ld, info = _int(max(1, n)), ctypes.c_int64()
    _f[routine](_UPLO[lower], _int(n), _ONE if b.ndim == 1 else _int(b.shape[1]),
                _data(a), ld, _data(b), ld, ctypes.byref(info))
    return a, b, info.value


def dpotrf(a, lower=0, clean=1, overwrite_a=0):
    """(c, info): the Cholesky factor of the symmetric positive definite
    ``a`` in its ``lower`` or upper triangle; ``clean`` zeroes the other."""
    c = _fortran(a, overwrite_a)
    n = _square(c, "a")
    ld, info = _int(max(1, n)), ctypes.c_int64()
    _f["dpotrf"](_UPLO[lower], _int(n), _data(c), ld, ctypes.byref(info))
    if clean and n > 1:
        # The other triangle is the upper (lower) one, diagonal included, of
        # the order n - 1 block one column right (one row down).
        corner = ctypes.c_void_p(_data(c).value + 8 * (n if lower else 1))
        _f["dlaset"](_UPLO[not lower], _int(n - 1), _int(n - 1), _ZERO, _ZERO, corner, ld)
    return c, info.value


def dgeqrt(nb, a, overwrite_a=0):
    """(a, t, info): the blocked Householder QR of ``a`` with block size nb,
    R and the reflectors in ``a`` and the block reflectors' triangular
    factors in t."""
    a = _fortran(a, overwrite_a)
    m, n = a.shape
    t, work = np.zeros((nb, min(m, n)), order="F"), np.empty(max(1, nb * n))
    info = ctypes.c_int64()
    _f["dgeqrt"](_int(m), _int(n), _int(nb), _data(a), _int(max(1, m)), _data(t),
                 _int(max(1, nb)), _data(work), ctypes.byref(info))
    return a, t, info.value


def dtrmm(alpha, a, b, overwrite_b=0):
    """alpha a b for the upper triangle of ``a`` (SciPy's defaults: a on the
    left, not transposed, its diagonal read), written over a copy of b or,
    with ``overwrite_b``, b."""
    a, b = _fortran(a, True), _fortran(b, overwrite_b)
    m, n = b.shape
    if a.ndim != 2 or a.shape[1] != m or a.shape[0] < m:
        raise ValueError(f"triangular factor of shape {a.shape} does not match {b.shape}")
    _f["dtrmm"](b"L", b"U", b"N", b"N", _int(m), _int(n), _real(alpha), _data(a),
                _int(max(1, a.shape[0])), _data(b), _int(max(1, m)))
    return b


def dsyrk(alpha, a, beta=0.0, c=None, trans=0, lower=0, overwrite_c=0):
    """alpha a a^T + beta c (``trans`` 0) or alpha a^T a + beta c, in the
    ``lower`` or upper triangle of a copy of c or, with ``overwrite_c``, c."""
    a = _fortran(a, True)
    n, k = a.shape[::-1] if trans else a.shape
    c = np.zeros((n, n), order="F") if c is None else _fortran(c, overwrite_c)
    if c.shape != (n, n):
        raise ValueError(f"c of shape {c.shape} does not match a of shape {a.shape}")
    _f["dsyrk"](_UPLO[lower], b"T" if trans else b"N", _int(n), _int(k), _real(alpha),
                _data(a), _int(max(1, a.shape[0])), _real(beta), _data(c), _int(max(1, n)))
    return c


if _f is None:
    dpotrf, dpotrs, dgeqrt, dtrmm, dsyrk = (_scipy[name] for name in
                                            ("dpotrf", "dpotrs", "dgeqrt", "dtrmm", "dsyrk"))
