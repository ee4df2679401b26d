"""The seven LAPACK and BLAS routines the package calls, loaded without
importing ``scipy.linalg``.

SciPy's wrappers ``scipy.linalg.lapack.dpotrf`` and the like are the
functions of its compiled f2py modules ``_flapack`` and ``_fblas``, but
importing them through ``scipy.linalg`` runs that package's ``__init__``,
which imports about 300 more modules. On Linux x86_64 with one BLAS thread
(NumPy 2.4, SciPy 1.17) that took ``import gnystrom`` to a peak of 57.2 MiB
resident (``ru_maxrss``); loading the two modules straight from their files
takes it to 34.2 MiB, in about half the start-up time. NumPy alone takes
26.8 MiB.

Only the top-level ``scipy`` package is imported (about 1.3 MiB), so SciPy's
own start-up runs, which on some platforms registers the directory of its
bundled BLAS. The routines are the same compiled functions, linked against
the same library, so every result is bit-identical to SciPy's public
wrappers. CPython keeps each module under its full name
(``scipy.linalg._flapack``) in ``sys.modules`` and in its cache of extension
modules, so in one process this module and ``scipy.linalg``, imported before
or after, share the same function objects; ``scipy.linalg`` itself is never
imported here.
"""

from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_loader
from pathlib import Path

import scipy


def _load(directory, name):
    """Load SciPy's compiled module ``name`` from ``directory``."""
    for suffix in EXTENSION_SUFFIXES:
        path = directory / f"{name}{suffix}"
        if path.is_file():
            loader = ExtensionFileLoader(f"scipy.linalg.{name}", str(path))
            module = module_from_spec(spec_from_loader(loader.name, loader))
            loader.exec_module(module)
            return module
    raise ImportError(f"SciPy's compiled module {name} is not in {directory}")


_LINALG = Path(scipy.__file__).parent / "linalg"
_flapack = _load(_LINALG, "_flapack")
_fblas = _load(_LINALG, "_fblas")

dposv, dpotrf, dpotrs, dsyevr, dgeqrt = (
    _flapack.dposv, _flapack.dpotrf, _flapack.dpotrs, _flapack.dsyevr, _flapack.dgeqrt)
dtrmm, dsyrk = _fblas.dtrmm, _fblas.dsyrk
