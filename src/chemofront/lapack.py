"""The tridiagonal LAPACK solves chemofront makes: pttrf/pttrs for symmetric
positive definite matrices, gttrf/gttrs for general ones.

* :func:`pttrf` factors (d, e) and returns the factors;
* :func:`pt_solver` binds factors and returns a solve that overwrites its
  right-hand side, on the whole matrix or any leading block of it;
* :func:`gt_solver` factors a general tridiagonal matrix once and returns a
  solve that leaves its right-hand side alone.

Each factorization binds its arrays once, so a solve passes LAPACK only its
right-hand side.  Every call checks dtype, contiguity, writability and
lengths before LAPACK sees an array, and raises ``LinAlgError`` on a nonzero
LAPACK status.

The routines are called through ctypes at their addresses by one binding,
:class:`Routines`; only where the addresses come from, and the width of the
LAPACK INTEGER there, depend on what numpy reports about itself at import:

* numpy's own OpenBLAS, when ``numpy.__config__.CONFIG`` names a
  ``scipy-openblas`` LAPACK built with ``USE64BITINT`` and the library is in
  ``numpy.libs`` (numpy >= 2 wheels on Linux).  ``import numpy`` has already
  mapped it; the routines are its ``scipy_<routine>_64_`` symbols, and every
  INTEGER, ``ipiv`` included, is int64.  A process then maps one OpenBLAS
  and starts one thread pool.
* SciPy's f2py extension ``scipy.linalg._flapack`` everywhere else (numpy
  1.x, numpy built against another LAPACK): the addresses its own wrappers
  call, read from each routine's ``_cpointer`` capsule, with int32
  INTEGERs.  The extension is loaded without importing ``scipy.linalg``,
  whose package ``__init__`` loads SciPy's array-API layer and with it
  ``numpy.f2py``, ``numpy.testing``, ``numpy.random`` and ``numpy.ma``.  It
  is found beside ``scipy.linalg``'s ``__init__`` (where SciPy >= 1.12 puts
  it) and registered in ``sys.modules`` under its own name, so a later
  ``import scipy.linalg`` reuses it.

Both run the same reference LAPACK code; tests/test_lapack.py checks that
they give bitwise the same factors and solutions as ``scipy.linalg.lapack``.
"""

from __future__ import annotations

import ctypes
import glob
import os
import sys
from importlib.machinery import PathFinder
from importlib.util import module_from_spec

import numpy as np
from numpy import __config__ as numpy_config

_NAME = "scipy.linalg._flapack"
_F64 = np.dtype(np.float64)


def _load_flapack():
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    import scipy

    path = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    # with an explicit path the finder does not import the parent package
    spec = PathFinder.find_spec(_NAME, [path])
    if spec is None:
        raise ImportError(f"{_NAME} not found in {path}", name=_NAME, path=path)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_NAME] = module
    return module


def vendored_openblas64(config: dict | None, libs: str) -> str | None:
    """The path of numpy's own ILP64 scipy-openblas when `config` (numpy's
    ``__config__.CONFIG``, absent before numpy 1.26) names one and `libs`
    holds it; None otherwise."""
    lapack = (config or {}).get("Build Dependencies", {}).get("lapack", {})
    if lapack.get("name") != "scipy-openblas":
        return None
    if "USE64BITINT" not in lapack.get("openblas configuration", ""):
        return None
    found = sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")))
    return found[0] if found else None


def _pointer(a: np.ndarray, ctype=ctypes.c_double):
    """A pointer to `a`'s data that holds a reference to `a`.  ``from_buffer``
    costs a quarter of ``a.ctypes``, but refuses a read-only array."""
    try:
        return ctypes.byref(ctype.from_buffer(a))
    except TypeError:
        return a.ctypes.data_as(ctypes.c_void_p)


# the routines' arguments, every one a pointer but for dgttrs's hidden CHARACTER length:
# dpttrf  N, D, E, INFO
# dpttrs  N, NRHS, D, E, B, LDB, INFO
# dgttrf  N, DL, D, DU, DU2, IPIV, INFO
# dgttrs  TRANS, N, NRHS, DL, D, DU, DU2, IPIV, B, LDB, INFO, len(TRANS)
_ROUTINES = ("dpttrf", "dpttrs", "dgttrf", "dgttrs")


class Routines:
    """The four routines of `_ROUTINES` called through ctypes at their
    addresses; every INTEGER, ``ipiv`` included, is of the source's ctypes
    type `integer`.  A bound solve reuses its own N and INFO, so it must not
    run in two threads at once."""

    def __init__(self, addresses: dict[str, int], integer):
        # numpy converts a ctypes type to a dtype in Python, at each call
        self.integer, self.ipiv_dtype = integer, np.dtype(integer)
        for name in _ROUTINES:
            # no argtypes: each argument is made here as a ctypes pointer, b"N"
            # or a c_size_t, and argtypes would convert all again, ~0.7 us a call
            setattr(self, name, ctypes.CFUNCTYPE(None)(addresses[name]))

    @classmethod
    def numpy_openblas64(cls, path: str) -> Routines:
        """The ``scipy_<routine>_64_`` symbols of numpy's ILP64 OpenBLAS at
        `path`, with int64 INTEGERs."""
        lib = ctypes.CDLL(path)  # already mapped by numpy: no second copy
        symbols = {name: getattr(lib, f"scipy_{name}_64_") for name in _ROUTINES}
        return cls({name: ctypes.cast(f, ctypes.c_void_p).value for name, f in symbols.items()}, ctypes.c_int64)

    @classmethod
    def scipy_flapack(cls) -> Routines:
        """The LP64 routines SciPy's f2py extension calls, at the addresses its
        ``_cpointer`` capsules hold, with int32 INTEGERs."""
        flapack, api = _load_flapack(), ctypes.pythonapi
        # private prototypes: argtypes set on ctypes.pythonapi would be every module's
        name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
        address = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(("PyCapsule_GetPointer", api))
        capsules = {routine: getattr(flapack, routine)._cpointer for routine in _ROUTINES}
        return cls({routine: address(capsule, name(capsule)) for routine, capsule in capsules.items()}, ctypes.c_int32)

    def pttrf(self, d, e):
        info = self.integer()
        self.dpttrf(ctypes.byref(self.integer(d.size)), _pointer(d), _pointer(e), ctypes.byref(info))
        return d, e, info.value

    def bind_pttrs(self, d, e):
        dpttrs, byref, double = self.dpttrs, ctypes.byref, ctypes.c_double
        n, info = self.integer(), self.integer()
        # N is also LDB, the leading dimension of the one-column B
        n_ref, one_ref, info_ref = byref(n), byref(self.integer(1)), byref(info)
        d_ptr, e_ptr = _pointer(d), _pointer(e)

        def pttrs(b):
            n.value = b.size
            dpttrs(n_ref, one_ref, d_ptr, e_ptr, byref(double.from_buffer(b)), n_ref, info_ref)
            return info.value

        return pttrs

    def gttrf(self, dl, d, du):
        """Factor (dl, d, du) in place; returns du2, ipiv, the status and the
        gttrs solve bound to the same pointers, which overwrites its
        right-hand side and returns its status."""
        dgttrs, byref, double = self.dgttrs, ctypes.byref, ctypes.c_double
        du2, ipiv, info = np.empty(d.size - 2), np.empty(d.size, self.ipiv_dtype), self.integer()
        n_ref, info_ref = byref(self.integer(d.size)), byref(info)
        factors = (*map(_pointer, (dl, d, du, du2)), _pointer(ipiv, self.integer))
        self.dgttrf(n_ref, *factors, info_ref)
        head = (b"N", n_ref, byref(self.integer(1)), *factors)
        tail = (n_ref, info_ref, ctypes.c_size_t(1))  # LDB = N, then TRANS's length

        def gttrs(b):
            dgttrs(*head, byref(double.from_buffer(b)), *tail)
            return info.value

        return du2, ipiv, info.value, gttrs


def _numpy_openblas64() -> str | None:
    """The path of the ILP64 OpenBLAS this process's numpy vendors, if any."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    return vendored_openblas64(getattr(numpy_config, "CONFIG", None), libs)


def _select_routines():
    path = _numpy_openblas64()
    return Routines.numpy_openblas64(path) if path else Routines.scipy_flapack()


_routines = _select_routines()

_FACTOR_FAILURES = {
    "dpttrf": "tridiagonal matrix is not positive definite",
    "dgttrf": "singular tridiagonal system",
}


def _status_error(routine: str, info: int) -> np.linalg.LinAlgError:
    """The error of a nonzero LAPACK status."""
    if info < 0:
        return np.linalg.LinAlgError(f"LAPACK {routine} refused argument {-info} (info {info})")
    return np.linalg.LinAlgError(f"{_FACTOR_FAILURES.get(routine, 'failed')} (LAPACK {routine} info {info})")


def _fresh_vector(values, name: str) -> np.ndarray:
    """A float64 copy of `values`, which LAPACK may overwrite."""
    vector = np.array(values, dtype=np.float64)
    if vector.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, not of shape {vector.shape}")
    return vector


def _check_bands(least: int, main: np.ndarray, *offs: np.ndarray) -> None:
    """Refuse bands of the wrong lengths or of an order under `least`.  LAPACK
    takes any n >= 1, but `_pointer` cannot point at an empty band: pt needs
    n >= 2 for a nonempty e, gt n >= 3 for a nonempty du2 (n - 2 entries)."""
    if main.size < least or any(off.size != main.size - 1 for off in offs):
        sizes = ", ".join(str(off.size) for off in offs)
        raise ValueError(
            f"a tridiagonal matrix of order n >= {least} takes off-diagonals of n - 1 entries, "
            f"not order {main.size} with {sizes}"
        )


def pttrf(d, e) -> tuple[np.ndarray, np.ndarray]:
    """The L D L^T factors of the symmetric positive definite tridiagonal
    matrix with diagonal `d` and off-diagonal `e`, as new arrays (LAPACK
    pttrf); raises LinAlgError if the matrix is not positive definite."""
    d, e = _fresh_vector(d, "d"), _fresh_vector(e, "e")
    _check_bands(2, d, e)
    d, e, info = _routines.pttrf(d, e)
    if info != 0:
        raise _status_error("dpttrf", info)
    return d, e


def pt_solver(d: np.ndarray, e: np.ndarray):
    """A solve with the L D L^T factors (d, e) of an order-n matrix (LAPACK
    pttrs).  The factors of a leading block are the leading factors, so the
    solve takes any float64 right-hand side of 2 <= k <= n entries, solves
    with the leading k x k block in place and returns it."""
    if d.dtype != _F64 or e.dtype != _F64 or d.ndim != 1 or e.ndim != 1:
        raise ValueError(f"factors are float64 vectors, not {d.dtype} {d.shape} and {e.dtype} {e.shape}")
    if not (d.flags.c_contiguous and e.flags.c_contiguous):
        raise ValueError("factors must be C-contiguous")
    _check_bands(2, d, e)
    n, pttrs = d.size, _routines.bind_pttrs(d, e)

    def solve(b: np.ndarray) -> np.ndarray:
        if b.dtype != _F64 or b.ndim != 1 or not b.flags.carray or not 2 <= b.size <= n:
            raise ValueError(
                f"a pttrs right-hand side is a writable C-contiguous float64 vector of 2 to {n} entries, "
                f"not {b.dtype} of shape {b.shape} (writable {b.flags.writeable}, C-contiguous "
                f"{b.flags.c_contiguous})"
            )
        if (info := pttrs(b)) != 0:
            raise _status_error("dpttrs", info)
        return b

    return solve


def gt_solver(lower, main, upper):
    """Factor the tridiagonal matrix with sub-, main and super-diagonals
    `lower`, `main`, `upper` once (LAPACK gttrf, partial pivoting); returns
    a solve that returns the solution as a new array (LAPACK gttrs).  Raises
    LinAlgError if the matrix is singular."""
    dl, d, du = (_fresh_vector(band, name) for band, name in ((lower, "lower"), (main, "main"), (upper, "upper")))
    _check_bands(3, d, dl, du)
    *_, info, gttrs = _routines.gttrf(dl, d, du)
    if info != 0:
        raise _status_error("dgttrf", info)
    n = d.size

    def solve(b) -> np.ndarray:
        x = _fresh_vector(b, "a gttrs right-hand side")
        if x.size != n:
            raise ValueError(f"a gttrs right-hand side has {n} entries, not {x.size}")
        if (info := gttrs(x)) != 0:
            raise _status_error("dgttrs", info)
        return x

    return solve
