"""The four LAPACK routines chemofront calls, bound from SciPy's f2py
extension ``scipy.linalg._flapack`` without importing ``scipy.linalg``.

The package ``__init__`` of ``scipy.linalg`` loads SciPy's array-API layer,
and with it ``numpy.f2py``, ``numpy.testing``, ``numpy.random`` and
``numpy.ma``, none of which the solvers use; the extension itself needs only
numpy.  It is found beside ``scipy.linalg``'s ``__init__`` (where SciPy >=
1.12 puts it) and registered in ``sys.modules`` under its own name, so a
later ``import scipy.linalg`` in the same process reuses it: these are the
same function objects that ``scipy.linalg.lapack`` exports.
"""

from __future__ import annotations

import os
import sys
from importlib.machinery import PathFinder
from importlib.util import module_from_spec

import scipy

_NAME = "scipy.linalg._flapack"


def _load_flapack():
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    path = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    # with an explicit path the finder does not import the parent package
    spec = PathFinder.find_spec(_NAME, [path])
    if spec is None:
        raise ImportError(f"{_NAME} not found in {path}", name=_NAME, path=path)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_NAME] = module
    return module


_flapack = _load_flapack()
dgttrf, dgttrs, dpttrf, dpttrs = _flapack.dgttrf, _flapack.dgttrs, _flapack.dpttrf, _flapack.dpttrs
