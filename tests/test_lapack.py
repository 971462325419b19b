import itertools

import numpy as np
import pytest
import scipy.linalg.lapack as reference

from chemofront import lapack, spectral
from chemofront.convolve import ExpDriftOperator
from chemofront.lapack import Routines, gt_solver, pt_solver, pttrf

ORDERS = (4, 17, 2401)
NUMPY_OPENBLAS64 = lapack._numpy_openblas64()


@pytest.fixture(params=["numpy-openblas64", "scipy-flapack"])
def source(request, monkeypatch):
    """Each source of the routines in turn, built afresh."""
    if request.param == "scipy-flapack":
        routines = Routines.scipy_flapack()
    elif NUMPY_OPENBLAS64 is None:
        pytest.skip("numpy reports no vendored ILP64 OpenBLAS")
    else:
        routines = Routines.numpy_openblas64(NUMPY_OPENBLAS64)
    monkeypatch.setattr(lapack, "_routines", routines)
    return request.param


def spd_bands(rng, n):
    off = rng.uniform(-1.0, 1.0, n - 1)
    return 2.0 + rng.random(n), off


def general_bands(rng, n):
    # a small diagonal against large off-diagonals makes gttrf pivot
    return rng.standard_normal(n - 1), 0.1 * rng.standard_normal(n), rng.standard_normal(n - 1)


@pytest.mark.parametrize("n", ORDERS)
def test_pt_routines_match_scipys_bitwise(source, n):
    rng = np.random.default_rng(n)
    d, e = spd_bands(rng, n)
    d_in, e_in = d.copy(), e.copy()
    d_ref, e_ref, info = reference.dpttrf(d, e)
    assert info == 0
    factors = pttrf(d, e)
    assert np.array_equal(factors[0], d_ref) and np.array_equal(factors[1], e_ref)
    assert np.array_equal(d, d_in) and np.array_equal(e, e_in)  # the bands are left alone
    solve = pt_solver(*factors)
    for k in sorted({n, n - 1, n // 2 + 1, 2}):  # the whole matrix and leading blocks
        b = rng.standard_normal(k)
        x_ref, info = reference.dpttrs(d_ref[:k], e_ref[: k - 1], b)
        assert info == 0
        x = b.copy()
        assert solve(x) is x
        assert np.array_equal(x, x_ref)


@pytest.mark.parametrize("n", ORDERS)
def test_gt_routines_match_scipys_bitwise(source, n):
    rng = np.random.default_rng(n + 1)
    bands = general_bands(rng, n)
    *factors_ref, info = reference.dgttrf(*bands)
    assert info == 0
    dl, d, du = (band.copy() for band in bands)
    du2, ipiv, info, _ = lapack._routines.gttrf(dl, d, du)
    assert info == 0
    for ours, ref in zip((dl, d, du, du2, ipiv), factors_ref):
        assert np.array_equal(ours, ref)  # ipiv compares by value across integer widths
    solve = gt_solver(*bands)
    for _ in range(3):
        b = rng.standard_normal(n)
        b_in = b.copy()
        x_ref, info = reference.dgttrs(*factors_ref, b)
        assert info == 0
        assert np.array_equal(solve(b), x_ref)
        assert np.array_equal(b, b_in)  # gt_solver's solve returns a new array


def test_factorization_failures_name_the_lapack_status(source):
    with pytest.raises(np.linalg.LinAlgError, match=r"not positive definite \(LAPACK dpttrf info 2\)"):
        pttrf(np.array([1.0, 1.0, 5.0]), np.array([2.0, 0.0]))
    with pytest.raises(np.linalg.LinAlgError, match=r"singular tridiagonal system \(LAPACK dgttrf info 3\)"):
        gt_solver(np.zeros(2), np.array([1.0, 1.0, 0.0]), np.zeros(2))


def test_pt_solver_checks_every_array_before_lapack(source):
    d, e = pttrf(np.full(6, 3.0), np.full(5, -1.0))
    solve = pt_solver(d, e)
    read_only = np.ones(4)
    read_only.setflags(write=False)
    refused = {
        "integer": np.ones(4, dtype=np.int64),
        "float32": np.ones(4, dtype=np.float32),
        "two-dimensional": np.ones((2, 2)),
        "strided": np.ones(8)[::2],
        "read-only": read_only,
        "too long": np.ones(7),
        "one entry": np.ones(1),
    }
    for name, b in refused.items():
        before = b.copy()
        with pytest.raises(ValueError, match="a pttrs right-hand side is a writable C-contiguous float64"):
            solve(b)
        assert np.array_equal(b, before), name  # refused before any write
    with pytest.raises(ValueError, match="factors must be C-contiguous"):
        pt_solver(d, np.full(10, -1.0)[::2])
    with pytest.raises(ValueError, match="factors are float64 vectors, not float32"):
        pt_solver(d.astype(np.float32), e)
    with pytest.raises(ValueError, match="not order 6 with 4"):
        pt_solver(d, e[:4])
    with pytest.raises(ValueError, match="not order 3 with 3"):
        pttrf(np.ones(3), np.ones(3))
    with pytest.raises(ValueError, match="order n >= 2 takes"):
        pttrf(np.ones(1), np.ones(0))


def test_gt_solver_checks_every_array_before_lapack(source):
    with pytest.raises(ValueError, match="not order 3 with 2, 1"):
        gt_solver(np.ones(2), np.full(3, 4.0), np.ones(1))
    with pytest.raises(ValueError, match="order n >= 3 takes"):
        gt_solver(np.ones(1), np.full(2, 4.0), np.ones(1))
    with pytest.raises(ValueError, match="lower must be one-dimensional"):
        gt_solver(np.ones((2, 1)), np.full(3, 4.0), np.ones(2))
    solve = gt_solver(np.ones(2), np.full(3, 4.0), np.ones(2))
    with pytest.raises(ValueError, match="has 3 entries, not 4"):
        solve(np.ones(4))
    with pytest.raises(ValueError, match="must be one-dimensional"):
        solve(np.ones((3, 1)))


def fail_pttrs(monkeypatch, info, after=0):
    """Every pttrs solve bound from now on reports `info` once `after` solves
    of the process have succeeded."""
    bind, calls = lapack._routines.bind_pttrs, itertools.count()

    def bind_failing(d, e):
        pttrs = bind(d, e)
        return lambda b: pttrs(b) if next(calls) < after else info

    monkeypatch.setattr(lapack._routines, "bind_pttrs", bind_failing)


@pytest.mark.parametrize("after", [0, 1], ids=["factor-time", "solve"])
def test_periodic_solver_raises_on_a_failed_pttrs(source, monkeypatch, after):
    # solve 0 is the factorization's own, of T z = gamma w
    fail_pttrs(monkeypatch, -5, after)
    with pytest.raises(np.linalg.LinAlgError, match=r"LAPACK dpttrs refused argument 5 \(info -5\)"):
        spectral._periodic_solver(np.full(16, 2.5), -1.0)(np.ones(16))


@pytest.mark.parametrize("call", ["advection", "gradient"])
def test_exp_drift_operator_raises_on_a_failed_pttrs(source, monkeypatch, call):
    fail_pttrs(monkeypatch, -4)
    op = ExpDriftOperator(1.0, 0.1, 40)  # not the shared cache's
    with pytest.raises(np.linalg.LinAlgError, match="info -4"):
        getattr(op, call)(np.linspace(1.0, 0.0, 40), 1.0, 0.0, -0.05)


def test_gt_solve_raises_on_a_failed_gttrs(source, monkeypatch):
    gttrf = lapack._routines.gttrf
    monkeypatch.setattr(lapack._routines, "gttrf", lambda *bands: (*gttrf(*bands)[:-1], lambda b: -9))
    solve = gt_solver(np.ones(2), np.full(3, 4.0), np.ones(2))
    with pytest.raises(np.linalg.LinAlgError, match=r"LAPACK dgttrs refused argument 9 \(info -9\)"):
        solve(np.ones(3))


OPENBLAS64_CONFIG = {
    "Build Dependencies": {
        "lapack": {
            "name": "scipy-openblas",
            "openblas configuration": "OpenBLAS 0.3.31  USE64BITINT DYNAMIC_ARCH NO_AFFINITY Haswell",
        }
    }
}


def test_numpy_openblas_is_used_only_where_numpy_reports_it(tmp_path):
    library = tmp_path / "libscipy_openblas64_-0123abcd.so"
    lp64 = {"Build Dependencies": {"lapack": {"name": "scipy-openblas", "openblas configuration": "OpenBLAS 0.3.31"}}}
    other = {"Build Dependencies": {"lapack": {"name": "openblas64", "openblas configuration": "USE64BITINT"}}}
    # before the library is there, and then for numpy < 1.26 (no CONFIG), an
    # LP64 build and another LAPACK
    assert lapack.vendored_openblas64(OPENBLAS64_CONFIG, str(tmp_path)) is None
    library.touch()
    for config in (None, {}, lp64, other):
        assert lapack.vendored_openblas64(config, str(tmp_path)) is None
    assert lapack.vendored_openblas64(OPENBLAS64_CONFIG, str(tmp_path)) == str(library)
