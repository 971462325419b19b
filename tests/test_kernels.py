import math

import numpy as np
import pytest

from chemofront.kernels import (
    TAIL_EPS,
    ChemoParams,
    KernelSpec,
    kbar,
    kbar_inverse,
    kernel_eval,
    kernel_scaled,
    parse_kernel,
    validate_kernel,
)

ALL_SPECS = [
    KernelSpec("exp"),
    KernelSpec("tophat"),
    KernelSpec("powerlaw", shape=3.0),
    KernelSpec("powerlaw", shape=2.5),
    KernelSpec("stretched", shape=0.5),
    KernelSpec("stretched", shape=0.3),
    KernelSpec("stretched", shape=0.8),
]


def test_exp_values():
    spec = KernelSpec("exp")
    assert kernel_eval(spec, 1.0) == pytest.approx(-0.5 * math.exp(-1.0), rel=1e-15)
    assert kernel_eval(spec, -2.0) == pytest.approx(0.5 * math.exp(-2.0), rel=1e-15)
    assert kbar(spec, 0.0) == pytest.approx(0.5)
    assert kbar(spec, 1.0) == pytest.approx(0.5 * math.exp(-1.0), rel=1e-15)


def test_tophat_values():
    spec = KernelSpec("tophat")
    assert kernel_eval(spec, 0.5) == -0.5
    assert kernel_eval(spec, 1.5) == 0.0
    assert kbar(spec, 0.5) == pytest.approx(0.25)
    assert kbar(spec, 2.0) == 0.0


def test_powerlaw_values():
    spec = KernelSpec("powerlaw", shape=3.0)
    # K(x) = -1/2 (1 + x/2)^-3
    assert kernel_eval(spec, 2.0) == pytest.approx(-0.5 * 2.0**-3, rel=1e-15)
    assert kbar(spec, 2.0) == pytest.approx(0.5 * 2.0**-2, rel=1e-15)


def test_stretched_normalizer_matches_quadrature():
    # independent oracle: int_0^inf exp(-x^alpha) dx by quadrature
    from scipy.integrate import quad

    from chemofront.kernels import _d_alpha

    for alpha in (0.3, 0.5, 0.8):
        integral, _ = quad(lambda x: np.exp(-(x**alpha)), 0.0, np.inf, limit=200)
        assert _d_alpha(alpha) == pytest.approx(integral**-alpha, rel=1e-10)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_oddness_is_exact(spec):
    xs = np.geomspace(1e-3, spec.tail_cutoff, 40)
    assert np.all(kernel_eval(spec, -xs) == -kernel_eval(spec, xs))


def test_origin_is_rejected():
    with pytest.raises(ValueError):
        kernel_eval(KernelSpec("exp"), 0.0)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_kbar_at_zero_is_half(spec):
    assert kbar(spec, 0.0) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_kbar_monotone_nonincreasing(spec):
    xs = np.linspace(0.0, min(spec.tail_cutoff, 50.0), 200)
    vals = np.atleast_1d(kbar(spec, xs))
    assert np.all(np.diff(vals) <= 1e-15)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_kbar_inverse_roundtrip(spec):
    xs = np.geomspace(1e-3, spec.tail_cutoff, 25)
    for x in xs:
        w = float(kbar(spec, x))
        if w <= 0.0:
            continue
        assert kbar_inverse(spec, w) == pytest.approx(x, rel=1e-10)


def test_kbar_inverse_closed_forms():
    assert kbar_inverse(KernelSpec("exp"), 0.25) == pytest.approx(math.log(2.0), rel=1e-14)
    assert kbar_inverse(KernelSpec("tophat"), 0.25) == pytest.approx(0.5, rel=1e-14)
    assert kbar_inverse(KernelSpec("exp"), 0.5) == 0.0


def test_kbar_inverse_domain():
    with pytest.raises(ValueError):
        kbar_inverse(KernelSpec("exp"), 0.6)
    with pytest.raises(ValueError):
        kbar_inverse(KernelSpec("exp"), 0.0)


@pytest.mark.parametrize(
    "spec",
    [*ALL_SPECS, KernelSpec("powerlaw", shape=2.2), KernelSpec("stretched", shape=0.2)],
    ids=str,
)
def test_validate_kernel(spec):
    report = validate_kernel(spec)
    assert report.all_passed, [c.name for c in report.failures()]
    # the Gauss-Legendre mass is exact to rounding (scipy's quad was off by
    # 1.2e-11 at stretched:0.2)
    assert report["l1-norm"].lhs <= 2e-15


def test_scaled_kernel():
    spec = KernelSpec("exp")
    assert kernel_scaled(spec, 2.0, 2.0) == pytest.approx(kernel_eval(spec, 1.0) / 2.0)
    with pytest.raises(ValueError):
        kernel_scaled(spec, -1.0, 1.0)


def test_parse_kernel():
    assert parse_kernel("exp") == KernelSpec("exp")
    assert parse_kernel("tophat") == KernelSpec("tophat")
    assert parse_kernel("powerlaw:3") == KernelSpec("powerlaw", shape=3.0)
    assert parse_kernel("stretched:0.5") == KernelSpec("stretched", shape=0.5)
    for bad in ("gauss", "powerlaw", "stretched", "exp:1"):
        with pytest.raises(ValueError):
            parse_kernel(bad)


def test_kernel_string_roundtrip():
    for spec in ALL_SPECS:
        assert parse_kernel(str(spec)) == spec


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("powerlaw", shape=2.0)
    # nan <= 2 is false, so a bare lower bound would let nan through
    for shape in (np.nan, np.inf):
        with pytest.raises(ValueError, match="powerlaw kernel requires a finite shape"):
            KernelSpec("powerlaw", shape=shape)
    with pytest.raises(ValueError):
        KernelSpec("stretched", shape=1.0)
    with pytest.raises(ValueError):
        KernelSpec("nope")


def test_chemo_params_standing_assumption():
    ChemoParams(-20.0, 400.0)
    ChemoParams(0.49, 1.0)
    with pytest.raises(ValueError):
        ChemoParams(0.5, 1.0)
    with pytest.raises(ValueError):
        ChemoParams(0.3, 0.5)  # chi/sigma = 0.6
    with pytest.raises(ValueError):
        ChemoParams(0.0, -1.0)


@pytest.mark.parametrize(
    "chi, sigma", [(np.nan, 1.0), (np.inf, 1.0), (-np.inf, 1.0), (0.0, np.nan), (0.0, np.inf), (-0.05, np.inf)]
)
def test_chemo_params_refuses_non_finite_values(chi, sigma):
    # nan and inf slip past the order comparisons of the standing assumption
    with pytest.raises(ValueError, match="chi and sigma must be finite"):
        ChemoParams(chi, sigma)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_default_tail_cutoff_is_negligible(spec):
    assert float(kbar(spec, spec.tail_cutoff)) <= 1.1e-14


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_tail_cutoff_is_kbar_inverse_of_tail_eps(spec):
    if spec.family == "tophat":
        assert spec.tail_cutoff == 1.0  # the support edge
    else:
        assert float(kbar(spec, spec.tail_cutoff)) == pytest.approx(TAIL_EPS, rel=1e-12)
