"""Catalog fidelity and custom-kernel construction."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sarmanov.calibration import calibrate_from_kernel
from sarmanov.errors import (
    DegenerateKernel,
    NotAnchored,
    ParamOutOfRange,
    UnboundedDerivative,
    UnknownKernel,
)
from sarmanov.kernels import (
    CATALOG_IDS,
    DEFAULT_PARAMS,
    catalog_lookup,
    custom_kernel,
    kernel_area,
    numeric_slope_bounds,
    sin_asym_slope_root,
    validate_kernel,
)
from sarmanov.numerics import sign_changes


def default_kernel(name):
    return catalog_lookup(name, DEFAULT_PARAMS.get(name, {}))


class TestCatalogFidelity:
    @pytest.mark.parametrize("name", CATALOG_IDS)
    def test_anchoring_and_structure(self, name):
        k = default_kernel(name)
        validate_kernel(k)

    @pytest.mark.parametrize("name", CATALOG_IDS)
    def test_quadrature_reproduces_analytic_kappa(self, name):
        k = default_kernel(name)
        assert kernel_area(k) == pytest.approx(k.kappa, abs=1e-10)

    @pytest.mark.parametrize("name", CATALOG_IDS)
    def test_grid_extremization_reproduces_slope_bounds(self, name):
        k = default_kernel(name)
        L, lam = numeric_slope_bounds(k)
        assert L == pytest.approx(k.Lambda, rel=1e-6)
        assert lam == pytest.approx(k.lam, rel=1e-6)

    @pytest.mark.parametrize("name", CATALOG_IDS)
    def test_area_respects_slope_budget(self, name):
        # |kappa| <= 1/(2(Lambda + |lam|)): the triangular envelope bound
        k = default_kernel(name)
        assert abs(k.kappa) <= 1.0 / (2.0 * (k.Lambda + abs(k.lam))) + 1e-12

    @pytest.mark.parametrize("name", CATALOG_IDS)
    def test_exact_constants_match_floats(self, name):
        k = default_kernel(name)
        for exact, flt in ((k.Lambda_exact, k.Lambda), (k.lam_exact, k.lam),
                           (k.kappa_exact, k.kappa)):
            if exact is not None:
                assert float(exact) == pytest.approx(flt, rel=1e-15, abs=1e-15)

    def test_sign_changing_rows(self):
        # detected numerically: the normal-cdf kernel dips negative near 0,
        # the shifted-Legendre kernel flips at 1/2; all others keep one sign
        changing = {
            name for name in CATALOG_IDS
            if sign_changes(default_kernel(name).g, default_kernel(name).breakpoints)
        }
        assert changing == {"norm_lee", "legendre2"}
        for name in CATALOG_IDS:
            k = default_kernel(name)
            assert k.sign_constant == (name not in changing)


def _param(lo, hi):
    """Integral and non-integral parameter values in (lo, hi]."""
    return st.one_of(st.integers(int(lo) + 1, int(hi)), st.floats(lo, hi, exclude_min=True))


RATIONAL_ROWS = st.one_of(
    st.tuples(st.just("hki"), st.fixed_dictionaries({"p": _param(0, 50)})),
    st.tuples(st.just("hkii"), st.fixed_dictionaries({"q": _param(1, 60)})),
    st.tuples(st.just("bkb"), st.fixed_dictionaries({
        "p": st.one_of(_param(0, 8), st.sampled_from([0.25, 0.5])), "q": _param(1, 60)})),
    st.tuples(st.just("lai_xie"), st.fixed_dictionaries({"a": _param(1, 30), "b": _param(1, 30)})),
    st.tuples(st.just("lee_power"), st.fixed_dictionaries({"k": st.integers(1, 50)})),
)


@settings(max_examples=300, deadline=None)
@example(("hkii", {"q": 4}))
@example(("lee_power", {"k": 3}))
@given(RATIONAL_ROWS)
def test_float_constants_are_exact_values_rounded_once(row):
    # each constant is written once; where it is rational its float is the
    # exact value rounded once, in the row and in the calibrated pair's kernel
    name, params = row
    try:
        k = catalog_lookup(name, params)
    except ParamOutOfRange:  # constants beyond the float range
        return
    for kern in (k, calibrate_from_kernel(k).induced):
        for c in ("Lambda", "lam", "kappa"):
            exact = getattr(kern, f"{c}_exact")
            if exact is not None:
                assert getattr(kern, c) == float(exact), (kern.id, c)


class TestFloatRange:
    @pytest.mark.parametrize("name, params", [
        ("lai_xie", {"a": 300, "b": 300}),
        ("bkb", {"p": 0.5, "q": 400.5}),
        ("bkb", {"p": 1e-300, "q": 2}),
        ("bkb", {"p": 1e-300, "q": 2.5}),
    ], ids=["lai_xie_overflow", "bkb_overflow", "bkb_exact_overflow", "bkb_zero_division"])
    def test_constants_beyond_float_range_are_out_of_range(self, name, params):
        with pytest.raises(ParamOutOfRange, match="beyond the float range"):
            catalog_lookup(name, params)

    @pytest.mark.parametrize("p, q", [(0.5, 400), (2, 1000)])
    def test_integral_q_takes_the_exact_route(self, p, q):
        # (1 + pq)^(q-1) is beyond the float range; lam itself is not
        k = catalog_lookup("bkb", {"p": p, "q": q})
        assert k.lam == float(k.lam_exact)
        assert numeric_slope_bounds(k)[1] == pytest.approx(k.lam, rel=1e-9)


class TestSpecificRows:
    def test_fgm(self):
        k = catalog_lookup("fgm")
        assert (k.Lambda, k.lam) == (1.0, -1.0)
        assert k.kappa_exact == Fraction(1, 6)

    def test_hki_p2(self):
        k = catalog_lookup("hki", {"p": 2})
        assert (k.Lambda, k.lam) == (1.0, -0.5)
        assert k.kappa_exact == Fraction(1, 4)

    def test_hkii_q2(self):
        k = catalog_lookup("hkii", {"q": 2})
        assert k.lam == -3.0
        assert k.kappa_exact == Fraction(1, 12)

    def test_hkii_lambda_formula(self):
        for q in (2, 3, 4.5):
            k = catalog_lookup("hkii", {"q": q})
            assert k.lam == pytest.approx(-(((q + 1) / (q - 1)) ** (q - 1)), rel=1e-15)

    def test_bkb_22(self):
        k = catalog_lookup("bkb", {"p": 2, "q": 2})
        assert k.lam == pytest.approx(-1.25, abs=1e-15)
        assert k.kappa_exact == Fraction(1, 6)

    def test_legendre2(self):
        k = catalog_lookup("legendre2")
        u = np.linspace(0, 1, 101)
        np.testing.assert_allclose(k.g(u), u * (1 - u) * (1 - 2 * u), atol=1e-15)
        assert k.kappa == 0.0 and k.Lambda == 1.0 and k.lam == -2.0

    def test_checkerboard(self):
        k = catalog_lookup("checkerboard")
        assert float(k.g(0.3)) == pytest.approx(0.3)
        assert float(k.g(0.7)) == pytest.approx(0.3)
        assert (k.Lambda, k.lam, k.kappa) == (1.0, -1.0, 0.25)

    def test_lee_power_consistency(self):
        # sup phi = k/(k+1) at u=1 and inf phi = -1/(k+1) at u=0
        for kk in (1, 2, 5):
            k = catalog_lookup("lee_power", {"k": kk})
            assert k.Lambda == pytest.approx((kk + 1) / kk, rel=1e-15)
            assert k.lam == pytest.approx(-(kk + 1), rel=1e-15)
            L, lam = numeric_slope_bounds(k)
            assert L == pytest.approx(k.Lambda, rel=1e-9)
            assert lam == pytest.approx(k.lam, rel=1e-9)

    def test_lai_xie_defaults(self):
        k = catalog_lookup("lai_xie", {"a": 2, "b": 2})
        assert k.kappa_exact == Fraction(1, 30)
        assert k.Lambda == pytest.approx(3 * math.sqrt(3), rel=1e-12)
        assert k.lam == pytest.approx(-3 * math.sqrt(3), rel=1e-12)

    def test_sin_asym_root(self):
        y = sin_asym_slope_root()
        assert y * math.tan(y) == pytest.approx(2.0, abs=1e-12)
        k = catalog_lookup("sin_asym")
        assert k.lam == pytest.approx(-2.2585010314, abs=1e-8)

    def test_sin_kernel_area(self):
        assert catalog_lookup("sin").kappa == pytest.approx(2 / math.pi ** 2, rel=1e-15)


class TestCatalogErrors:
    def test_unknown_kernel(self):
        with pytest.raises(UnknownKernel):
            catalog_lookup("nope")

    @pytest.mark.parametrize("name,params", [
        ("hkii", {"q": 1.0}),
        ("hkii", {"q": 0.5}),
        ("bkb", {"p": 2, "q": 0.9}),
        ("bkb", {"p": -1, "q": 2}),
        ("hki", {"p": 0.0}),
        ("lai_xie", {"a": 1.0, "b": 2.0}),
        ("lee_power", {"k": 0}),
        ("lee_power", {"k": 2.5}),
    ])
    def test_param_out_of_range(self, name, params):
        with pytest.raises(ParamOutOfRange):
            catalog_lookup(name, params)

    def test_unexpected_params_rejected(self):
        with pytest.raises(ParamOutOfRange):
            catalog_lookup("fgm", {"p": 2})
        with pytest.raises(ParamOutOfRange):
            catalog_lookup("hki", {})


class TestCustomKernel:
    def test_tabulated_fgm_recovers_slope_bounds(self):
        u = np.linspace(0, 1, 100_001)
        k = custom_kernel(u * (1 - u))
        assert k.Lambda == pytest.approx(1.0, abs=1e-4)
        assert k.lam == pytest.approx(-1.0, abs=1e-4)
        assert k.kappa == pytest.approx(1 / 6, abs=1e-8)

    def test_callable_with_analytic_phi(self):
        k = custom_kernel(lambda u: u * (1 - u), phi=lambda u: 1 - 2 * np.asarray(u, float))
        assert k.Lambda == pytest.approx(1.0, abs=1e-9)
        assert k.lam == pytest.approx(-1.0, abs=1e-9)

    def test_zero_kernel_is_degenerate(self):
        k = custom_kernel(lambda u: np.zeros_like(np.asarray(u, float)))
        assert k.degenerate
        assert k.kappa == 0.0

    def test_unanchored_rejected(self):
        with pytest.raises(NotAnchored):
            custom_kernel(lambda u: np.asarray(u, dtype=float))

    def test_unbounded_derivative_detected(self):
        with pytest.raises(UnboundedDerivative):
            custom_kernel(lambda u: np.asarray(u, float) * np.sqrt(np.abs(1 - np.asarray(u, float))))

    def test_degenerate_has_no_slope_bounds(self):
        k = custom_kernel(lambda u: np.zeros_like(np.asarray(u, float)))
        with pytest.raises(DegenerateKernel):
            numeric_slope_bounds(k)


_PARAMETRIC = st.one_of(
    st.just(("fgm", {})),
    st.builds(lambda p: ("hki", {"p": p}), st.floats(0.5, 6)),
    st.builds(lambda q: ("hkii", {"q": q}), st.floats(1.2, 5)),
    st.builds(lambda p, q: ("bkb", {"p": p, "q": q}), st.floats(0.5, 4), st.floats(1.2, 4)),
    st.builds(lambda a, b: ("lai_xie", {"a": a, "b": b}), st.floats(1.2, 5), st.floats(1.2, 5)),
    st.builds(lambda k: ("lee_power", {"k": k}), st.integers(1, 8)),
)


class TestKernelProperties:
    @given(spec=_PARAMETRIC)
    @settings(max_examples=40, deadline=None)
    def test_lipschitz_envelope(self, spec):
        k = catalog_lookup(*spec)
        u = np.linspace(0, 1, 501)
        envelope = k.slope_sup() * np.minimum(u, 1 - u)
        assert np.all(np.abs(np.asarray(k.g(u), float)) <= envelope + 1e-12)

    @given(spec=_PARAMETRIC)
    @settings(max_examples=40, deadline=None)
    def test_slope_bounds_signed(self, spec):
        k = catalog_lookup(*spec)
        assert k.lam < 0 < k.Lambda
