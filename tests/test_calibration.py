"""Calibrated pairs: mixture identity, quantiles, reflection symmetry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sarmanov.calibration import (
    MarginSampler,
    calibrate_from_kernel,
    component_quantile,
    explicit_pair,
    reflection_check,
)
from sarmanov.errors import DegenerateKernel, NotCalibrated, NotMonotone
from sarmanov.kernels import CATALOG_IDS, DEFAULT_PARAMS, catalog_lookup, custom_kernel
from sarmanov.numerics import ks_statistic
from sarmanov.rng import stream

GRID = np.linspace(0.0, 1.0, 1001)


def pair_for(name, params=None):
    return calibrate_from_kernel(catalog_lookup(name, params or DEFAULT_PARAMS.get(name, {})))


class TestFromKernel:
    def test_fgm_components_are_beta(self):
        pair = pair_for("fgm")
        assert pair.pi == 0.5
        np.testing.assert_allclose(pair.F0(GRID), GRID ** 2, atol=1e-15)
        np.testing.assert_allclose(pair.F1(GRID), 2 * GRID - GRID ** 2, atol=1e-15)

    def test_hki_pi_and_f0(self):
        pair = pair_for("hki", {"p": 2})
        assert pair.pi == pytest.approx(2 / 3, rel=1e-15)
        np.testing.assert_allclose(pair.F0(GRID), GRID ** 3, atol=1e-15)

    def test_checkerboard_components_are_uniform_halves(self):
        pair = pair_for("checkerboard")
        assert pair.pi == 0.5
        # F1 uniform on (0, 1/2); F0 uniform on (1/2, 1)
        np.testing.assert_allclose(pair.F1(GRID), np.minimum(2 * GRID, 1.0), atol=1e-15)
        np.testing.assert_allclose(pair.F0(GRID), np.maximum(2 * GRID - 1.0, 0.0), atol=1e-15)

    @pytest.mark.parametrize("name", CATALOG_IDS)
    def test_mixture_is_uniform(self, name):
        pair = pair_for(name)
        grid = np.union1d(GRID, pair.breakpoints)
        mix = (1 - pair.pi) * np.asarray(pair.F0(grid)) + pair.pi * np.asarray(pair.F1(grid))
        assert np.max(np.abs(mix - grid)) < 1e-10

    @pytest.mark.parametrize("name", CATALOG_IDS)
    def test_components_monotone(self, name):
        pair = pair_for(name)
        for F in (pair.F0, pair.F1):
            v = np.asarray(F(GRID), dtype=float)
            assert np.all(np.diff(v) >= -1e-12)
            assert v[0] == pytest.approx(0.0, abs=1e-12)
            assert v[-1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("name", CATALOG_IDS)
    def test_induced_kernel_is_lambda_times_g(self, name):
        # pi * (F1 - F0) = Lambda * g; for Lambda = 1 rows that is g itself
        k = catalog_lookup(name, DEFAULT_PARAMS.get(name, {}))
        pair = calibrate_from_kernel(k)
        np.testing.assert_allclose(
            np.asarray(pair.g(GRID), float),
            k.Lambda * np.asarray(k.g(GRID), float), atol=1e-10,
        )

    def test_degenerate_kernel_rejected(self):
        zero = custom_kernel(lambda u: np.zeros_like(np.asarray(u, float)))
        with pytest.raises(DegenerateKernel):
            calibrate_from_kernel(zero)


class TestExplicitPair:
    def test_fgm_pair_accepted_and_inverts_to_kernel(self):
        pair = explicit_pair(lambda u: np.asarray(u, float) ** 2,
                             lambda u: 2 * np.asarray(u, float) - np.asarray(u, float) ** 2,
                             pi=0.5)
        np.testing.assert_allclose(pair.g(GRID), GRID * (1 - GRID), atol=1e-10)
        assert pair.induced.kappa == pytest.approx(1 / 6, abs=1e-9)

    def test_quadratic_kernel_slope_bounds_exact(self):
        # g = u - u^2: second-order end differences are exact for a quadratic,
        # a first-order end difference would give 1/(1 - h) = 1.00005
        pair = explicit_pair(lambda u: np.asarray(u, float) ** 2,
                             lambda u: 2 * np.asarray(u, float) - np.asarray(u, float) ** 2,
                             pi=0.5)
        assert pair.induced.Lambda == pytest.approx(1.0, abs=1e-9)
        assert pair.induced.lam == pytest.approx(-1.0, abs=1e-9)

    def test_identity_pair_gives_independence_margin(self):
        ident = lambda u: np.asarray(u, dtype=float)  # noqa: E731
        pair = explicit_pair(ident, ident, pi=0.3)
        assert pair.induced.degenerate
        np.testing.assert_allclose(pair.g(GRID), 0.0, atol=1e-15)

    def test_uncalibrated_rejected(self):
        sq = lambda u: np.asarray(u, dtype=float) ** 2  # noqa: E731
        with pytest.raises(NotCalibrated):
            explicit_pair(sq, sq, pi=0.5)

    def test_nonmonotone_rejected(self):
        wav = lambda u: np.asarray(u, float) + 0.3 * np.sin(  # noqa: E731
            4 * np.pi * np.asarray(u, float))
        comp = lambda u: 2 * np.asarray(u, float) - wav(u)  # noqa: E731
        with pytest.raises(NotMonotone):
            explicit_pair(wav, comp, pi=0.5)

    def test_bad_pi_rejected(self):
        ident = lambda u: np.asarray(u, dtype=float)  # noqa: E731
        with pytest.raises(NotCalibrated):
            explicit_pair(ident, ident, pi=1.5)


class TestReflection:
    def test_fgm_reflects(self):
        assert reflection_check(pair_for("fgm"))

    def test_checkerboard_reflects(self):
        assert reflection_check(pair_for("checkerboard"))

    def test_sin_reflects(self):
        assert reflection_check(pair_for("sin"))

    def test_hki_does_not_reflect(self):
        # pi = p/(p+1) != 1/2 breaks the symmetry outright
        assert not reflection_check(pair_for("hki", {"p": 2}))

    def test_legendre2_does_not_reflect(self):
        pair = pair_for("legendre2")
        assert pair.pi == pytest.approx(1 / 3)
        assert not reflection_check(pair)


class TestQuantiles:
    def test_fgm_closed_forms(self):
        pair = pair_for("fgm")
        assert component_quantile(pair, 0, 0.25) == pytest.approx(0.5, abs=1e-12)
        assert component_quantile(pair, 1, 0.75) == pytest.approx(0.5, abs=1e-12)

    def test_hkii_q2_matches_cube_root_form(self):
        pair = pair_for("hkii", {"q": 2})
        w = np.linspace(0.001, 0.999, 997)
        closed = 2 / 3 + np.cbrt((w - 8 / 9) / 3)
        np.testing.assert_allclose(component_quantile(pair, 1, w), closed, atol=1e-10)

    def test_flat_segments_resolve_left(self):
        pair = pair_for("checkerboard")
        # analytic inverses already honour the convention; exercise bisection
        stripped = pair.__class__(**{**pair.__dict__, "F0_inv": None, "F1_inv": None})
        assert component_quantile(stripped, 1, 1.0) == pytest.approx(0.5, abs=1e-12)
        assert component_quantile(stripped, 0, 0.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("name", ["fgm", "hki", "hkii", "bkb", "sin_asym", "two_slope"])
    def test_quantile_roundtrip(self, name):
        pair = pair_for(name)
        q = stream(7, 1).random(1000)
        for which, F in ((0, pair.F0), (1, pair.F1)):
            u = component_quantile(pair, which, q)
            np.testing.assert_allclose(np.asarray(F(u), float), q, atol=1e-10)

    def test_margin_sampler_mixture_is_uniform(self):
        n = 100_000
        for name in ("fgm", "hkii", "checkerboard", "bkb"):
            pair = pair_for(name)
            rng = stream(11, 0)
            idx = (rng.random(n) < pair.pi).astype(np.uint8)
            q = stream(11, 1).random(n)
            u = MarginSampler(pair).quantile(idx, q)
            assert ks_statistic(u) < 1.63 / np.sqrt(n), name


@given(q=st.floats(0.0, 1.0), name=st.sampled_from(["fgm", "hkii", "lee_quadratic", "sin"]))
@settings(max_examples=60, deadline=None)
def test_quantile_roundtrip_property(q, name):
    pair = pair_for(name)
    for which, F in ((0, pair.F0), (1, pair.F1)):
        u = component_quantile(pair, which, q)
        assert float(F(u)) == pytest.approx(q, abs=1e-10)
