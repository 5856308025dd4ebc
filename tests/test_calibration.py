"""Calibrated pairs: mixture identity, quantiles, reflection symmetry."""

import os
import subprocess
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sarmanov import calibration, numerics
from sarmanov.calibration import (
    calibrate_from_kernel,
    component_quantile,
    explicit_pair,
    reflection_check,
)
from sarmanov.copula import transform_kernel
from sarmanov.errors import DegenerateKernel, NotAnchored, NotCalibrated, NotMonotone
from sarmanov.kernels import CATALOG_IDS, DEFAULT_PARAMS, catalog_lookup, custom_kernel
from sarmanov.numerics import (
    CHUNK_ROWS,
    FLAT_BITS,
    GUESS_POINTS,
    INVERSE_TABLES,
    TABLE_BITS,
    XTOL_BITS,
    bisect_cdf,
    bracket_search,
    invert_cdf,
    ks_statistic,
)
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

    def test_pi_is_the_exact_ratio_rounded_once(self):
        # pi = Lambda / (Lambda - lam) from each row's closed-form bounds, in
        # exact arithmetic; the float formula is an ulp off at 37 of these points
        F = Fraction
        bounds = {("two_slope", ()): (F(1, 3), F(-1)), ("lee_quadratic", ()): (F(2), F(-2))}
        for q in range(2, 40):
            bounds["hkii", (("q", q),)] = (F(1), -F(q + 1, q - 1) ** (q - 1))
        for p in range(1, 40):
            bounds["hki", (("p", p),)] = (F(1), F(-1, p))
            bounds["lee_power", (("k", p),)] = (F(p + 1, p), F(-(p + 1)))
        for p in range(1, 5):
            for q in range(2, 12):
                lam = -F(1 + p * q) ** (q - 1) / (F(p) ** q * F(q - 1) ** (q - 1))
                bounds["bkb", (("p", p), ("q", q))] = (F(1), lam)
        for (name, params), (Lambda, lam) in bounds.items():
            pair = pair_for(name, dict(params))
            assert pair.pi == float(Lambda / (Lambda - lam)), (name, params)
        assert pair_for("hkii", {"q": 7}).pi == 0.1510880829015544

    @pytest.mark.parametrize("name", ["sin_asym", "norm_lee", "lai_xie", "lee_exponential"])
    def test_pi_keeps_the_float_formula_for_irrational_bounds(self, name):
        k = catalog_lookup(name, DEFAULT_PARAMS.get(name, {}))
        assert calibrate_from_kernel(k).pi == k.Lambda / (k.Lambda - k.lam)


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

    def test_induced_kernel_missing_zero_at_an_end_is_refused(self):
        # each component is within 1e-9 of its end value and the mixture is
        # calibrated, but g_hat(0) = 0.9 * 2e-9 = 1.8e-9 exceeds ANCHOR_TOL
        def at_zero(value, f):
            return lambda u: np.where(np.asarray(u, float) == 0.0, value, f(np.asarray(u, float)))

        F0 = at_zero(-1e-9, lambda u: u ** 2)
        F1 = at_zero(1e-9, lambda u: (u - 0.1 * u ** 2) / 0.9)
        with pytest.raises(NotAnchored, match="g\\(0\\)=1.8e-09"):
            explicit_pair(F0, F1, pi=0.9)

    @pytest.mark.parametrize("centre, width, error", [
        (0.5, 1e-3, NotMonotone),  # on the 1001-point verification grid
        (0.50025, 1e-5, DegenerateKernel),  # only on the 20001-point kernel grid
    ])
    def test_non_finite_component_is_refused(self, centre, width, error):
        F0 = lambda u: np.where(np.abs(np.asarray(u, float) - centre) < width,  # noqa: E731
                                np.nan, np.asarray(u, float) ** 2)
        F1 = lambda u: 2 * np.asarray(u, float) - np.asarray(u, float) ** 2  # noqa: E731
        with pytest.raises(error, match="NaN or infinite"):
            explicit_pair(F0, F1, pi=0.5)


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

    @pytest.mark.parametrize("name", CATALOG_IDS)
    def test_verdict_is_the_union1d_grids(self, name):
        pair = pair_for(name)
        grid = np.union1d(calibration._GRID, [b for b in pair.breakpoints if 0 < b < 1])
        tol = calibration.REFLECTION_TOL
        ref = abs(pair.pi - 0.5) <= tol and bool(np.max(np.abs(pair.F1(grid) - (1.0 - pair.F0(1.0 - grid)))) <= tol)
        assert reflection_check(pair) == ref

    def test_imports_no_numpy_ma(self):
        # a float np.union1d imports numpy.ma (about 15 ms) on first use
        code = ("import sys\n"
                "from sarmanov.calibration import calibrate_from_kernel, reflection_check\n"
                "from sarmanov.kernels import catalog_lookup\n"
                "assert reflection_check(calibrate_from_kernel(catalog_lookup('checkerboard')))\n"
                "print('numpy.ma' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "False"


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

    def test_component_mixture_is_uniform(self):
        n = 100_000
        for name in ("fgm", "hkii", "checkerboard", "bkb"):
            pair = pair_for(name)
            rng = stream(11, 0)
            on = rng.random(n) < pair.pi
            q = stream(11, 1).random(n)
            u = np.where(on, component_quantile(pair, 1, q), component_quantile(pair, 0, q))
            assert ks_statistic(u) < 1.63 / np.sqrt(n), name


def _tabulated(name, points=257):
    """Explicit pair interpolating a catalog kernel's components on a grid."""
    k = catalog_lookup(name, DEFAULT_PARAMS.get(name, {}))
    u = np.linspace(0.0, 1.0, points)
    F0, F1 = u - k.Lambda * k.g(u), u - k.lam * k.g(u)
    return explicit_pair(lambda x: np.interp(x, u, F0), lambda x: np.interp(x, u, F1),
                         k.Lambda / (k.Lambda - k.lam))


NUMERIC_PAIRS = {
    **{name: lambda name=name: pair_for(name) for name in CATALOG_IDS},
    "explicit:fgm_damped": lambda: _tabulated("fgm_damped"),
    "sin^<2>": lambda: calibrate_from_kernel(transform_kernel(catalog_lookup("sin"), 2)),
}
EDGE_Q = [0.0, 5e-324, 1e-300, 0.5, 1.0 - 2.0 ** -53, 1.0]


class TestNumericInversion:
    """The tabulated-bracket regula falsi route against 60-step bisection."""

    @pytest.mark.parametrize("name", sorted(NUMERIC_PAIRS))
    def test_matches_bisection(self, name):
        pair = NUMERIC_PAIRS[name]()
        q = np.concatenate([EDGE_Q, np.random.default_rng(17).random(500)])
        for F in (pair.F0, pair.F1):
            numerics._inverses.clear()
            u, ref = invert_cdf(F, q), bisect_cdf(F, q)  # cold: builds F's inverse table
            np.testing.assert_array_equal(invert_cdf(F, q), u)  # warm
            assert np.max(np.abs(u - ref)) <= 1e-12
            assert np.all(F(u) >= q)
            # leftmost: no crossing 1e-9 earlier. Within 1e-9 of 0 and 1 that
            # step is decided by rounding in F (bisection itself fails it on
            # lee_exponential F0 at q <= 1e-300 and on exp_bridge F1 at q = 1)
            check = (u >= 1e-9) & (q >= 1e-9) & (q <= 1.0 - 1e-9)
            assert np.all(F(u[check] - 1e-9) < q[check])

    def test_colliding_table_is_checked_against_the_callers_F(self):
        # F2 equals F on the 2^12 + 1 table points, so it finds F's inverse
        # table in the cache, but between them it is F at shifted points
        F = pair_for("sin").F0
        cells = 1 << TABLE_BITS

        def F2(u):
            u = np.asarray(u, dtype=float)
            shifted = u + 0.5 * np.sin(2 * np.pi * cells * u) / (2 * np.pi * cells)
            return np.where(np.mod(u * cells, 1.0) == 0.0, F(u), F(shifted))

        q = np.concatenate([EDGE_Q, np.random.default_rng(4).random(3000)])
        invert_cdf(F, q)
        held = len(numerics._inverses)
        u = invert_cdf(F2, q)
        assert len(numerics._inverses) == held  # no table of its own
        assert np.max(np.abs(u - bisect_cdf(F2, q))) <= 1e-12
        assert np.all(F2(u) >= q)
        check = (u >= 1e-9) & (q >= 1e-9)
        assert np.all(F2(u[check] - 1e-9) < q[check])
        assert np.max(np.abs(u - invert_cdf(F, q))) > 1e-9  # F2 is not F

    def test_cache_stays_at_its_bound(self):
        q = np.random.default_rng(2).random(50)
        for k in range(INVERSE_TABLES + 5):
            F = lambda u, e=1.0 + k / 64: np.asarray(u, dtype=float) ** e  # noqa: E731
            u = invert_cdf(F, q)
            assert np.max(np.abs(u - q ** (1 / (1.0 + k / 64)))) <= 1e-12
        assert len(numerics._inverses) == INVERSE_TABLES

    def test_concurrent_callers_get_the_single_thread_bytes(self):
        # four threads share the cache, with more distinct F than it holds
        cdfs = [lambda u, e=1.0 + k / 50: np.asarray(u, dtype=float) ** e
                for k in range(INVERSE_TABLES + 16)]
        q = np.random.default_rng(12).random(300)
        numerics._inverses.clear()
        expected = [invert_cdf(F, q) for F in cdfs]
        numerics._inverses.clear()
        got, interval = {}, sys.getswitchinterval()

        def work(t):
            got[t] = [invert_cdf(F, q) for F in cdfs[t:] + cdfs[:t]]

        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for t in range(4):
            for u, ref in zip(got[t], expected[t:] + expected[:t]):
                np.testing.assert_array_equal(u, ref)
        assert len(numerics._inverses) == INVERSE_TABLES

    def test_warm_sin_costs_two_and_a_half_evaluations_per_draw(self):
        F, points = pair_for("sin").F0, [0]

        def counted(u):
            points[0] += np.size(u)
            return F(u)

        q = np.random.default_rng(3).random(200_000)
        invert_cdf(F, q[:10])  # same table, so the counted calls find it warm
        invert_cdf(counted, q)
        assert points[0] / q.size <= 2.5

    def test_rows_beyond_one_chunk_keep_their_shape(self):
        F = pair_for("sin").F0
        q = np.random.default_rng(6).random((2, CHUNK_ROWS // 2 + 3))
        u = invert_cdf(F, q)
        assert u.shape == q.shape
        assert np.max(np.abs(u - bisect_cdf(F, q))) <= 1e-12
        assert invert_cdf(F, np.empty(0)).shape == (0,)
        assert invert_cdf(F, 0.5).shape == ()
        assert abs(invert_cdf(F, 0.5) - bisect_cdf(F, 0.5)) <= 1e-12

    def test_flat_table_tail_is_finite(self):
        # sin's F1 is flat to third order at 1: its last table cells rise by
        # ~1e-11, and F1 rounds to 1 before u = 1
        F1 = pair_for("sin").F1
        top = float(F1(1.0 - 2.0 ** -TABLE_BITS))
        q = np.concatenate([np.linspace(top, 1.0, 200)[1:], [np.nextafter(top, 2.0)]])
        u = invert_cdf(F1, q)
        assert np.all(np.isfinite(u))
        assert np.all((u >= 1.0 - 2.0 ** -TABLE_BITS) & (u <= 1.0))
        assert np.all(F1(u) >= q)

    def test_interior_plateau_resolves_left(self):
        # F0 = u on [0, 0.3], flat at 0.3 on [0.3, 0.6]; F1 = 2u - F0 (pi = 1/2)
        xs = np.array([0.0, 0.3, 0.6, 1.0])
        F0v = np.array([0.0, 0.3, 0.3, 1.0])
        pair = explicit_pair(lambda x: np.interp(x, xs, F0v),
                             lambda x: np.interp(x, xs, 2 * xs - F0v), 0.5)
        assert component_quantile(pair, 0, 0.3) == pytest.approx(0.3, abs=1e-12)
        u = component_quantile(pair, 0, np.array([0.3, 0.3 + 1e-6]))
        assert u[0] == pytest.approx(0.3, abs=1e-12)
        assert u[1] == pytest.approx(0.6 + 1e-6 * 0.4 / 0.7, abs=1e-12)

    def test_unsorted_table_takes_the_bisection_path(self):
        table = np.linspace(0.0, 1.0, 17)
        table[[5, 6, 11]] = table[[6, 5, 12]]  # a swapped pair and a repeated value
        q = np.concatenate([np.random.default_rng(8).random(300), [0.0, 1.0, 1.5]])
        expected = []
        for x in q:
            if x <= table[0] or x > table[-1]:
                expected.append(0 if x <= table[0] else 17)
                continue
            lo, hi = 0, 16
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if table[mid] < x else (lo, mid)
            expected.append(hi)
        np.testing.assert_array_equal(bracket_search(table)(q), expected)

    def test_sorted_table_matches_searchsorted(self):
        table = pair_for("sin").F1(np.linspace(0.0, 1.0, 4097))
        q = np.concatenate([np.random.default_rng(9).random(2000), EDGE_Q, table[::64]])
        np.testing.assert_array_equal(bracket_search(table)(q), np.searchsorted(table, q))

    def test_illinois_leaves_flat_rows_without_evaluating_F(self):
        # u^8 rises by less than 2^-8 of a cell's width below u = 0.05
        calls = []

        def F(u):
            calls.append(np.size(u))
            return np.asarray(u, dtype=float) ** 8

        cells = 1 << TABLE_BITS
        table = F(np.linspace(0.0, 1.0, cells + 1))
        kind = np.zeros(cells + 2, dtype=np.int8)
        kind[1:-1] = 1 + (np.diff(table) >= 2.0 ** -(TABLE_BITS + FLAT_BITS))
        q = 0.05 ** 8 * (1.0 - np.random.default_rng(10).random(200))
        j = bracket_search(table)(q)
        assert np.all(kind[j] == 1)
        calls.clear()
        _, rest = numerics._illinois(F, table, kind, q, j)
        np.testing.assert_array_equal(rest, np.arange(q.size))
        assert calls == []

    def test_illinois_stops_once_every_row_closes(self):
        # on F(u) = u the first secant step lands on q and the second closes
        # every bracket onto it, so the loop ends after two evaluations of F
        calls = []

        def F(u):
            calls.append(np.size(u))
            return np.asarray(u, dtype=float)

        cells = 1 << TABLE_BITS
        table = F(np.linspace(0.0, 1.0, cells + 1))
        kind = np.zeros(cells + 2, dtype=np.int8)
        kind[1:-1] = 1 + (np.diff(table) >= 2.0 ** -(TABLE_BITS + FLAT_BITS))
        q = np.random.default_rng(11).random(500)
        calls.clear()
        u, rest = numerics._illinois(F, table, kind, q, bracket_search(table)(q))
        np.testing.assert_array_equal(u, q)
        assert rest.size == 0 and calls == [q.size, q.size]

    @pytest.mark.parametrize("name", ["sin", "norm_lee", "hkii"])
    def test_search_route_depends_on_F_and_q_alone(self, name):
        # a row's value must not depend on the other rows of its call or on
        # when its chunk drops the rows whose brackets have closed
        cells = 1 << TABLE_BITS
        q = np.random.default_rng(1).random(1000)
        for F in (pair_for(name).F0, pair_for(name).F1):
            table = F(np.linspace(0.0, 1.0, cells + 1))
            kind = np.zeros(cells + 2, dtype=np.int8)
            kind[1:-1] = 1 + (np.diff(table) >= 2.0 ** -(TABLE_BITS + FLAT_BITS))
            batched = numerics._search_route(F, table, kind, q)
            one_row = [numerics._search_route(F, table, kind, q[i:i + 1]) for i in range(q.size)]
            split = [numerics._search_route(F, table, kind, part) for part in np.array_split(q, 7)]
            np.testing.assert_array_equal(np.concatenate(one_row), batched)
            np.testing.assert_array_equal(np.concatenate(split), batched)

    def test_bisection_inside_a_bracket(self):
        F = pair_for("sin").F0
        q = np.random.default_rng(5).random(100)
        lo = np.floor(bisect_cdf(F, q) * 4096) / 4096
        inside = bisect_cdf(F, q, 48, lo, lo + 1 / 4096)
        np.testing.assert_array_equal(inside, bisect_cdf(F, q))


# every catalog kernel at its default, and non-default points of the rows
# that take parameters
TAIL_POINTS = [(name, DEFAULT_PARAMS.get(name, {})) for name in CATALOG_IDS] + [
    ("hki", {"p": 0.5}), ("hki", {"p": 7}), ("hkii", {"q": 1.5}), ("hkii", {"q": 7}),
    ("bkb", {"p": 0.5, "q": 3.5}), ("bkb", {"p": 3, "q": 8}), ("lai_xie", {"a": 1.5, "b": 3}),
    ("lai_xie", {"a": 4, "b": 1.5}), ("lee_power", {"k": 1}), ("lee_power", {"k": 6}),
]


class TestFlatRuleTails:
    """Cells where F rises by less than 2^-FLAT_BITS of their width are
    bisected; every other row ends on a 2^-44 bracket. Checked where F is
    flattest, at q near 0 and 1, on the r-th power transforms as well."""

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    @pytest.mark.parametrize("name, params", TAIL_POINTS,
                             ids=[f"{n}{sorted(p.values())}" for n, p in TAIL_POINTS])
    def test_matches_bisection_in_the_tails(self, name, params, r):
        pair = calibrate_from_kernel(transform_kernel(catalog_lookup(name, params), r))
        rng = np.random.default_rng(r)
        q = np.concatenate([rng.random(3000), 10.0 ** -rng.uniform(0, 14, 3000),
                            1.0 - 10.0 ** -rng.uniform(0, 14, 3000)])
        for F in (pair.F0, pair.F1):
            u, ref = invert_cdf(F, q), bisect_cdf(F, q)
            assert np.max(np.abs(u - ref)) <= 1e-12
            assert np.all(F(u) >= q)
            # leftmost as in TestNumericInversion, where bisection is: at q
            # near 1e-9, F = u - lam g(u) can be rounding noise 1e-9 to the left
            # (lee_power k = 6, r = 2..4, F1)
            check = (np.minimum(u, ref) >= 1e-9) & (q >= 1e-9) & (q <= 1.0 - 1e-9)
            check[check] = F(ref[check] - 1e-9) < q[check]
            assert np.all(F(u[check] - 1e-9) < q[check])


def _per_row_guess(F, nodes, steep, q):
    """``numerics._guess`` with the six nodes gathered and differenced per
    row: the reference the shared difference table must reproduce bit for bit."""
    n, half = nodes.size - 1, 2.0 ** -(XTOL_BITS + 1)
    qn = q * n
    s = np.clip(qn.astype(np.intp) - (GUESS_POINTS // 2 - 1), 0, n + 1 - GUESS_POINTS)
    t = qn - s
    ys, diffs = [nodes[s + k] for k in range(GUESS_POINTS)], []
    while ys:
        diffs.append(ys[0])
        ys = [b - a for a, b in zip(ys, ys[1:])]
    x = diffs.pop()
    for k in range(len(diffs) - 1, -1, -1):
        x = diffs[k] + (t - k) / (k + 1) * x
    np.clip(x, half, 1.0 - half, out=x)
    ends = np.concatenate((x - half, x + half))
    vals = np.asarray(F(ends), dtype=float)
    ok = steep[(ends * (steep.size - 1)).astype(np.intp)]
    m = q.size
    ok = ok[:m] & ok[m:] & (vals[:m] < q) & (q <= vals[m:])
    return ends[m:], np.flatnonzero(~ok)


class TestGuessBytes:
    """The difference table formed once per call gives the per-row guesses."""

    @pytest.mark.parametrize("name", ["sin", "hkii", "explicit:fgm_damped"])  # hkii at q = 2
    @pytest.mark.parametrize("size", [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS + 1, 3 * CHUNK_ROWS + 5])
    def test_matches_per_row_newton(self, name, size):
        pair = NUMERIC_PAIRS[name]()
        q = np.random.default_rng(size).random(size)
        q[:len(EDGE_Q)] = EDGE_Q[:size]
        cells = 1 << TABLE_BITS
        for F in (pair.F0, pair.F1):
            table = np.asarray(F(np.linspace(0.0, 1.0, cells + 1)), dtype=float)
            kind = np.zeros(cells + 2, dtype=np.int8)
            kind[1:-1] = 1 + (np.diff(table) >= 2.0 ** -(TABLE_BITS + FLAT_BITS))
            steep = kind[1:] == 2
            nodes = numerics._inverse_nodes(F, table, kind)
            hi, rest = numerics._guess(F, numerics._differences(nodes), steep, q)
            ref_hi, ref_rest = _per_row_guess(F, nodes, steep, q)
            assert np.array_equal(hi, ref_hi)
            assert np.array_equal(rest, ref_rest)


@given(q=st.floats(0.0, 1.0), name=st.sampled_from(["fgm", "hkii", "lee_quadratic", "sin"]))
@settings(max_examples=60, deadline=None)
def test_quantile_roundtrip_property(q, name):
    pair = pair_for(name)
    for which, F in ((0, pair.F0), (1, pair.F1)):
        u = component_quantile(pair, which, q)
        assert float(F(u)) == pytest.approx(q, abs=1e-10)
