"""The package's quadrature, golden-section polish, sin_asym root, normal
cdf and quantile, beta function and batched bisection against references.

``quad01`` must agree with ``scipy.integrate.quad`` to 1e-12 at the same
points and tolerances, ``_refine_extremum`` must give the bits of
``scipy.optimize.minimize_scalar(method="golden")``, and the sin_asym root
must be Brent's double. ``ndtr``, ``ndtri`` and ``beta`` are held to 50-digit
mpmath values, and ``bisect_cdf`` to the one-level-per-call loop it replaced.
scipy and mpmath are references here only: the package loads neither.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar

from sarmanov import numerics
from sarmanov import CopulaConfig
from sarmanov.copula import _transform_generic
from sarmanov.errors import DegenerateKernel
from sarmanov.kernels import CATALOG_IDS, DEFAULT_PARAMS, catalog_lookup, custom_kernel, sin_asym_slope_root
from sarmanov.numerics import QUAD_NODES, QUAD_TOL, REFINE_XTOL, SLOPE_GRID, bisect_cdf, quad01

POWERS = range(2, 7)


@pytest.fixture(scope="module")
def transforms():
    """Generic r-th power transforms of every catalog row (the closed-form
    families too), as ``transform_kernel`` builds them for other rows."""
    return {(name, r): _transform_generic(catalog_lookup(name, DEFAULT_PARAMS.get(name, {})), r)
            for name in CATALOG_IDS for r in POWERS}


def scipy_quad01(f, breakpoints=(), tol=QUAD_TOL):
    """The QUADPACK call quad01 made before it was written in numpy."""
    pts = sorted(p for p in breakpoints if 0.0 < p < 1.0)
    return quad(lambda x: float(f(x)), 0.0, 1.0, points=pts or None,
                epsabs=tol, epsrel=tol, limit=200)[0]


def scipy_refine(f, lo, mid, hi, maximize):
    """The golden polish _refine_extremum made through scipy."""
    sign = -1.0 if maximize else 1.0
    fm = sign * float(f(mid))
    if not (fm < sign * float(f(lo)) and fm < sign * float(f(hi))):
        return float(f(mid))
    res = minimize_scalar(lambda x: sign * float(f(x)), bracket=(lo, mid, hi), method="golden",
                          options={"xtol": REFINE_XTOL})
    x = min(max(float(res.x), lo), hi)
    cand, grid = float(f(x)), float(f(mid))
    return max(cand, grid) if maximize else min(cand, grid)


def default_kernel(name):
    return catalog_lookup(name, DEFAULT_PARAMS.get(name, {}))


class TestQuadrature:
    @pytest.mark.parametrize("name", CATALOG_IDS)
    def test_catalog_g_and_phi(self, name):
        k = default_kernel(name)
        for f in (k.g, k.phi):
            assert abs(quad01(f, k.breakpoints) - scipy_quad01(f, k.breakpoints)) <= 1e-12

    def test_transforms(self, transforms):
        # custom_kernel integrates a transform's g_t with no breakpoints
        for (name, r), t in transforms.items():
            assert abs(quad01(t.g) - scipy_quad01(t.g)) <= 1e-12, (name, r)

    def test_kink_without_breakpoints(self, transforms):
        # checkerboard^<2> is x min(1, 1/x^2 - 1): its kink at 2^-1/2 is no panel edge
        g = transforms["checkerboard", 2].g
        x = np.linspace(0.125, 1.0, 8)
        np.testing.assert_allclose(g(x), x * np.minimum(1.0, 1.0 / x ** 2 - 1.0), rtol=1e-15)
        exact = math.log(2.0) / 2.0  # 1/4 from x on [0, 2^-1/2], ln(2)/2 - 1/4 from 1/x - x after
        assert abs(quad01(g) - exact) <= 1e-13
        assert abs(quad01(g) - scipy_quad01(g)) <= 1e-12

    def test_breakpoints_are_panel_edges(self):
        calls = []

        def step(x):
            calls.append(x.size)
            return np.where(x <= 0.3, 1.0, -2.0)
        assert quad01(step, [0.3, 0.3, 0.0, 1.5]) == pytest.approx(0.3 - 2 * 0.7, abs=1e-15)
        assert calls == [2 * 3 * QUAD_NODES]  # one round: each panel and its halves

    def test_panel_limit(self, monkeypatch):
        # a jump at 1/3 is never a panel edge, so the panel there is never accepted
        calls = []

        def jump(x):
            calls.append(x.size // (3 * QUAD_NODES))
            return np.where(x < 1 / 3, 1.0, 0.0)
        monkeypatch.setattr(numerics, "QUAD_PANELS", 6)
        assert quad01(jump) == pytest.approx(1 / 3, abs=2 ** -5)
        # each round keeps the half without the jump and halves the other,
        # until a sixth halving would make 7 panels
        assert calls == [1, 2, 2, 2, 2, 2]


class TestGoldenPolish:
    @staticmethod
    def brackets(f):
        """(lo, mid, hi, maximize) around the grid extremes of f on uniform
        grids, coarse ones included so that the polish takes many steps."""
        for size in (SLOPE_GRID, 2001, 101):
            xs = np.linspace(0.0, 1.0, size)
            vals = np.asarray(f(xs), dtype=float)
            for maximize, i in ((True, np.argmax(vals)), (False, np.argmin(vals))):
                if 0 < i < size - 1:
                    yield xs[i - 1], xs[i], xs[i + 1], maximize

    def check(self, f):
        polished = 0
        for lo, mid, hi, maximize in self.brackets(f):
            got = numerics._refine_extremum(f, lo, mid, hi, maximize)
            assert got == scipy_refine(f, lo, mid, hi, maximize)
            polished += got != float(f(mid))
        return polished

    def test_catalog_phi(self):
        assert sum(self.check(default_kernel(name).phi) for name in CATALOG_IDS) >= 20

    def test_transforms(self, transforms):
        assert sum(self.check(t.phi) for t in transforms.values()) >= 200


def one_array_scan(f):
    """The reference (sup, inf): f called once on all SLOPE_GRID points, then the same polish."""
    xs = np.linspace(0.0, 1.0, SLOPE_GRID)
    vals = np.asarray(f(xs), dtype=float)
    imax, imin = int(np.argmax(vals)), int(np.argmin(vals))
    sup, inf = float(vals[imax]), float(vals[imin])
    if 0 < imax < SLOPE_GRID - 1:
        sup = max(sup, numerics._refine_extremum(f, xs[imax - 1], xs[imax], xs[imax + 1], True))
    if 0 < imin < SLOPE_GRID - 1:
        inf = min(inf, numerics._refine_extremum(f, xs[imin - 1], xs[imin], xs[imin + 1], False))
    return sup, inf


class TestScan:
    plateaus = {  # extremes reached at several grid points, and NaN in one block or in two
        "plateaus": lambda u: np.clip(np.sin(5 * np.pi * np.asarray(u, float)), -0.9, 0.9),
        "nan_late": lambda u: np.where(np.asarray(u) > 0.99, np.nan, np.cos(7 * np.asarray(u, float))),
        "nan_twice": lambda u: np.where(np.abs(np.asarray(u) - 0.5) > 0.45, np.nan, np.asarray(u, float)),
    }

    def check(self, f):
        sizes = []
        got = numerics.scan_extrema(lambda u: sizes.append(np.size(u)) or f(u))
        assert max(sizes) <= numerics.SCAN_BLOCK
        np.testing.assert_array_equal(got, one_array_scan(f))

    @pytest.mark.parametrize("name", [*CATALOG_IDS, *plateaus])
    def test_blocks_keep_the_one_array_scan(self, name):
        self.check(self.plateaus[name] if name in self.plateaus else default_kernel(name).phi)

    def test_transforms(self, transforms):
        for t in transforms.values():
            self.check(t.phi)

    def test_nan_phi_is_degenerate(self):
        # argmax and argmin take a NaN as the extreme, so the slope check sees it
        with pytest.raises(DegenerateKernel, match="derivative extremes"):
            custom_kernel(lambda u: np.asarray(u, float) * (1.0 - np.asarray(u, float)),
                          phi=lambda u: np.where(np.asarray(u) > 0.99, np.nan, np.ones_like(np.asarray(u, float))))


def test_quadrature_rule_is_numpys_leggauss():
    # the rule is kept as constants, so that quad01 imports no numpy.polynomial
    nodes, weights = np.polynomial.legendre.leggauss(QUAD_NODES)
    rule = np.concatenate((numerics._GAUSS[:, ::-1] * [[-1.0], [1.0]], numerics._GAUSS), axis=1)
    np.testing.assert_array_equal(rule, [nodes, weights])


def test_sin_asym_root_is_brents_double():
    ref = brentq(lambda y: y * math.tan(y) - 2.0, 1e-12, math.pi / 2 - 1e-9, xtol=1e-14)
    assert sin_asym_slope_root() == ref


def ulps(got, ref) -> float:
    """|got - ref| in units of the last place of ref rounded to a double."""
    return float(abs(mpmath.mpf(float(got)) - ref) / mpmath.mpf(math.ulp(float(ref))))


class TestNormal:
    """Cody's cdf and Cephes' quantile against mpmath at 50 digits."""

    @pytest.fixture(autouse=True)
    def digits(self):
        with mpmath.workdps(50):
            yield

    @staticmethod
    def quantile(p):
        """Phi^-1(p) to 50 digits; below 1/2 by root finding, where 1 - 2p
        would round to 1."""
        p = mpmath.mpf(float(p))
        if p >= 0.5:
            return mpmath.sqrt(2) * mpmath.erfinv(2 * p - 1)
        return mpmath.findroot(lambda x: mpmath.ncdf(x) - p, float(numerics.ndtri(float(p))))

    def test_ndtri_within_4_ulp(self):
        # Cephes' ndtri reads 3.8 ulp at most on 20,000 uniform p (2.0 on
        # log-uniform p down to 1e-300); AS241 in doubles reads up to 5.9
        rng = np.random.default_rng(25)
        p = np.concatenate([rng.uniform(0.0, 1.0, 600), 10.0 ** rng.uniform(-300, 0, 300),
                            1.0 - 10.0 ** rng.uniform(-16, 0, 300)])
        got = numerics.ndtri(p)
        worst = max(ulps(g, self.quantile(x)) for g, x in zip(got, p))
        assert worst <= 4.0

    def test_ndtri_is_scipys_routine(self):
        # e^-2 < p <= 1 - e^-2 takes scipy's arithmetic bit for bit; the tails take
        # numpy's log, which may differ from libm's by an ulp
        from scipy.special import ndtri

        rng = np.random.default_rng(24)
        p = rng.uniform(0.0, 1.0, 20000)
        central = (p > math.exp(-2.0)) & (p <= 1.0 - math.exp(-2.0))
        np.testing.assert_array_equal(numerics.ndtri(p[central]), ndtri(p[central]))
        tails = np.concatenate([p[~central], 10.0 ** rng.uniform(-300, -1, 2000)])
        np.testing.assert_array_max_ulp(numerics.ndtri(tails), ndtri(tails), maxulp=1)

    def test_ndtr_within_16_ulp(self):
        # relative to Phi(x) wherever Phi(x) >= 1e-300: Phi(-37.5) keeps its
        # digits, where scipy's ndtr reads more than a thousand ulp off
        rng = np.random.default_rng(26)
        x = np.concatenate([rng.uniform(-37.5, 9.0, 1500), rng.uniform(-1.0, 1.0, 300),
                            [-37.5, -32 ** 0.5, -0.66291, 0.66291, 32 ** 0.5]])
        refs = [mpmath.ncdf(mpmath.mpf(float(v))) for v in x]
        assert max(ulps(g, r) for g, r in zip(numerics.ndtr(x), refs)) <= 16.0

    def test_exact_points(self):
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 64.0, -64.0, 1e300, -1e300])
        np.testing.assert_array_equal(numerics.ndtr(x), [0.5, 0.5, 1.0, 0.0, np.nan, 1.0, 0.0, 1.0, 0.0])
        p = np.array([0.0, 1.0, 0.5, np.nan, -0.1, 1.1])
        np.testing.assert_array_equal(numerics.ndtri(p), [-np.inf, np.inf, 0.0, np.nan, np.nan, np.nan])

    @pytest.mark.parametrize("f, arg", [(numerics.ndtr, 0.3), (numerics.ndtri, 0.3)])
    def test_scalars_and_shapes(self, f, arg):
        # as scipy's ufuncs: a float or a 0-d array gives a numpy scalar
        for a in (arg, np.array(arg)):
            out = f(a)
            assert isinstance(out, np.float64) and out == f(np.array([arg]))[0]
        assert f(np.array([])).shape == (0,)
        grid = np.linspace(0.01, 0.99, 12).reshape(3, 4)
        np.testing.assert_array_equal(f(grid), f(grid.ravel()).reshape(3, 4))

    def test_norm_lee_constants(self):
        # Lambda, lam and pi are closed forms, kappa is c (Phi(3^-1/2) - 1/2):
        # the first three keep the bits scipy's build gave, kappa within an ulp
        k = catalog_lookup("norm_lee", {})
        assert k.Lambda == float.fromhex("0x1.4140e40cd44a4p-1")
        assert k.lam == float.fromhex("-0x1.c74dae642233dp-1")
        assert k.Lambda / (k.Lambda - k.lam) == float.fromhex("0x1.a79e3b6a9eb01p-2")
        assert abs(k.kappa - float.fromhex("0x1.f666e89ea42e7p-3")) <= math.ulp(k.kappa)
        c = mpmath.exp(mpmath.mpf(2) / 3) / mpmath.sqrt(3)
        assert ulps(k.kappa, c * (mpmath.ncdf(1 / mpmath.sqrt(3)) - 0.5)) <= 2.0

    def test_norm_lee_scalar_calls(self):
        # the rectangle oracle and the mixture enumeration call F at scalars
        cfg = {"schema": "sarmanov-config/1", "d": 2, "theta": 0.3,
               "margins": [{"kernel": {"id": "norm_lee"}}, {"kernel": {"id": "lee_exponential"}}]}
        model = CopulaConfig.from_dict(cfg).build()
        assert model.mixture_cdf_oracle([0.3, 0.6]) == pytest.approx(float(model.cdf(np.array([0.3, 0.6]))),
                                                                   abs=1e-14)


class TestBeta:
    @pytest.fixture(autouse=True)
    def digits(self):
        with mpmath.workdps(40):
            yield

    def test_within_4_ulp(self):
        # 0.5 here: the sum of log-gammas is formed in decimal digits to spare;
        # math.gamma alone reads up to 6.5 ulp, and scipy's beta 635 here
        rng = np.random.default_rng(27)
        x, y = rng.uniform(0.05, 80.0, (2, 400))
        worst = max(ulps(numerics.beta(a, b), mpmath.beta(a, b)) for a, b in zip(x.tolist(), y.tolist()))
        assert worst <= 4.0

    @pytest.mark.parametrize("a, b", [
        (2e7, 2.5), (1e9, 0.3), (3e7, 1e-3), (1e300, 1e-300),  # one argument dwarfs the other
        (150.5, 90.25), (400.75, 2.5), (1e-300, 2.0),  # past Gamma's range, and near 0
    ])
    def test_large_and_small_arguments(self, a, b):
        assert ulps(numerics.beta(a, b), mpmath.beta(a, b)) <= 4.0

    def test_catalog_areas(self):
        # bkb and lai_xie at non-integer parameters take the float beta
        for name, params, ref in [("bkb", {"p": 1.5, "q": 2}, mpmath.beta(2 / 1.5, 3) / 1.5),
                                  ("lai_xie", {"a": 2.5, "b": 3.5}, mpmath.beta(4.5, 3.5))]:
            assert ulps(catalog_lookup(name, params).kappa, ref) <= 4.0


def reference_bisection(F, q, iters, lo, hi):
    """The one-level-per-call bisection that bisect_cdf batches."""
    q = np.asarray(q, dtype=float)
    lo, hi = np.full(q.shape, lo, dtype=float), np.full(q.shape, hi, dtype=float)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        below = np.asarray(F(mid)) < q
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return hi


class TestBisection:
    @pytest.mark.parametrize("rows", [1, 4, 17, 85, 341, 342, 2000])
    def test_equals_one_level_per_call(self, rows):
        calls = []

        def F(u):
            calls.append(np.size(u))
            return u - 0.3 * np.sin(np.pi * u) / np.pi

        q = np.random.default_rng(rows).uniform(0.0, 1.0, rows)
        got = bisect_cdf(F, q)
        np.testing.assert_array_equal(got, reference_bisection(F, q, 60, 0.0, 1.0))
        assert max(calls[:-60]) <= max(numerics.TREE_POINTS, rows)
        # the batched calls before the reference's 60: fewer calls for fewer rows
        assert len(calls) - 60 == -(-60 // max(1, (numerics.TREE_POINTS // rows + 1).bit_length() - 1))

    def test_not_monotone(self):
        # F evaluated with noise is not monotone: the walk repeats bisection's path
        def F(u):
            u = np.asarray(u, dtype=float)
            return u + 1e-3 * np.sin(2e4 * u)
        q = np.random.default_rng(3).uniform(0.1, 0.9, 7)
        for iters, lo, hi in ((60, 0.0, 1.0), (48, 0.25, 0.5), (5, np.zeros(7), np.full(7, 0.75))):
            np.testing.assert_array_equal(bisect_cdf(F, q, iters, lo, hi),
                                          reference_bisection(F, q, iters, lo, hi))

    def test_scalar_and_shape(self):
        F = lambda u: np.asarray(u, dtype=float) ** 2  # noqa: E731
        assert bisect_cdf(F, 0.25).shape == ()
        assert bisect_cdf(F, 0.25) == reference_bisection(F, 0.25, 60, 0.0, 1.0)
        q = np.linspace(0.1, 0.9, 6).reshape(2, 3)
        np.testing.assert_array_equal(bisect_cdf(F, q), reference_bisection(F, q, 60, 0.0, 1.0))
