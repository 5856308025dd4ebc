"""Copula assembly: intervals, cdf routes, oracle, conversions, powers."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sarmanov import copula
from sarmanov.bernoulli import (
    BivariateThetaSpec,
    ExchangeableSumSpec,
    FullPmfSpec,
    comonotone,
    end3,
    epd,
    independent,
    sample_indices,
    theta_range_bivariate,
)
from sarmanov.calibration import calibrate_from_kernel
from sarmanov.copula import (
    SarmanovCopula,
    admissible_a_interval,
    build_powered,
    d_increasing_oracle,
    farlie_to_sarmanov,
    make_bivariate,
    normalized_kernel,
    transform_kernel,
)
from sarmanov.errors import (
    DegenerateKernel,
    DimensionTooLarge,
    NoDerivative,
    NotAdmissible,
    ParamOutOfRange,
    UnboundedAtOrigin,
)
from sarmanov.kernels import CATALOG_IDS, DEFAULT_PARAMS, Kernel, catalog_lookup, custom_kernel
from sarmanov.measures import orthant_rho, orthant_rho_exact, spearman_analytic_exact
from sarmanov.sampling import sample, sample_powered

POWERED_KERNELS = ("fgm", "hki", "hkii", "bkb", "sin", "sin_squared", "fgm_damped")


def kernel(name, **params):
    return catalog_lookup(name, params)


class TestAdmissibleInterval:
    def test_fgm(self):
        assert admissible_a_interval(kernel("fgm"), kernel("fgm")) == (-1.0, 1.0)

    def test_hki_p2(self):
        k = kernel("hki", p=2)
        assert admissible_a_interval(k, k) == (-0.25, 0.5)

    def test_legendre2(self):
        k = kernel("legendre2")
        assert admissible_a_interval(k, k) == (-1.0, 2.0)

    @pytest.mark.parametrize("q,upper", [(2, 3.0), (3, 4.0)])
    def test_hkii_upper_endpoint(self, q, upper):
        k = kernel("hkii", q=q)
        lo, hi = admissible_a_interval(k, k)
        assert hi == pytest.approx(upper, abs=1e-12)
        assert lo == pytest.approx(-1.0, abs=1e-12)

    def test_bkb_22_matches_closed_forms(self):
        k = kernel("bkb", p=2, q=2)
        lam = -(1 + 2 * 2) ** (2 - 1) / (2 ** 2 * (2 - 1) ** (2 - 1))
        lo, hi = admissible_a_interval(k, k)
        assert hi == pytest.approx(abs(lam), abs=1e-12)
        assert lo == pytest.approx(-min(1.0, lam * lam), abs=1e-12)

    @pytest.mark.parametrize("a", [float("nan"), float("inf")])
    def test_non_finite_a_refused(self, a):
        with pytest.raises(ValueError):
            make_bivariate(kernel("fgm"), kernel("fgm"), a=a)

    def test_asymmetric_pair(self):
        k1, k2 = kernel("fgm"), kernel("hkii", q=2)
        lo, hi = admissible_a_interval(k1, k2)
        assert (lo, hi) == (-min(1.0, 3.0), min(3.0, 1.0))

    def test_agrees_with_theta_range(self):
        for n1, p1, n2, p2 in [
            ("fgm", {}, "hkii", {"q": 2}),
            ("hki", {"p": 2}, "bkb", {"p": 2, "q": 2}),
            ("checkerboard", {}, "sin_asym", {}),
        ]:
            k1, k2 = catalog_lookup(n1, p1), catalog_lookup(n2, p2)
            pi1 = k1.Lambda / (k1.Lambda - k1.lam)
            pi2 = k2.Lambda / (k2.Lambda - k2.lam)
            tlo, thi = theta_range_bivariate(pi1, pi2)
            alo, ahi = admissible_a_interval(k1, k2)
            assert alo == pytest.approx(k1.Lambda * k2.Lambda * tlo, rel=1e-12)
            assert ahi == pytest.approx(k1.Lambda * k2.Lambda * thi, rel=1e-12)

    def test_degenerate_rejected(self):
        zero = custom_kernel(lambda u: np.zeros_like(np.asarray(u, float)))
        with pytest.raises(DegenerateKernel):
            admissible_a_interval(zero, kernel("fgm"))


class TestCdf:
    def test_groundedness_and_margins(self):
        c = make_bivariate(kernel("fgm"), kernel("hkii", q=2), a=1.0)
        assert c.cdf([0.0, 0.7]) == 0.0
        assert c.cdf([0.3, 0.0]) == 0.0
        u = np.linspace(0, 1, 101)
        np.testing.assert_allclose(c.cdf(np.column_stack([u, np.ones_like(u)])), u, atol=1e-12)
        np.testing.assert_allclose(c.cdf(np.column_stack([np.ones_like(u), u])), u, atol=1e-12)

    def test_fgm_midpoint_value(self):
        c = make_bivariate(kernel("fgm"), kernel("fgm"), a=1.0)
        assert c.cdf([0.5, 0.5]) == pytest.approx(5 / 16, abs=1e-16)

    def test_matches_closed_form_everywhere(self):
        c = make_bivariate(kernel("fgm"), kernel("fgm"), a=0.7)
        pts = np.random.default_rng(2).random((500, 2))
        closed = pts[:, 0] * pts[:, 1] * (1 + 0.7 * (1 - pts[:, 0]) * (1 - pts[:, 1]))
        np.testing.assert_allclose(c.cdf(pts), closed, atol=1e-14)

    @pytest.mark.parametrize("spec", [
        ("fgm", {}, "fgm", {}, 1.0),
        ("hki", {"p": 2}, "hkii", {"q": 2}, 0.4),
        ("checkerboard", {}, "checkerboard", {}, -1.0),
        ("lee_quadratic", {}, "two_slope", {}, -0.3),
    ])
    def test_mixture_enumeration_equivalence(self, spec):
        n1, p1, n2, p2, a = spec
        c = make_bivariate(catalog_lookup(n1, p1), catalog_lookup(n2, p2), a=a)
        pts = np.random.default_rng(7).random((1000, 2))
        direct = c.cdf(pts)
        oracle = np.array([c.mixture_cdf_oracle(p) for p in pts])
        np.testing.assert_allclose(direct, oracle, atol=1e-14)

    @staticmethod
    def _five_term(c, pts):
        g = [np.asarray(c.margins[m].g(pts[:, m])) for m in range(3)]
        return (pts.prod(axis=1)
                + c.bern.mixed_moment([1, 2]) * g[0] * g[1] * pts[:, 2]
                + c.bern.mixed_moment([1, 3]) * g[0] * pts[:, 1] * g[2]
                + c.bern.mixed_moment([2, 3]) * pts[:, 0] * g[1] * g[2]
                + c.bern.mixed_moment([1, 2, 3]) * g[0] * g[1] * g[2])

    def test_trivariate_five_term_formula_exchangeable(self):
        c = SarmanovCopula(
            tuple(calibrate_from_kernel(kernel("fgm")) for _ in range(3)),
            epd(3),
        )
        pts = np.random.default_rng(5).random((1000, 3))
        np.testing.assert_allclose(c.cdf(pts), self._five_term(c, pts), atol=1e-14)

    def test_trivariate_five_term_formula_general_pmf(self):
        # symmetric-margin pmf (palindromized) so pi_m = 1/2 matches the pairs
        raw = np.random.default_rng(3).random(8)
        pmf = raw + raw[np.arange(8) ^ 7]
        pmf /= pmf.sum()
        bern = FullPmfSpec(pmf)
        pairs = tuple(calibrate_from_kernel(kernel("fgm")) for _ in range(3))
        c = SarmanovCopula(pairs, bern)
        pts = np.random.default_rng(8).random((1000, 3))
        np.testing.assert_allclose(c.cdf(pts), self._five_term(c, pts), atol=1e-14)

    def test_independent_fast_path(self):
        pairs = tuple(calibrate_from_kernel(kernel("fgm")) for _ in range(4))
        c = SarmanovCopula(pairs, independent([0.5] * 4))
        pts = np.random.default_rng(11).random((100, 4))
        np.testing.assert_allclose(c.cdf(pts), pts.prod(axis=1), atol=1e-15)

    def test_margin_mismatch_rejected(self):
        pairs = (calibrate_from_kernel(kernel("fgm")),
                 calibrate_from_kernel(kernel("hki", p=2)))
        with pytest.raises(ValueError):
            SarmanovCopula(pairs, BivariateThetaSpec(0.5, 0.5, 0.2))

    def test_dimension_cap(self):
        # the cap holds only where a 2^d table is built: the comonotone cdf
        # and orthant coefficients sum d + 1 states, and an independent law
        # is the plain product, at any d
        d = 21
        pairs = tuple(calibrate_from_kernel(kernel("fgm")) for _ in range(d))
        c = SarmanovCopula(pairs, comonotone([0.5] * d))
        with pytest.raises(DimensionTooLarge):
            c.bern.pmf_table()
        # half the mass on all-zeros, half on all-ones: F0(1/2) = 1/4, F1(1/2) = 3/4
        assert c.cdf(np.full(d, 0.5)) == pytest.approx((0.25 ** d + 0.75 ** d) / 2, rel=1e-15)
        assert all(math.isfinite(r) for r in orthant_rho(c))
        free = SarmanovCopula(pairs, independent([0.5] * d))
        pts = np.random.default_rng(21).random((50, d))
        assert np.array_equal(free.cdf(pts), pts.prod(axis=1))

    def test_pmf_spec_equals_theta_spec(self):
        # the same law through two different spec variants gives one cdf
        th = 0.37
        direct = make_bivariate(kernel("fgm"), kernel("fgm"), theta=th)
        q = 0.25 * th
        pmf = FullPmfSpec([0.25 + q, 0.25 - q, 0.25 - q, 0.25 + q])
        via_pmf = SarmanovCopula(direct.margins, pmf)
        pts = np.random.default_rng(15).random((200, 2))
        np.testing.assert_allclose(direct.cdf(pts), via_pmf.cdf(pts), atol=1e-15)


def _two_route_cdf(c, pts):
    """The cdf body before the expansion hook: a per-theta loop for sparse
    laws, one doubling pass over all subset products otherwise."""
    thetas = c.bern.thetas_by_mask()
    out = np.prod(pts, axis=1)
    if thetas:
        cols_u = [pts[:, m] for m in range(c.d)]
        cols_g = [np.asarray(c.margins[m].g(pts[:, m]), dtype=float) for m in range(c.d)]
        if len(thetas) * c.d <= (1 << c.d):
            for mask, th in thetas.items():
                term = np.ones(pts.shape[0])
                for m in range(c.d):
                    term = term * (cols_g[m] if (mask >> m) & 1 else cols_u[m])
                out = out + th * term
        else:
            prods = np.ones((1, pts.shape[0]))
            for m in range(c.d):
                prods = np.concatenate([prods * cols_u[m], prods * cols_g[m]])
            for mask, th in thetas.items():
                out = out + th * prods[mask]
    return out


def _subset_orthant_exact(c):
    """The orthant sum before the expansion hook, per subset (e_k for
    exchangeable laws), in exact arithmetic."""
    kappas = [p.induced.kappa_exact for p in c.margins]
    if isinstance(c.bern, ExchangeableSumSpec):
        e = [Fraction(1)] + [Fraction(0)] * c.d
        for x in kappas:
            for k in range(c.d, 0, -1):
                e[k] = e[k] + x * e[k - 1]
        terms = [(k, c.bern.theta_k_exact(k), e[k]) for k in range(2, c.d + 1)]
    else:
        terms = [(mask.bit_count(), Fraction(th),
                  math.prod((kappas[m] for m in range(c.d) if (mask >> m) & 1), start=Fraction(1)))
                 for mask, th in c.bern.thetas_by_mask().items()]
    coef = Fraction(c.d + 1, (1 << c.d) - (c.d + 1))
    return (coef * sum((2 ** k * th * ks for k, th, ks in terms), Fraction(0)),
            coef * sum(((-2) ** k * th * ks for k, th, ks in terms), Fraction(0)))


def _mixture_orthant_exact(c):
    """(rho_d^-, rho_d^+) as c_d (E prod_m (1 +- 2 kappahat_m Z_m) - 1), summed
    over all 2^d states in exact arithmetic, with the weights and margins
    the law's mix hook reads: Fraction(w_j) / C(d, j) and the exact mean of
    an exchangeable law, the float pmf and margins otherwise."""
    bern, d = c.bern, c.d
    if isinstance(bern, ExchangeableSumSpec):
        pis = [bern._pi_frac] * d
        mass = [bern._w_frac[s.bit_count()] / math.comb(d, s.bit_count()) for s in range(1 << d)]
    else:
        pis = [Fraction(float(p)) for p in bern.pi]
        mass = [Fraction(float(p)) for p in bern.pmf_table()]
    kappas = [p.induced.kappa_exact for p in c.margins]
    out = []
    for sign in (1, -1):
        total = Fraction(0)
        for s, term in enumerate(mass):
            for m in range(d):
                z = (1 - pis[m]) / pis[m] if (s >> m) & 1 else -1
                term *= 1 + sign * 2 * kappas[m] * z
            total += term
        out.append(Fraction(d + 1, (1 << d) - (d + 1)) * (total - 1))
    return tuple(out)


def _pinned_laws(d, rng):
    """(random-weight laws, laws whose float weights sum to 1 exactly)."""
    raw = rng.random(1 << d)
    pmf = raw + raw[::-1]  # state and complement share mass: pi_m = 1/2
    w = rng.random(d + 1)
    dyadic = [comonotone([0.5] * d), epd(d), independent([0.5] * d)]
    if d == 2:
        dyadic.append(BivariateThetaSpec(0.5, 0.5, rng.uniform(-1.0, 1.0)))
    return [FullPmfSpec(pmf / pmf.sum()), ExchangeableSumSpec((w + w[::-1]) / (w + w[::-1]).sum())], dyadic


class TestExpansionHook:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_matches_old_routes(self, d):
        # the mixture hook against the two theta cdf routes and the
        # per-subset orthant sum it replaced; fgm/checkerboard margins keep
        # the orthant route exact. Where the Fraction weights sum to 1 the
        # routes agree exactly; otherwise the singleton terms no longer
        # vanish and they part by an ulp, so the mixture gets its own
        # exact reference
        rng = np.random.default_rng(100 + d)
        names = ("fgm", "checkerboard", "sin")
        pts = rng.random((300, d))
        random_laws, dyadic_laws = _pinned_laws(d, rng)
        for bern in random_laws + dyadic_laws:
            exact = tuple(calibrate_from_kernel(kernel(names[m % 2])) for m in range(d))
            floats = tuple(calibrate_from_kernel(kernel(names[m % 3])) for m in range(d))
            for pairs in (exact, floats):
                c = SarmanovCopula(pairs, bern)
                assert np.max(np.abs(c.cdf(pts) - _two_route_cdf(c, pts))) <= 1e-15
            c = SarmanovCopula(exact, bern)
            got, theta_ref = orthant_rho_exact(c), _subset_orthant_exact(c)
            if bern in dyadic_laws:
                assert got == theta_ref
            else:
                # at d = 2 both coefficients are rho_S = 12 theta kappahat_1 kappahat_2
                mixture = _mixture_orthant_exact(c)
                assert got == (mixture if d > 2 else (spearman_analytic_exact(c),) * 2)
                assert max(abs(float(g - r)) for g, r in zip(got, mixture)) <= 4e-16
                assert max(abs(float(g - r)) for g, r in zip(got, theta_ref)) <= 4e-16

    def test_exchangeable_d200_matches_monte_carlo(self):
        # no 2^d table is built: the cdf runs the O(d^2) recurrence
        d, n = 200, 20_000
        c = SarmanovCopula((calibrate_from_kernel(kernel("fgm")),) * d, epd(d))
        rows = sample(c, n, seed=7).rows
        for t in (0.98, 0.99, 0.995):
            v = c.cdf(np.full(d, t))
            freq = float(np.mean(np.all(rows <= t, axis=1)))
            assert abs(freq - v) <= 4.0 * math.sqrt(v * (1.0 - v) / n)

    def test_comonotone_d200_matches_monte_carlo(self):
        # d + 1 threshold states, no 2^d table. The cdf is checked against
        # row frequencies; rho_d^-+ against the mean of
        # c_d (prod_m (1 +- 2 kappahat_m Z_m) - 1) over sampled index
        # states, whose d + 1 values keep the sample mean well behaved
        # (the plug-in row functionals are log-normal-like at this d)
        d, n = 200, 20_000
        pairs = tuple(calibrate_from_kernel(kernel("hki", p=p)) for p in (0.5, 1.0, 2.0, 3.0) * 50)
        c = SarmanovCopula(pairs, comonotone([p.pi for p in pairs]))
        rows = sample(c, n, seed=7).rows
        for t in (0.98, 0.99, 0.995, 0.998):
            v = c.cdf(np.full(d, t))
            freq = float(np.mean(np.all(rows <= t, axis=1)))
            assert abs(freq - v) <= 4.0 * math.sqrt(v * (1.0 - v) / n)
        z = (sample_indices(c.bern, n, seed=8) - c.bern.pi) / c.bern.pi
        kappas = np.array([p.induced.kappa for p in pairs])
        coef = (d + 1) / (2.0 ** d - (d + 1))
        for sign, rho in zip((1, -1), orthant_rho(c)):
            vals = coef * (np.prod(1.0 + sign * 2.0 * kappas * z, axis=1) - 1.0)
            assert abs(vals.mean() - rho) <= 4.0 * vals.std(ddof=1) / math.sqrt(n)

    def test_exchangeable_thetas_computed_once(self, monkeypatch):
        # theta_2..theta_d of a dense w cost O(d^3) Fraction operations; the
        # cdf and the orthant coefficients run the mixture and need none
        d = 40
        w = np.random.default_rng(3).random(d + 1)
        w = (w + w[::-1]) / 2.0
        law = ExchangeableSumSpec(w / w.sum())
        calls = []
        original = ExchangeableSumSpec.theta_k_exact

        def counted(self, k):
            calls.append(k)
            return original(self, k)

        monkeypatch.setattr(ExchangeableSumSpec, "theta_k_exact", counted)
        c = SarmanovCopula((calibrate_from_kernel(kernel("sin")),) * d, law)
        pts = np.random.default_rng(4).uniform(0.6, 1.0, (50, d))
        first, second = c.cdf(pts), c.cdf(pts)
        orthant_rho(c)
        assert calls == []
        np.testing.assert_array_equal(first, second)


class TestDensity:
    def test_independence(self):
        c = make_bivariate(kernel("fgm"), kernel("fgm"), a=0.0)
        u = np.random.default_rng(1).random(50)
        np.testing.assert_allclose(c.density(np.column_stack((u, u[::-1]))), 1.0, atol=1e-15)

    def test_fgm_corners(self):
        c = make_bivariate(kernel("fgm"), kernel("fgm"), a=1.0)
        assert c.density([0.0, 0.0]) == pytest.approx(2.0)
        assert c.density([0.0, 1.0]) == pytest.approx(0.0, abs=1e-15)

    def test_nonnegative_when_admissible(self):
        for a in (-1.0, -0.3, 0.5, 1.0):
            c = make_bivariate(kernel("fgm"), kernel("fgm"), a=a)
            u = np.linspace(0, 1, 41)
            uu, vv = np.meshgrid(u, u)
            assert np.min(c.density(np.column_stack((uu.ravel(), vv.ravel())))) >= -1e-12

    def test_matches_cdf_finite_difference(self):
        c = make_bivariate(kernel("hkii", q=2), kernel("sin"), a=0.8)
        h = 1e-5
        for u, v in [(0.3, 0.6), (0.7, 0.2), (0.5, 0.5)]:
            inc = (c.cdf([u + h, v + h]) - c.cdf([u + h, v])
                   - c.cdf([u, v + h]) + c.cdf([u, v])) / h ** 2
            assert inc == pytest.approx(c.density([u, v]), abs=5e-4)

    def test_requires_derivative(self):
        base = kernel("fgm")
        stripped = Kernel(
            id="custom", params={}, g=base.g, phi=None,
            Lambda=base.Lambda, lam=base.lam, kappa=base.kappa,
            sign_constant=True,
        )
        c = make_bivariate(stripped, stripped, a=0.5)
        with pytest.raises(NoDerivative):
            c.density([0.5, 0.5])

    def test_bivariate_closed_form_on_every_catalog_pair(self):
        # c = 1 + theta phihat1 phihat2, to 1e-15 of the size of its terms
        ks = [catalog_lookup(name, DEFAULT_PARAMS.get(name, {})) for name in CATALOG_IDS]
        pts = np.vstack([np.random.default_rng(8).random((200, 2)), [[0, 0], [0, 1], [1, 0], [1, 1]]])
        for k1 in ks:
            for k2 in ks:
                for a in admissible_a_interval(k1, k2):
                    c = make_bivariate(k1, k2, a=a)
                    phi1, phi2 = (p.induced.phi(x) for p, x in zip(c.margins, pts.T))
                    term = c.theta * phi1 * phi2
                    err = np.abs(c.density(pts) - (1.0 + term))
                    assert np.all(err <= 1e-15 * (1.0 + np.abs(term))), (k1.id, k2.id, a)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_integrates_to_the_cdf_increment_for_every_law(self, d):
        # a tensor Gauss-Legendre integral of c over a box away from kernel
        # breakpoints equals the inclusion-exclusion increment of C; a mixed
        # central difference cannot check d = 5, where 2^d eps / h^d swamps it
        rng = np.random.default_rng(d)

        def margins(*names):
            return [calibrate_from_kernel(catalog_lookup(n, DEFAULT_PARAMS.get(n, {}))) for n in names[:d]]

        distinct = margins("fgm", "hkii", "sin_asym", "norm_lee", "exp_bridge")
        half = margins("sin", "fgm", "sin_squared", "lee_quadratic", "lai_xie")  # pi = 1/2
        pis = np.array([p.pi for p in distinct])
        w = rng.random(d + 1)
        laws = [(distinct, FullPmfSpec(_two_component_pmf(pis, rng))),
                (half, ExchangeableSumSpec((w + w[::-1]) / (w + w[::-1]).sum())),
                (half, epd(d)), (distinct, independent(pis)), (distinct, comonotone(pis))]
        if d == 3:
            laws.append((half, end3()))
        for pairs, law in laws:
            c = SarmanovCopula(tuple(pairs), law)
            for _ in range(3):
                side = rng.uniform(0.1, 0.3, d)
                lo = rng.uniform(0.02, 0.98 - side)
                inc = _box_increment(c.cdf, lo, lo + side)
                got = _gauss_legendre(c.density, lo, lo + side)
                assert got == pytest.approx(inc, rel=1e-9), law.kind


def _two_component_pmf(pis, rng):
    """Full pmf of an equal mixture of two product laws with margins pis."""
    bits = (np.arange(1 << pis.size)[:, None] >> np.arange(pis.size)) & 1
    delta = rng.uniform(-0.6, 0.6, pis.size) * np.minimum(1.0, (1.0 - pis) / pis)
    return sum(0.5 * np.prod(np.where(bits == 1, p, 1.0 - p), axis=1)
               for p in (pis * (1.0 + delta), pis * (1.0 - delta)))


def _gauss_legendre(f, lo, hi, nodes=8):
    """Tensor Gauss-Legendre rule for the integral of f over the box [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    axes = (lo + hi) / 2 + (hi - lo) / 2 * x[:, None]
    pts = np.stack(np.meshgrid(*axes.T, indexing="ij"), axis=-1).reshape(-1, lo.size)
    weights = np.prod(np.meshgrid(*[w] * lo.size, indexing="ij"), axis=0).ravel()
    return float(f(pts) @ weights) * float(np.prod((hi - lo) / 2))


def _box_increment(cdf, lo, hi):
    """C-volume of the box [lo, hi]: the 2^d corners with signs."""
    on = (np.arange(1 << lo.size)[:, None] >> np.arange(lo.size)) & 1 == 1
    return float(cdf(np.where(on, hi, lo)) @ (-1.0) ** (lo.size - on.sum(axis=1)))


def _comonotone_copula(kernels):
    pairs = tuple(calibrate_from_kernel(k) for k in kernels)
    return SarmanovCopula(pairs, comonotone([p.pi for p in pairs]))


class TestOracle:
    def test_admissible_fgm_passes(self):
        c = make_bivariate(kernel("fgm"), kernel("fgm"), a=1.0)
        rep = d_increasing_oracle(c.cdf, 2, 50)
        assert rep.passed and rep.min_increment >= -1e-12

    def test_inadmissible_form_fails_near_corner(self):
        bad = lambda P: P[:, 0] * P[:, 1] * (1 + 1.1 * (1 - P[:, 0]) * (1 - P[:, 1]))  # noqa: E731
        rep = d_increasing_oracle(bad, 2, 50)
        assert not rep.passed
        assert rep.min_increment < -1e-9
        # violation sits where the density 1 + 1.1*phi*phi goes negative
        i, j = rep.min_cell
        assert min(i, j) <= 2 and max(i, j) >= 47

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_independence_increments_are_cell_volumes(self, d):
        prod = lambda P: P.prod(axis=1)  # noqa: E731
        rep = d_increasing_oracle(prod, d, 6)
        assert rep.passed
        assert rep.min_increment == pytest.approx((1 / 6) ** d, rel=1e-12)

    def test_admissible_four_variate_passes_grid_30(self):
        pairs = tuple(calibrate_from_kernel(kernel("fgm")) for _ in range(4))
        c = SarmanovCopula(pairs, epd(4))
        rep = d_increasing_oracle(c.cdf, 4, 30)
        assert rep.passed and rep.min_increment >= -1e-9

    def test_broken_groundedness_reported(self):
        shifted = lambda P: P[:, 0] * P[:, 1] + 0.01  # noqa: E731
        rep = d_increasing_oracle(shifted, 2, 10)
        assert not rep.passed
        assert rep.groundedness_err == pytest.approx(0.01)
        assert rep.margin_err == pytest.approx(0.01)

    def test_worst_cells_sorted(self):
        c = make_bivariate(kernel("fgm"), kernel("fgm"), a=1.0)
        rep = d_increasing_oracle(c.cdf, 2, 20)
        vals = [v for _, v in rep.worst_cells]
        assert vals == sorted(vals)
        assert len(rep.worst_cells) == 100

    @pytest.mark.parametrize("d, grid_n, build", [
        (2, 50, lambda: make_bivariate(kernel("checkerboard"), kernel("checkerboard"), a=1.0)),
        (2, 4, lambda: make_bivariate(kernel("checkerboard"), kernel("checkerboard"), a=1.0)),
        (3, 20, lambda: SarmanovCopula(tuple(calibrate_from_kernel(kernel("fgm")) for _ in range(3)),
                                       epd(3))),
        (4, 6, lambda: _comonotone_copula([kernel("fgm"), kernel("hki", p=2)] * 2)),
        (2, 1, lambda: make_bivariate(kernel("fgm"), kernel("fgm"), a=1.0)),  # one cell
    ], ids=["checkerboard2_grid50", "checkerboard2_grid4", "epd3", "comonotone_tied", "one_cell"])
    def test_worst_cells_are_a_stable_sort_of_every_increment(self, d, grid_n, build):
        # the reference sorts the whole lattice by value, then by cell index
        c = build()
        rep = d_increasing_oracle(c.cdf, d, grid_n)
        grid = np.linspace(0.0, 1.0, grid_n + 1)
        pts = np.stack(np.meshgrid(*[grid] * d, indexing="ij"), axis=-1).reshape(-1, d)
        inc = c.cdf(pts).reshape([grid_n + 1] * d)
        for axis in range(d):
            inc = np.diff(inc, axis=axis)
        flat = inc.reshape(-1)
        order = np.lexsort((np.arange(flat.size), flat))[:100]
        want = [(tuple(int(i) for i in np.unravel_index(j, inc.shape)), float(flat[j])) for j in order]
        assert [cell for cell, _ in rep.worst_cells] == [cell for cell, _ in want]
        assert [v for _, v in rep.worst_cells] == [v for _, v in want]
        assert rep.min_cell == want[0][0] and rep.min_increment == want[0][1]
        assert len(want) == 1 or len({v for _, v in want}) < len(want)  # the case has ties

    def test_nan_increments_sort_last(self):
        nan_corner = lambda P: np.where(P.min(axis=1) > 0.9, np.nan, P.prod(axis=1))  # noqa: E731
        rep = d_increasing_oracle(nan_corner, 2, 10)
        vals = [v for _, v in rep.worst_cells]
        assert len(vals) == 100 and not np.isnan(rep.min_increment)
        assert np.all(np.isnan(vals[-1:])) and vals[:-1] == sorted(vals[:-1])

    @pytest.mark.parametrize("grid_n", [0, -3])
    def test_grid_below_one_refused(self, grid_n):
        with pytest.raises(ValueError, match="grid_n >= 1"):
            d_increasing_oracle(lambda P: P.prod(axis=1), 2, grid_n)

    def test_lattice_cap_refuses_before_evaluating(self, monkeypatch):
        def never(P):
            raise AssertionError("the cdf of a refused lattice was evaluated")
        monkeypatch.setattr(copula, "ORACLE_POINTS", 5 ** 3)
        assert d_increasing_oracle(lambda P: P.prod(axis=1), 3, 4).passed  # 125 points: at the cap
        for d, grid_n in ((3, 5), (4, 4), (2, 11)):
            with pytest.raises(DimensionTooLarge, match="lattice"):
                d_increasing_oracle(never, d, grid_n)

    def test_default_cap_keeps_d5_at_grid_20(self):
        assert 21 ** 5 <= copula.ORACLE_POINTS < 21 ** 6


def _fgm_full_pmf(d, seed):
    """A random full pmf law with every margin 1/2 (each state shares its mass
    with its complement) under fgm margins, whose component cdfs F0, F1 are
    the mixture's factors bit for bit."""
    rng = np.random.default_rng(seed)
    raw = rng.random(1 << d) * (rng.random(1 << d) < 0.75)
    raw[0] += 0.01
    pmf = raw + raw[::-1]
    return SarmanovCopula((calibrate_from_kernel(kernel("fgm")),) * d, FullPmfSpec(pmf / pmf.sum())), rng


def _density_by_states(c, pts):
    """E prod_m (1 + phihat_m(u_m) Z_m), summed state by state."""
    phi = [np.asarray(p.induced.phi(pts[:, m])) for m, p in enumerate(c.margins)]
    total = np.zeros(len(pts))
    for s, w in enumerate(c.bern.pmf_table()):
        term = np.full(len(pts), w)
        for m, pi in enumerate(c.bern.pi):
            term *= 1 + phi[m] * ((1 - pi) / pi if (s >> m) & 1 else -1.0)
        total += term
    return total


class TestBlockedMix:
    @given(d=st.integers(2, 10), seed=st.integers(0, 2 ** 32 - 1),
           u=st.lists(st.just(0.0) | st.floats(2.0 ** -30, 1.0), min_size=30, max_size=30))
    @settings(max_examples=25, deadline=None)
    def test_cdf_and_density_match_state_enumeration(self, d, seed, u):
        # coordinates of 0 or >= 2^-30 keep every term out of the subnormal range
        c, _ = _fgm_full_pmf(d, seed)
        pts = np.resize(np.asarray(u), (3, d))
        oracle = [c.mixture_cdf_oracle(p) for p in pts]
        np.testing.assert_allclose(c.cdf(pts), oracle, rtol=1e-14, atol=0)
        np.testing.assert_allclose(c.density(pts), _density_by_states(c, pts), rtol=1e-14, atol=0)

    @given(d=st.integers(2, 10), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=5, deadline=None)
    def test_block_seams(self, d, seed):
        # a single point takes BLAS's matrix-vector kernel, a block its
        # matrix-matrix one: the two agree to rounding, not bit for bit.
        # Every point next to a block edge is checked, and 64 others
        c, rng = _fgm_full_pmf(d, seed)
        b = copula.MIX_BLOCK
        for n in (b - 1, b, b + 1):
            pts = rng.random((n, d))
            idx = np.union1d([0, 1, b - 2, b - 1, b, n - 1], rng.integers(0, n, 64))
            idx = idx[idx < n]
            for f in (c.cdf, c.density):
                np.testing.assert_allclose(f(pts)[idx], [f(pts[i]) for i in idx], rtol=1e-14, atol=0)

    def test_d16_memory_scales_with_the_block(self):
        # the list fold held 2^15 arrays of n floats at its first step: 5.2 GB here
        c, rng = _fgm_full_pmf(16, 3)
        pts = rng.random((20_000, 16))
        tracemalloc.start()
        try:
            vals = c.cdf(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2 ** 20
        assert np.all(vals <= pts.min(axis=1)) and np.all(vals >= 0.0)  # the Frechet bounds


class TestFarlieConversion:
    def test_fgm_from_multiplicative_form(self):
        k, a = farlie_to_sarmanov(lambda u: 1 - np.asarray(u, float), alpha=0.6)
        assert a == 0.6
        u = np.linspace(0, 1, 101)
        np.testing.assert_allclose(k.g(u), u * (1 - u), atol=1e-12)
        assert k.Lambda == pytest.approx(1.0, abs=1e-6)
        assert k.lam == pytest.approx(-1.0, abs=1e-6)

    def test_hki_and_hkii_forms(self):
        for h, ref in [
            (lambda u: 1 - np.asarray(u, float) ** 2, kernel("hki", p=2)),
            (lambda u: (1 - np.asarray(u, float)) ** 2, kernel("hkii", q=2)),
        ]:
            k, _ = farlie_to_sarmanov(h, alpha=0.5)
            u = np.linspace(0, 1, 101)
            np.testing.assert_allclose(k.g(u), ref.g(u), atol=1e-12)
            assert k.Lambda == pytest.approx(ref.Lambda, rel=1e-5)
            assert k.lam == pytest.approx(ref.lam, rel=1e-5)

    def test_unbounded_origin_rejected(self):
        with pytest.raises(UnboundedAtOrigin):
            farlie_to_sarmanov(lambda u: 1.0 / np.sqrt(np.asarray(u, float)), alpha=1.0)


class TestTransformedKernels:
    def test_classical_family_closure(self):
        assert transform_kernel(kernel("fgm"), 2).id == "hki"
        assert transform_kernel(kernel("fgm"), 2).params == {"p": 2}
        assert transform_kernel(kernel("hki", p=2), 3).params == {"p": 6}
        t = transform_kernel(kernel("hkii", q=2), 2)
        assert t.id == "bkb" and t.params == {"p": 2, "q": 2}
        t = transform_kernel(kernel("bkb", p=2, q=2), 2)
        assert t.params == {"p": 4, "q": 2}

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    @pytest.mark.parametrize("name, params, row", [
        ("fgm", {}, lambda r: ("hki", {"p": r})),  # fgm is hki(1)
        ("hki", {"p": 2.5}, lambda r: ("hki", {"p": 2.5 * r})),
        ("hkii", {"q": 3}, lambda r: ("bkb", {"p": r, "q": 3})),  # hkii(q) is bkb(1, q)
        ("bkb", {"p": 0.5, "q": 2.5}, lambda r: ("bkb", {"p": 0.5 * r, "q": 2.5})),
    ])
    def test_closed_family_transform_is_its_catalog_row(self, name, params, row, r):
        t, ref = transform_kernel(kernel(name, **params), r), catalog_lookup(*row(r))
        for f in dataclasses.fields(Kernel):
            if f.name not in ("g", "phi"):
                assert getattr(t, f.name) == getattr(ref, f.name), f.name
        x = np.linspace(0.0, 1.0, 1001)
        np.testing.assert_array_equal(t.g(x), ref.g(x))
        np.testing.assert_array_equal(t.phi(x), ref.phi(x))

    def test_r1_is_identity(self):
        k = kernel("sin")
        assert transform_kernel(k, 1) is k

    def test_generic_transform_matches_definition(self):
        k = kernel("sin")
        t = transform_kernel(k, 2)
        h = normalized_kernel(k)
        x = np.linspace(0, 1, 101)
        np.testing.assert_allclose(t.g(x), x * np.asarray(h(x ** 2)), atol=1e-12)
        # derivative identity phi_t = (1-r) h(y) + r phi(y)
        num = np.gradient(np.asarray(t.g(x), float), x)
        np.testing.assert_allclose(np.asarray(t.phi(x), float)[2:-2], num[2:-2], atol=5e-3)

    @pytest.mark.parametrize("r", [2, 3, 5])
    def test_lee_exponential_transform_keeps_its_slope_bounds(self, r):
        # h(y) = g(y)/y is evaluated at y = x^r, far below 1e-16 near x = 0,
        # where 1 - exp(-y) has lost every digit and expm1 keeps them all
        y = np.linspace(0.0, 1.0, 2_000_001) ** r
        slope = 1.0 - 1.0 / math.e
        with np.errstate(invalid="ignore"):
            h = np.where(y > 0.0, -np.expm1(-y) / y, 1.0) - slope
        phi_t = (1 - r) * h + r * (np.exp(-y) - slope)
        t = transform_kernel(kernel("lee_exponential"), r)
        assert t.Lambda == pytest.approx(1.0 / phi_t.max(), rel=1e-9)
        assert t.lam == pytest.approx(1.0 / phi_t.min(), rel=1e-9)


class TestTransformMemo:
    """A catalog kernel's generic transform is built once per (id, params, r)."""

    @pytest.fixture
    def builds(self, monkeypatch):
        copula._catalog_transform.cache_clear()
        made = []

        def counted(*args, **kwargs):
            made.append(args)
            return custom_kernel(*args, **kwargs)
        monkeypatch.setattr(copula, "custom_kernel", counted)
        return made

    def test_second_build_reuses_the_transforms(self, builds):
        k1, k2 = kernel("sin"), kernel("sin_squared")
        build_powered(k1, k2, a=0.1, r=3)
        assert len(builds) == 2  # one custom_kernel call per kernel
        build_powered(k1, k2, a=0.05, r=3)
        assert len(builds) == 2
        build_powered(k1, k2, a=0.1, r=2)
        assert len(builds) == 4  # another r is another transform

    @pytest.mark.parametrize("name", ["sin", "norm_lee", "lai_xie", "two_slope"])
    def test_kept_transform_equals_a_fresh_build(self, name, builds):
        k = kernel(name, **DEFAULT_PARAMS.get(name, {}))
        transform_kernel(k, 3)
        kept, fresh = transform_kernel(k, 3), copula._transform_generic(k, 3)
        assert len(builds) == 2  # the first call and the fresh build
        for attr in ("id", "params", "Lambda", "lam", "kappa", "sign_constant", "breakpoints"):
            assert getattr(kept, attr) == getattr(fresh, attr), attr
        x = np.linspace(0.0, 1.0, 1001)
        np.testing.assert_array_equal(kept.g(x), fresh.g(x))
        np.testing.assert_array_equal(kept.phi(x), fresh.phi(x))

    def test_sample_bytes_do_not_depend_on_the_memo(self, builds):
        k1, k2 = kernel("sin"), kernel("fgm_damped")
        cold = sample_powered(build_powered(k1, k2, a=0.05, r=2), 5000, seed=4).rows
        warm = sample_powered(build_powered(k1, k2, a=0.05, r=2), 5000, seed=4).rows
        assert len(builds) == 2
        assert cold.tobytes() == warm.tobytes()

    def test_params_handed_out_are_a_copy(self, builds):
        k = kernel("lai_xie", a=2, b=3)
        t = transform_kernel(k, 2)
        t.params["a"] = 99
        assert transform_kernel(k, 2).params == {"a": 2, "b": 3}
        assert k.params == {"a": 2, "b": 3}

    def test_custom_kernels_are_not_kept(self, builds):
        k = custom_kernel(lambda u: np.sin(np.pi * np.asarray(u, float)) / np.pi,
                          phi=lambda u: np.cos(np.pi * np.asarray(u, float)))
        transform_kernel(k, 2)
        transform_kernel(k, 2)
        assert len(builds) == 2
        assert copula._catalog_transform.cache_info().currsize == 0


class TestPowered:
    def test_r1_is_plain_family(self):
        pw = build_powered(kernel("fgm"), kernel("fgm"), a=1.0, r=1)
        c = make_bivariate(kernel("fgm"), kernel("fgm"), a=1.0)
        pts = np.random.default_rng(3).random((200, 2))
        np.testing.assert_allclose(pw.cdf(pts[:, 0], pts[:, 1]), c.cdf(pts), atol=1e-15)

    def test_r2_interval_is_transformed_hki(self):
        pw = build_powered(kernel("fgm"), kernel("fgm"), a=0.5, r=2)
        assert pw.sufficient_interval == (-0.25, 0.5)

    def test_out_of_interval_rejected_with_report(self):
        # any a builds; the sampler refuses the inadmissible base law
        pw = build_powered(kernel("fgm"), kernel("fgm"), a=0.9, r=3)
        assert pw.sufficient_interval[1] == 1 / 3
        assert not pw.base.bern.admissibility_check().passed
        with pytest.raises(NotAdmissible):
            sample_powered(pw, 10, seed=0)

    @pytest.mark.parametrize("name", POWERED_KERNELS)
    def test_base_gate_matches_interval_off_its_ends(self, name):
        # the base law's pmf passes at each end of the transformed-kernel
        # interval and 1e-9 inside it, and fails 1e-9 outside it
        k = kernel(name, **DEFAULT_PARAMS.get(name, {}))
        for r in (1, 2, 3):
            lo, hi = build_powered(k, k, a=0.0, r=r).sufficient_interval
            for end in (lo, hi):
                for step, passed in ((0.0, True), (-1e-9, True), (1e-9, False)):
                    a = end * (1.0 + step)  # lo < 0 < hi: step > 0 is outward
                    cert = build_powered(k, k, a=a, r=r).base.bern.admissibility_check()
                    assert cert.passed == passed, (r, end, step)

    def test_non_integer_power_rejected(self):
        with pytest.raises(ParamOutOfRange):
            build_powered(kernel("fgm"), kernel("fgm"), a=0.1, r=0)

    @pytest.mark.parametrize("r", [2, 3])
    def test_outer_power_identity(self, r):
        a = 0.5 / r
        pw = build_powered(kernel("fgm"), kernel("fgm"), a=a, r=r)
        pts = np.random.default_rng(9).random((300, 2))
        roots = pts ** (1.0 / r)
        lhs = np.asarray(pw.base.cdf(roots)) ** r
        np.testing.assert_allclose(lhs, pw.cdf(pts[:, 0], pts[:, 1]), atol=1e-13)


@given(
    a=st.floats(-1.0, 1.0),
    u1=st.floats(0.0, 1.0),
    u2=st.floats(0.0, 1.0),
)
@settings(max_examples=80, deadline=None)
def test_subset_expansion_equals_bivariate_form(a, u1, u2):
    c = make_bivariate(catalog_lookup("fgm"), catalog_lookup("fgm"), a=a)
    expected = u1 * u2 + a * (u1 * (1 - u1)) * (u2 * (1 - u2))
    assert c.cdf([u1, u2]) == pytest.approx(expected, abs=1e-14)


@given(
    raw=st.lists(st.floats(0.01, 1.0), min_size=8, max_size=8),
    u=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
)
@settings(max_examples=50, deadline=None)
def test_trivariate_expansion_equals_mixture_enumeration(raw, u):
    pmf = np.asarray(raw)
    pmf = pmf / pmf.sum()
    spec = FullPmfSpec(pmf)
    pairs = []
    for m in range(3):
        pi = float(spec.pi[m])
        # calibrated pair with the matching pi: F0 = u^(1/(1-pi))-style
        # power pair, checked against the mixture identity by construction
        exp0 = 1.0 / (1.0 - pi)
        F0 = lambda x, e=exp0: np.asarray(x, float) ** e
        F1 = lambda x, pi=pi, e=exp0: (
            (np.asarray(x, float) - (1 - pi) * np.asarray(x, float) ** e) / pi)
        from sarmanov.calibration import explicit_pair
        pairs.append(explicit_pair(F0, F1, pi))
    c = SarmanovCopula(tuple(pairs), spec)
    pt = np.asarray(u)
    assert c.cdf(pt) == pytest.approx(c.mixture_cdf_oracle(pt), abs=1e-12)
    grounded = pt.copy()
    grounded[0] = 0.0
    assert c.cdf(grounded) == pytest.approx(0.0, abs=1e-15)
