"""Closed-form and empirical dependence measures."""

from fractions import Fraction

import numpy as np
import pytest

from sarmanov import measures
from sarmanov.bernoulli import ExchangeableSumSpec, end3, epd
from sarmanov.calibration import calibrate_from_kernel
from sarmanov.copula import SarmanovCopula, admissible_a_interval, make_bivariate
from sarmanov.errors import BatchTooSmall
from sarmanov.kernels import CATALOG_IDS, DEFAULT_PARAMS, catalog_lookup
from sarmanov.measures import (
    empirical_measures,
    kendall_analytic,
    kendall_analytic_exact,
    orthant_rho,
    orthant_rho_exact,
    rho_global_bounds,
    spearman_analytic,
    spearman_analytic_exact,
    tail_dependence,
)
from sarmanov.sampling import SampleBatch, sample


def kernel(name, **params):
    return catalog_lookup(name, params)


def default_kernel(name):
    return catalog_lookup(name, DEFAULT_PARAMS.get(name, {}))


def exchangeable(kernel_name, bern):
    pairs = tuple(calibrate_from_kernel(catalog_lookup(kernel_name)) for _ in range(bern.d))
    return SarmanovCopula(pairs, bern)


class TestClosedForms:
    def test_fgm_extreme(self):
        c = make_bivariate(kernel("fgm"), kernel("fgm"), a=1.0)
        assert spearman_analytic(c) == 1 / 3
        assert kendall_analytic(c) == 2 / 9
        assert spearman_analytic_exact(c) == Fraction(1, 3)

    def test_checkerboard_extreme(self):
        c = make_bivariate(kernel("checkerboard"), kernel("checkerboard"), theta=1.0)
        assert spearman_analytic(c) == 0.75
        assert kendall_analytic(c) == 0.5

    def test_legendre2_zero_for_any_a(self):
        k = kernel("legendre2")
        for a in (-1.0, -0.25, 0.5, 2.0):
            assert spearman_analytic(make_bivariate(k, k, a=a)) == 0.0

    def test_scaling_in_a(self):
        k = kernel("fgm")
        for a in (-1.0, -0.5, 0.25, 0.75):
            c = make_bivariate(k, k, a=a)
            assert spearman_analytic(c) == pytest.approx(a / 3, abs=1e-16)

    def test_rank_identity_exact(self):
        # 3*tau = 2*rho in exact rational arithmetic
        for name, params, a in [("fgm", {}, 0.7), ("hkii", {"q": 2}, 2.0),
                                ("hki", {"p": 2}, -0.2), ("two_slope", {}, 0.1)]:
            c = make_bivariate(catalog_lookup(name, params), catalog_lookup(name, params), a=a)
            rho = spearman_analytic_exact(c)
            tau = kendall_analytic_exact(c)
            assert rho is not None and 3 * tau == 2 * rho

    def test_rank_identity_float_fallback(self):
        c = make_bivariate(kernel("sin"), kernel("sin"), a=0.5)
        assert spearman_analytic_exact(c) is None
        assert 3 * kendall_analytic(c) == pytest.approx(2 * spearman_analytic(c), rel=1e-15)

    def test_rho_magnitude_bound(self):
        # |rho| <= 3|a| / ((L1 + |l1|)(L2 + |l2|)) for admissible a
        rng = np.random.default_rng(2)
        names = list(CATALOG_IDS)
        for _ in range(20):
            n1, n2 = rng.choice(names, size=2)
            k1, k2 = default_kernel(n1), default_kernel(n2)
            lo, hi = admissible_a_interval(k1, k2)
            a = rng.uniform(lo, hi)
            c = make_bivariate(k1, k2, a=a)
            bound = 3 * abs(a) / ((k1.Lambda + abs(k1.lam)) * (k2.Lambda + abs(k2.lam)))
            assert abs(spearman_analytic(c)) <= bound + 1e-12


class TestGlobalBounds:
    def test_interval(self):
        assert rho_global_bounds().interval == (-0.75, 0.75)

    def test_catalog_sweep_never_exceeds(self):
        attained = 0.0
        for n1 in CATALOG_IDS:
            for n2 in CATALOG_IDS:
                k1, k2 = default_kernel(n1), default_kernel(n2)
                lo, hi = admissible_a_interval(k1, k2)
                for a in (lo, hi):
                    rho = spearman_analytic(make_bivariate(k1, k2, a=a))
                    assert abs(rho) <= 0.75 + 1e-12
                    attained = max(attained, abs(rho))
        assert attained == 0.75  # checkerboard pair at the endpoints

    def test_attaining_copula_is_valid(self):
        from sarmanov.copula import d_increasing_oracle
        c = make_bivariate(kernel("checkerboard"), kernel("checkerboard"), theta=1.0)
        assert c.bern.admissibility_check().passed
        assert d_increasing_oracle(c.cdf, 2, 40).passed


class TestOrthant:
    def test_epd_end_fgm(self):
        assert orthant_rho(exchangeable("fgm", epd(3))) == (1 / 3, 1 / 3)
        assert orthant_rho(exchangeable("fgm", end3())) == (-1 / 9, -1 / 9)

    def test_epd_end_checkerboard(self):
        assert orthant_rho(exchangeable("checkerboard", epd(3))) == (0.75, 0.75)
        assert orthant_rho(exchangeable("checkerboard", end3())) == (-0.25, -0.25)

    def test_exact_values(self):
        lo, hi = orthant_rho_exact(exchangeable("fgm", epd(3)))
        assert lo == Fraction(1, 3) and hi == Fraction(1, 3)

    def test_d2_reduces_to_spearman(self):
        c = make_bivariate(kernel("hkii", q=2), kernel("hkii", q=2), a=1.5)
        lo, hi = orthant_rho(c)
        assert lo == hi == spearman_analytic(c)

    @pytest.mark.parametrize("theta", [1e-6, -1e-6, 1e-12, 0.3])
    def test_d2_weak_dependence_keeps_rho_s_digits(self, theta):
        # mix(...) - 1 would leave an absolute error of about 5e-16 here
        c = make_bivariate(kernel("sin"), kernel("sin"), theta=theta)
        assert orthant_rho(c) == (spearman_analytic(c), spearman_analytic(c))

    def test_odd_killing_equalizes_orthants(self):
        for d in (3, 4, 5, 7):
            c = exchangeable("fgm", epd(d))
            lo, hi = orthant_rho(c)
            assert lo == hi

    def test_asymmetric_law_separates_orthants(self):
        # mean 1/2 but not palindromic: theta_3 != 0 splits the orthants
        spec = ExchangeableSumSpec([0.35, 0.1, 0.25, 0.3])
        assert float(spec.theta_k_exact(3)) != 0.0
        c = exchangeable("fgm", spec)
        lo, hi = orthant_rho(c)
        assert lo != hi

    def test_exchangeable_and_pmf_routes_agree(self):
        # the same law enters once as a sum-law spec (exact hypergeometric
        # moments) and once as its materialized pmf (transform route); the
        # margin is a power-type calibrated pair matching the law's pi
        from sarmanov.bernoulli import FullPmfSpec
        from sarmanov.calibration import explicit_pair

        spec = ExchangeableSumSpec([0.25, 0.15, 0.2, 0.25, 0.15])
        pi = float(spec.pi[0])
        e = 1.0 / (1.0 - pi)
        F0 = lambda x: np.asarray(x, float) ** e  # noqa: E731
        F1 = lambda x: ((np.asarray(x, float)  # noqa: E731
                         - (1 - pi) * np.asarray(x, float) ** e) / pi)
        quadruple = (explicit_pair(F0, F1, pi),) * 4
        a = orthant_rho(SarmanovCopula(quadruple, spec))
        b = orthant_rho(SarmanovCopula(quadruple, FullPmfSpec(spec.pmf_table())))
        assert a[0] == pytest.approx(b[0], abs=1e-13)
        assert a[1] == pytest.approx(b[1], abs=1e-13)

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    @pytest.mark.parametrize("names", [("fgm", "checkerboard"), ("sin", "fgm")])
    def test_exchangeable_hook_matches_generic_terms(self, d, names):
        # ExchangeableSumSpec.expansion (t^k recurrence, exact thetas)
        # against the generic contraction of the same law as a full pmf;
        # fgm x checkerboard runs the exact route, sin the float route
        from sarmanov.bernoulli import FullPmfSpec

        r = np.random.default_rng(d).random(d + 1)
        w = (r + r[::-1]) / (r + r[::-1]).sum()
        w[:3] += [0.02, -0.04, 0.02]  # keeps the sum and pi = 1/2, breaks the symmetry
        spec = ExchangeableSumSpec(w)
        pairs = tuple(calibrate_from_kernel(kernel(names[m % 2])) for m in range(d))
        a = orthant_rho(SarmanovCopula(pairs, spec))
        b = orthant_rho(SarmanovCopula(pairs, FullPmfSpec(spec.pmf_table())))
        assert a[0] != a[1]
        assert a[0] == pytest.approx(b[0], abs=1e-12)
        assert a[1] == pytest.approx(b[1], abs=1e-12)

    def test_mixed_margin_kernels(self):
        pairs = (calibrate_from_kernel(kernel("fgm")),
                 calibrate_from_kernel(kernel("sin")),
                 calibrate_from_kernel(kernel("checkerboard")))
        c = SarmanovCopula(pairs, epd(3))
        kap = [p.induced.kappa for p in pairs]
        expected = (4 * (kap[0] * kap[1] + kap[0] * kap[2] + kap[1] * kap[2]))
        lo, hi = orthant_rho(c)
        assert lo == pytest.approx(expected, rel=1e-12)
        assert hi == pytest.approx(expected, rel=1e-12)


class TestTailDependence:
    def test_always_zero(self):
        for name, a in [("fgm", 1.0), ("bkb", 1.25), ("sin_asym", 1.0)]:
            k = default_kernel(name)
            c = make_bivariate(k, k, a=a)
            lam_l, lam_u, _ = tail_dependence(c)
            assert lam_l == 0.0 and lam_u == 0.0

    def test_fgm_envelope(self):
        c = make_bivariate(kernel("fgm"), kernel("fgm"), a=1.0)
        _, _, env = tail_dependence(c)
        for k in range(1, 7):
            u = 10.0 ** (-k)
            ratio = c.cdf([u, u]) / u
            assert ratio <= env(u) + 1e-15
            assert env(u) == pytest.approx(2 * u)

    def test_corner_ratio_decays(self):
        k = kernel("bkb", p=2, q=2)
        c = make_bivariate(k, k, a=1.25)
        ratios = [c.cdf([10.0 ** -j, 10.0 ** -j]) / 10.0 ** -j for j in range(1, 7)]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 1e-5


class TestEmpirical:
    def test_against_analytic_randomized_configs(self):
        rng = np.random.default_rng(77)
        names = list(CATALOG_IDS)
        n = 200_000
        for trial in range(10):
            n1, n2 = rng.choice(names, size=2)
            k1, k2 = default_kernel(n1), default_kernel(n2)
            lo, hi = admissible_a_interval(k1, k2)
            a = rng.uniform(lo, hi)
            c = make_bivariate(k1, k2, a=a)
            rep = empirical_measures(sample(c, n, seed=1000 + trial), c)
            assert abs(rep.z["rho_s"]) < 4, (n1, n2, a)
            assert abs(rep.z["tau"]) < 4, (n1, n2, a)

    def test_independent_batch_near_zero(self):
        c = make_bivariate(kernel("fgm"), kernel("fgm"), a=0.0)
        rep = empirical_measures(sample(c, 50_000, seed=3), c)
        for key in ("rho_s", "tau", "rho_minus", "rho_plus"):
            assert abs(rep.empirical[key]) < 4 * rep.se[key]

    def test_report_roundtrip(self):
        c = make_bivariate(kernel("fgm"), kernel("fgm"), a=1.0)
        rep = empirical_measures(sample(c, 20_000, seed=5), c)
        d = rep.to_dict()
        assert d["analytic"]["rho_s"] == 1 / 3
        assert d["analytic"]["lambda_l"] == 0.0
        assert set(d["empirical"]) == {"rho_s", "tau", "rho_minus", "rho_plus"}

    def test_small_batch_rejected(self):
        batch = SampleBatch(rows=np.random.default_rng(0).random((500, 2)), seed=0)
        with pytest.raises(BatchTooSmall):
            empirical_measures(batch)

    def test_stats_attribute_is_scipy_stats(self):
        # perfbench's tracer wraps ``measures.stats`` when it installs
        from scipy import stats

        assert measures.stats is stats
        assert measures.stats.spearmanr is stats.spearmanr
