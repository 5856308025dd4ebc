"""Exact samplers: margins, reproducibility, distributional agreement."""

import numpy as np
import pytest

from sarmanov import numerics
from sarmanov.bernoulli import BivariateThetaSpec, end3, epd, independent
from sarmanov.calibration import calibrate_from_kernel
from sarmanov.copula import SarmanovCopula, build_powered, make_bivariate
from sarmanov.errors import NotAdmissible
from sarmanov.kernels import DEFAULT_PARAMS, catalog_lookup
from sarmanov.numerics import ks_statistic
from sarmanov.rng import stream
from sarmanov.sampling import sample, sample_powered


def fgm_copula(a):
    k = catalog_lookup("fgm")
    return make_bivariate(k, k, a=a)


def kernel(name):
    return catalog_lookup(name, DEFAULT_PARAMS.get(name, {}))


def trivariate(kernel_name, bern):
    pairs = tuple(calibrate_from_kernel(catalog_lookup(kernel_name)) for _ in range(3))
    return SarmanovCopula(pairs, bern)


class TestMargins:
    N = 100_000
    BOUND = 1.63  # 1% sup-distance critical value, scaled by sqrt(n)

    @pytest.mark.parametrize("copula", [
        fgm_copula(1.0),
        make_bivariate(catalog_lookup("hkii", {"q": 2}), catalog_lookup("hkii", {"q": 2}), a=3.0),
        make_bivariate(catalog_lookup("checkerboard"), catalog_lookup("checkerboard"), theta=1.0),
    ], ids=["fgm", "hkii", "checkerboard"])
    def test_bivariate_margins_uniform(self, copula):
        rows = sample(copula, self.N, seed=101).rows
        for m in range(2):
            assert ks_statistic(rows[:, m]) < self.BOUND / np.sqrt(self.N)

    def test_trivariate_margins_uniform(self):
        rows = sample(trivariate("fgm", epd(3)), self.N, seed=103).rows
        for m in range(3):
            assert ks_statistic(rows[:, m]) < self.BOUND / np.sqrt(self.N)

    def test_powered_margins_uniform(self):
        pw = build_powered(catalog_lookup("fgm"), catalog_lookup("fgm"), a=0.25, r=2)
        rows = sample_powered(pw, self.N, seed=107).rows
        for m in range(2):
            assert ks_statistic(rows[:, m]) < self.BOUND / np.sqrt(self.N)


class TestReproducibility:
    def test_bit_identical_given_seed(self):
        c = fgm_copula(0.8)
        a = sample(c, 5000, seed=5)
        b = sample(c, 5000, seed=5)
        np.testing.assert_array_equal(a.rows, b.rows)

    def test_numeric_bytes_do_not_depend_on_earlier_samples(self):
        # numeric quantiles read a process-wide cache of inverse tables; a
        # cold cache, a warm one and one filled by other models give one sample
        target = make_bivariate(catalog_lookup("sin"), catalog_lookup("hkii", {"q": 2}), a=1.0)
        others = [make_bivariate(kernel(a), kernel(b), a=0.5)
                  for a, b in (("norm_lee", "lee_exponential"), ("sin_asym", "lai_xie"),
                               ("bkb", "sin_squared"))]
        numerics._inverses.clear()
        cold = sample(target, 20_000, seed=3).rows
        warm = sample(target, 20_000, seed=3).rows
        numerics._inverses.clear()
        for c in others:
            sample(c, 5000, seed=8)
        after_others = sample(target, 20_000, seed=3).rows
        np.testing.assert_array_equal(cold, warm)
        np.testing.assert_array_equal(cold, after_others)

    def test_different_seeds_differ(self):
        c = fgm_copula(0.8)
        assert not np.array_equal(sample(c, 1000, seed=1).rows,
                                  sample(c, 1000, seed=2).rows)

    def test_streams_are_isolated(self):
        # consuming one stream never shifts another
        a = stream(42, 1).random(10)
        stream(42, 0).random(1_000)
        b = stream(42, 1).random(10)
        np.testing.assert_array_equal(a, b)

    def test_coordinates_in_unit_interval(self):
        rows = sample(trivariate("checkerboard", end3()), 20_000, seed=11).rows
        assert rows.min() >= 0.0 and rows.max() <= 1.0

    def test_inadmissible_refused(self):
        pairs = tuple(calibrate_from_kernel(catalog_lookup("fgm")) for _ in range(2))
        c = SarmanovCopula(pairs, BivariateThetaSpec(0.5, 0.5, 1.1))
        with pytest.raises(NotAdmissible):
            sample(c, 100, seed=0)


class TestDistributionalAgreement:
    def test_independence_spearman_near_zero(self):
        rows = sample(fgm_copula(0.0), 100_000, seed=19).rows
        from scipy.stats import spearmanr
        rho = spearmanr(rows[:, 0], rows[:, 1]).statistic
        assert abs(rho) < 4 / np.sqrt(100_000)

    def test_fgm_spearman_near_third(self):
        rows = sample(fgm_copula(1.0), 200_000, seed=23).rows
        from scipy.stats import spearmanr
        rho = spearmanr(rows[:, 0], rows[:, 1]).statistic
        assert rho == pytest.approx(1 / 3, abs=0.01)

    def test_checkerboard_spearman_near_three_quarters(self):
        c = make_bivariate(catalog_lookup("checkerboard"), catalog_lookup("checkerboard"),
                           theta=1.0)
        rows = sample(c, 200_000, seed=29).rows
        from scipy.stats import spearmanr
        rho = spearmanr(rows[:, 0], rows[:, 1]).statistic
        assert rho == pytest.approx(3 / 4, abs=0.01)

    def test_empirical_cdf_matches_analytic_trivariate(self):
        n = 200_000
        c = trivariate("fgm", end3())
        rows = sample(c, n, seed=37).rows
        grid = [0.25, 0.5, 0.75]
        for u1 in grid:
            for u2 in grid:
                for u3 in grid:
                    u = np.array([u1, u2, u3])
                    cval = float(c.cdf(u))
                    emp = float(np.mean(np.all(rows <= u, axis=1)))
                    se = np.sqrt(cval * (1 - cval) / n)
                    assert emp == pytest.approx(cval, abs=4 * se)


class TestPowered:
    def test_r1_identical_to_base(self):
        pw = build_powered(catalog_lookup("fgm"), catalog_lookup("fgm"), a=1.0, r=1)
        direct = sample(pw.base, 2000, seed=41).rows
        blocked = sample_powered(pw, 2000, seed=41).rows
        np.testing.assert_array_equal(direct, blocked)

    def test_r2_cdf_at_midpoint(self):
        n = 200_000
        pw = build_powered(catalog_lookup("fgm"), catalog_lookup("fgm"), a=0.5, r=2)
        rows = sample_powered(pw, n, seed=43).rows
        target = pw.cdf(0.5, 0.5)
        assert target == pytest.approx(0.31640625, abs=1e-15)
        emp = float(np.mean(np.all(rows <= 0.5, axis=1)))
        se = np.sqrt(target * (1 - target) / n)
        assert emp == pytest.approx(target, abs=3 * se)

    def test_powered_reproducible(self):
        pw = build_powered(catalog_lookup("fgm"), catalog_lookup("fgm"), a=0.25, r=3)
        a = sample_powered(pw, 3000, seed=47).rows
        b = sample_powered(pw, 3000, seed=47).rows
        np.testing.assert_array_equal(a, b)


class TestOrderingSurrogate:
    def test_rho_minus_ordered_by_theta2(self):
        # sign-constant kernel, exchangeable laws ordered in theta_2
        from sarmanov.bernoulli import ExchangeableSumSpec

        n = 200_000
        specs = [
            end3(),                                          # theta_2 = -1/3
            independent([0.5, 0.5, 0.5]),                    # theta_2 = 0
            ExchangeableSumSpec([5 / 16, 3 / 16, 3 / 16, 5 / 16]),  # theta_2 = 1/2
            epd(3),                                          # theta_2 = 1
        ]
        estimates = []
        for i, bern in enumerate(specs):
            rows = sample(trivariate("fgm", bern), n, seed=53 + i).rows
            surv = (1 - rows).prod(axis=1)
            est = 8 * surv.mean() - 1.0
            se = 8 * surv.std(ddof=1) / np.sqrt(n)
            estimates.append((est, se))
        for (lo, lo_se), (hi, hi_se) in zip(estimates, estimates[1:]):
            gap = hi - lo
            assert gap > 4 * np.hypot(lo_se, hi_se)
