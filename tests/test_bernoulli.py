"""Latent Bernoulli laws: moments, admissibility, symmetry, sampling."""

import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sarmanov import bernoulli as bn
from sarmanov.bernoulli import (
    PI_FLOOR,
    AdmissibilityCertificate,
    BivariateThetaSpec,
    ExchangeableSumSpec,
    FullPmfSpec,
    admissibility_check,
    comonotone,
    end3,
    epd,
    independent,
    mixed_moment,
    palindromic_check,
    sample_indices,
    theta_range_bivariate,
)
from sarmanov.errors import (
    DimensionTooLarge,
    MarginsNotHalf,
    MomentOverflow,
    NotAdmissible,
    SarmanovError,
    SubsetTooSmall,
)
from sarmanov.rng import stream


def enumerate_theta(pmf, pis, S):
    """Independent oracle: direct summation over all states."""
    d = len(pis)
    total = 0.0
    for state in range(2 ** d):
        z = 1.0
        for m in S:
            bit = (state >> (m - 1)) & 1
            z *= (bit - pis[m - 1]) / pis[m - 1]
        total += pmf[state] * z
    return total


class TestThetaRange:
    def test_symmetric_half(self):
        assert theta_range_bivariate(0.5, 0.5) == (-1.0, 1.0)

    def test_two_thirds(self):
        lo, hi = theta_range_bivariate(2 / 3, 2 / 3)
        assert lo == pytest.approx(-0.25, abs=1e-12)
        assert hi == pytest.approx(0.5, abs=1e-12)

    def test_upper_endpoint_vanishes_as_pi_to_one(self):
        _, hi = theta_range_bivariate(1 - 1e-9, 0.4)
        assert hi == pytest.approx(0.0, abs=1e-8)

    @given(pi1=st.floats(0.05, 0.95), pi2=st.floats(0.05, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_endpoints_keep_pmf_nonnegative(self, pi1, pi2):
        lo, hi = theta_range_bivariate(pi1, pi2)
        for theta in (lo, hi):
            spec = BivariateThetaSpec(pi1, pi2, theta)
            assert np.min(spec.pmf_table()) >= -1e-12
        assert not BivariateThetaSpec(pi1, pi2, hi + 0.05).admissibility_check().passed


class TestMixedMoments:
    def test_independent_all_zero(self):
        spec = independent([0.3, 0.5, 0.7])
        for S in ([1, 2], [1, 3], [2, 3], [1, 2, 3]):
            assert mixed_moment(spec, S) == 0.0

    def test_comonotone_equal_margins(self):
        for pi in (0.2, 0.5, 0.8):
            spec = comonotone([pi, pi])
            assert mixed_moment(spec, [1, 2]) == pytest.approx((1 - pi) / pi, rel=1e-12)

    def test_comonotone_matches_enumeration(self):
        spec = comonotone([0.3, 0.6, 0.8])
        pmf = spec.pmf_table()
        for S in ([1, 2], [1, 3], [2, 3], [1, 2, 3]):
            assert mixed_moment(spec, S) == pytest.approx(
                enumerate_theta(pmf, spec.pi, S), abs=1e-14)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_comonotone_equals_threshold_integration(self, d):
        # the moment as the mixture of indicator columns against the exact
        # integration over the threshold intervals of V it replaced, bit
        # for bit; tied margins included
        def integrate(pis, idx):
            ps = sorted(Fraction(float(pis[m1 - 1])) for m1 in idx)
            k, total, prev = len(ps), Fraction(0), Fraction(0)
            for i in range(k + 1):
                upper = ps[i] if i < k else Fraction(1)
                if upper > prev:
                    prod = Fraction(1)
                    for j, p in enumerate(ps):
                        prod *= (1 - p) / p if j >= i else Fraction(-1)
                    total += (upper - prev) * prod
                prev = upper
            return float(total)

        rng = np.random.default_rng(60 + d)
        for pis in (rng.uniform(0.05, 0.95, d), rng.choice([0.2, 0.5, 0.7], d)):
            spec = comonotone(pis)
            for k in range(2, d + 1):
                for S in itertools.combinations(range(1, d + 1), k):
                    assert mixed_moment(spec, S) == integrate(spec.pi, S), S

    def test_end_numbers_by_enumeration(self):
        spec = end3()
        assert mixed_moment(spec, [1, 2]) == pytest.approx(-1 / 3, abs=1e-15)
        assert mixed_moment(spec, [1, 2, 3]) == pytest.approx(0.0, abs=1e-15)
        pmf = spec.pmf_table()
        assert enumerate_theta(pmf, spec.pi, [1, 2]) == pytest.approx(-1 / 3, abs=1e-14)

    def test_epd_numbers(self):
        spec = epd(3)
        assert mixed_moment(spec, [2, 3]) == 1.0
        assert mixed_moment(spec, [1, 2, 3]) == 0.0

    def test_exchangeable_depends_on_size_only(self):
        rng = np.random.default_rng(5)
        w = rng.random(7)
        w = w / w.sum()
        spec = ExchangeableSumSpec(w)
        for size in (2, 3, 4, 5):
            subsets = [tuple(sorted(rng.choice(6, size=size, replace=False) + 1))
                       for _ in range(10)]
            vals = {mixed_moment(spec, S) for S in subsets}
            assert len(vals) == 1

    def test_full_pmf_matches_enumeration(self):
        rng = np.random.default_rng(11)
        pmf = rng.random(16)
        pmf /= pmf.sum()
        spec = FullPmfSpec(pmf)
        for S in ([1, 2], [2, 4], [1, 2, 3], [1, 2, 3, 4]):
            assert mixed_moment(spec, S) == pytest.approx(
                enumerate_theta(pmf, spec.pi, S), abs=1e-13)

    def test_transform_agrees_with_single_moments(self):
        rng = np.random.default_rng(13)
        pmf = rng.random(32)
        pmf /= pmf.sum()
        spec = FullPmfSpec(pmf)
        masks = spec.thetas_by_mask()
        for S in itertools.combinations(range(1, 6), 3):
            mask = sum(1 << (m - 1) for m in S)
            assert masks.get(mask, 0.0) == pytest.approx(mixed_moment(spec, S), abs=1e-13)

    def test_singletons_are_centred(self):
        rng = np.random.default_rng(17)
        pmf = rng.random(8)
        pmf /= pmf.sum()
        spec = FullPmfSpec(pmf)
        from sarmanov.bernoulli import _moment_transform
        allt = _moment_transform(spec.pmf_table(), spec.pi)
        for m in range(3):
            assert allt[1 << m] == pytest.approx(0.0, abs=1e-14)

    def test_subset_too_small(self):
        with pytest.raises(SubsetTooSmall):
            mixed_moment(independent([0.5, 0.5]), [1])


class TestAdmissibility:
    def test_bivariate_theta_violations_listed(self):
        cert = admissibility_check(BivariateThetaSpec(0.5, 0.5, 1.2))
        assert not cert.passed
        assert {name for name, _ in cert.violations} == {"10", "01"}
        assert all(v == pytest.approx(-0.05) for _, v in cert.violations)

    def test_exchangeable_pass(self):
        cert = admissibility_check(ExchangeableSumSpec([0.5, 0, 0, 0, 0.5]))
        assert cert.passed
        assert palindromic_check(ExchangeableSumSpec([0.5, 0, 0, 0, 0.5]))

    def test_full_pmf_negative_entry_fails(self):
        cert = admissibility_check(FullPmfSpec([0.25, 0.51, -0.01, 0.25]))
        assert not cert.passed
        assert cert.violations == [("01", pytest.approx(-0.01))]

    def test_dust_is_clamped(self):
        spec = FullPmfSpec([0.3, 0.3, -1e-13, 0.4 + 1e-13])
        assert admissibility_check(spec).passed
        assert np.min(spec.pmf_table()) == 0.0

    @pytest.mark.parametrize("build", [
        lambda: FullPmfSpec([0.5, np.nan, 0.5, 0.0]),
        lambda: FullPmfSpec([0.5, np.inf, -np.inf, 0.5]),
        lambda: ExchangeableSumSpec([0.5, np.nan, 0.0, 0.5]),
        lambda: BivariateThetaSpec(0.5, 0.5, np.nan),
        lambda: independent([0.5, np.nan]),
        lambda: comonotone([np.nan, 0.5]),
    ])
    def test_non_finite_input_rejected(self, build):
        # NaN slips through every "< 0" and "|sum - 1| > tol" test, so it
        # must be refused before a certificate could call it valid
        with pytest.raises(ValueError):
            build()

    def test_dimension_cap(self):
        pmf = np.zeros(2 ** 21)
        pmf[0] = 1.0
        with pytest.raises(DimensionTooLarge):
            FullPmfSpec(pmf)


def large_laws():
    """d = 20 laws whose certificate and sampler need no 2^d table."""
    w = np.random.default_rng(5).random(21)
    w = (w + w[::-1]) / (w + w[::-1]).sum()
    return [epd(20), ExchangeableSumSpec(w), independent(np.linspace(0.1, 0.9, 20)),
            comonotone(np.linspace(0.1, 0.9, 20))]


class TestCertificateGate:
    """The certificate holds the verdict and the violations, never the pmf."""

    def test_fields_are_the_verdict_and_its_evidence(self):
        names = [f.name for f in dataclasses.fields(AdmissibilityCertificate)]
        assert names == ["passed", "violations", "theta_interval", "note"]

    @pytest.mark.parametrize("law", large_laws(), ids=["epd", "dense_w", "independent", "comonotone"])
    def test_gate_never_builds_the_table(self, law, monkeypatch):
        def no_table(self):
            raise AssertionError("the admissibility gate built the 2^d pmf")

        monkeypatch.setattr(type(law), "_pmf_table", no_table)
        assert admissibility_check(law).passed
        assert sample_indices(law, 1000, seed=1).shape == (1000, 20)

    @pytest.mark.parametrize("d", range(2, 13))
    def test_full_pmf_violations_match_state_loop(self, d):
        rng = np.random.default_rng(100 + d)
        size = 1 << d
        pmf = rng.random(size)
        picks = rng.permutation(size)
        neg = picks[:max(1, size // 8)]
        pmf[neg] = -rng.uniform(1e-11, 0.25 / size, neg.size)
        if d > 2:  # dust is clamped and never listed
            pmf[picks[-2:]] = [-1e-12, -1e-12 * rng.random()]
        pos = pmf > 0
        pmf[pos] *= (1.0 - pmf[~pos].sum()) / pmf[pos].sum()
        reference = [
            ("".join(str((s >> m) & 1) for m in range(d)), float(v))
            for s, v in enumerate(pmf) if v < -1e-12
        ]
        cert = admissibility_check(FullPmfSpec(pmf))
        assert reference and cert.violations == reference and not cert.passed


class TestPalindromic:
    def test_epd_any_dimension(self):
        for d in (2, 3, 5, 7):
            assert palindromic_check(epd(d))

    def test_independent_half(self):
        assert palindromic_check(independent([0.5, 0.5, 0.5]))

    def test_margins_not_half_rejected(self):
        with pytest.raises(MarginsNotHalf):
            palindromic_check(ExchangeableSumSpec([0.5, 0.25, 0.25, 0.0]))
        with pytest.raises(MarginsNotHalf):
            palindromic_check(independent([0.4, 0.4]))

    def test_asymmetric_weights_fail(self):
        # mean pi = 1/2 but w is not a palindrome
        spec = ExchangeableSumSpec([0.35, 0.1, 0.25, 0.3])
        assert abs(spec.pi[0] - 0.5) < 1e-12
        assert not palindromic_check(spec)

    def test_odd_moments_vanish_for_palindromic(self):
        for d, spec in ((7, epd(7)), (5, ExchangeableSumSpec([0.2, 0.1, 0.2, 0.2, 0.1, 0.2]))):
            assert palindromic_check(spec)
            for k in range(3, d + 1, 2):
                assert abs(float(spec.theta_k_exact(k))) < 1e-14


class RecordingRng:
    """A generator stand-in: ``random(size)`` returns ``draw(size)`` and
    records each size asked for."""

    def __init__(self, draw):
        self.draw, self.sizes = draw, []

    def random(self, size):
        self.sizes.append(size)
        return self.draw(size)


class TestSampling:
    def test_independent_marginal_frequencies(self):
        n = 1_000_000
        idx = sample_indices(independent([0.5, 0.5, 0.5]), n, seed=123)
        freq = idx.mean(axis=0)
        assert np.all(np.abs(freq - 0.5) < 3 * np.sqrt(0.25 / n))

    def test_comonotone_states(self):
        idx = sample_indices(comonotone([0.4, 0.4]), 10_000, seed=9)
        sums = idx.sum(axis=1)
        assert set(np.unique(sums)) <= {0, 2}

    def test_bivariate_theta_one_only_diagonal_states(self):
        idx = sample_indices(BivariateThetaSpec(0.5, 0.5, 1.0), 10_000, seed=3)
        assert set(np.unique(idx.sum(axis=1))) <= {0, 2}

    def test_exchangeable_sum_counts(self):
        spec = ExchangeableSumSpec([0.1, 0.2, 0.3, 0.4])
        n = 200_000
        idx = sample_indices(spec, n, seed=21)
        sums = idx.sum(axis=1)
        for j, wj in enumerate(spec.w):
            freq = float(np.mean(sums == j))
            assert freq == pytest.approx(wj, abs=4 * np.sqrt(wj * (1 - wj) / n) + 1e-9)

    def test_empirical_moment_matches_analytic(self):
        n = 1_000_000
        spec = end3()
        idx = sample_indices(spec, n, seed=31)
        z = (idx - spec.pi) / spec.pi
        prod = z[:, 0] * z[:, 1]
        se = prod.std(ddof=1) / np.sqrt(n)
        assert prod.mean() == pytest.approx(mixed_moment(spec, [1, 2]), abs=4 * se)

    def test_inadmissible_sampling_refused(self):
        with pytest.raises(NotAdmissible):
            sample_indices(BivariateThetaSpec(0.5, 0.5, 1.2), 100, seed=0)

    @pytest.mark.parametrize("d", [3, 10, 40])
    def test_exchangeable_states_match_double_argsort(self, d):
        # one argsort scattering arange(d) < j gives the states that ranking
        # the scores (argsort of argsort) and comparing with j gave
        w = np.random.default_rng(d).random(d + 1)
        spec = ExchangeableSumSpec(w / w.sum())
        rng = stream(5, 0)
        j = bn._draw_categorical(spec.w, 5000, rng)
        ranks = rng.random((5000, d)).argsort(axis=1).argsort(axis=1)
        expected = (ranks < j[:, None]).astype(np.uint8)
        got = sample_indices(spec, 5000, seed=5)
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("d", [2, 10, 40])
    def test_epd_states_match_double_argsort_without_scores(self, d):
        # every epd row has j = 0 or d, so the (n, d) score block is not drawn;
        # nothing reads stream 0 after the index draw, so the bytes stay
        n, rng = 5000, stream(6, 0)
        j = bn._draw_categorical(epd(d).w, n, rng)
        ranks = rng.random((n, d)).argsort(axis=1).argsort(axis=1)
        expected = (ranks < j[:, None]).astype(np.uint8)
        np.testing.assert_array_equal(sample_indices(epd(d), n, seed=6), expected)
        recorder = RecordingRng(stream(6, 0).random)
        assert np.array_equal(epd(d).sample(n, recorder), expected)
        assert recorder.sizes == [n]

    @pytest.mark.parametrize("d", [3, 10, 40])
    def test_tied_scores_give_the_full_block_scatter(self, d):
        # rows with j = 0, d and in between; scores on a grid of 3 values tie
        n = 3000
        w = np.full(d + 1, 0.5 / (d - 1))
        w[0], w[-1] = 0.3, 0.2
        spec = ExchangeableSumSpec(w)
        levels = np.random.default_rng(d).random(n)
        scores = np.floor(np.random.default_rng(d + 1).random((n, d)) * 3) / 3
        recorder = RecordingRng(lambda size: levels if size == n else scores)
        got = spec.sample(n, recorder)
        j = bn._draw_categorical(spec.w, n, RecordingRng(lambda size: levels))
        assert np.any(j == 0) and np.any(j == d) and np.any((j > 0) & (j < d))
        expected = np.empty((n, d), dtype=np.uint8)
        np.put_along_axis(expected, scores.argsort(axis=1), np.arange(d) < j[:, None], axis=1)
        assert np.array_equal(got, expected)
        assert recorder.sizes == [n, (n, d)]

    def test_deterministic_given_seed(self):
        spec = ExchangeableSumSpec([0.25, 0.25, 0.25, 0.25])
        a = sample_indices(spec, 1000, seed=77)
        b = sample_indices(spec, 1000, seed=77)
        np.testing.assert_array_equal(a, b)


class TestMarginsNearZeroOrOne:
    def test_margin_within_an_ulp_of_one_is_refused(self):
        # the float pi rounds to 1 - 2^-52, but the exact margin is
        # 1 - 8.9e-17, and the per-state table's margin sums round to 1.0:
        # the law and its exported table are refused alike
        w = np.array([0, 0, 0, 0, 2.220446049250313e-16, 0.5])
        w /= w.sum()
        with pytest.raises(ValueError, match="2\\^-52"):
            ExchangeableSumSpec(w)
        ones = np.array([bin(s).count("1") for s in range(32)])
        table = w[ones] / np.array([1, 5, 10, 10, 5, 1])[ones]
        with pytest.raises(ValueError, match="2\\^-52"):
            FullPmfSpec(table)

    def test_subnormal_margin_is_refused(self):
        with pytest.raises(ValueError, match="2\\^-52"):
            ExchangeableSumSpec([1.0, 0.0, 2.2250738585e-313])

    def test_floor_itself_is_accepted(self):
        assert ExchangeableSumSpec([1.0 - PI_FLOOR, 0.0, PI_FLOOR]).pi[0] == PI_FLOOR

    def test_moment_beyond_the_float_range_is_a_library_error(self):
        # pi = 2^-50 and d = 30: theta_[d] ~ pi^(1 - d) overflows
        d, p = 30, 2.0 ** -50
        w = np.zeros(d + 1)
        w[0], w[d] = 1.0 - p, p
        law = ExchangeableSumSpec(w)
        with pytest.raises(MomentOverflow) as err:
            law.mixed_moment(range(1, d + 1))
        assert isinstance(err.value, SarmanovError)
        assert isinstance(err.value, OverflowError)


class TestScale:
    def test_exchangeable_thousand_dimensions(self):
        spec = epd(1000)
        assert float(spec.theta_k_exact(2)) == 1.0
        assert float(spec.theta_k_exact(3)) == 0.0
        idx = sample_indices(spec, 400, seed=61)
        sums = idx.sum(axis=1)
        assert set(np.unique(sums)) <= {0, 1000}

    def test_independent_ten_thousand_margins(self):
        rng = np.random.default_rng(2)
        pis = rng.uniform(0.2, 0.8, size=10_000)
        spec = independent(pis)
        assert mixed_moment(spec, [17, 9999]) == 0.0
        idx = sample_indices(spec, 200, seed=67)
        assert idx.shape == (200, 10_000)

    def test_comonotone_large_subset_moment(self):
        pis = np.full(500, 0.5)
        spec = comonotone(pis)
        assert mixed_moment(spec, [1, 500]) == pytest.approx(1.0, rel=1e-12)


class TestFrechetConsistency:
    def test_comonotone_maximizes_theta12(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            pi1, pi2 = rng.uniform(0.1, 0.9, size=2)
            best = -np.inf
            lo, hi = max(0.0, pi1 + pi2 - 1.0), min(pi1, pi2)
            for p11 in np.linspace(lo, hi, 101):
                pmf = [1 - pi1 - pi2 + p11, pi1 - p11, pi2 - p11, p11]
                spec = FullPmfSpec(np.maximum(pmf, 0.0) / np.sum(np.maximum(pmf, 0.0)))
                if spec.admissibility_check().passed:
                    best = max(best, spec.mixed_moment([1, 2]))
            como = comonotone([pi1, pi2]).mixed_moment([1, 2])
            assert best <= como + 1e-9
