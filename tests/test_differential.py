"""Differential checks on random laws: independent routes must agree.

Each example draws d in 2..5 and a latent law (a full pmf that may have
negative entries, an exchangeable sum law, or the comonotone coupling).
Every margin is the power-type calibrated pair F0 = x^(1/(1-pi)) whose pi
matches the law, so any law can be assembled into a copula. The orthant
check uses pi = 1/2 catalog margins with rational kernel areas instead, and
the sampling check compares state frequencies on fixed-seed laws. The
lower-tail checks hold the exchangeable cdf to a relative bound against an
exact mixture sum, on hki margins whose pi matches the law. The
batched rank statistics of ``measures`` are checked against scipy, row by
row (the long single row of a full sample bit for bit), and
``empirical_measures`` against the per-section scipy loop it replaced.
Exchangeable mixed moments must equal ``theta_k_exact`` bit for bit.
An explicit pair built from each catalog row's kernel-built pair must
estimate that pair's analytic slope bounds, area and sign.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import kendalltau, spearmanr

from sarmanov.bernoulli import (
    PMF_CLAMP,
    ExchangeableSumSpec,
    FullPmfSpec,
    admissibility_check,
    comonotone,
    epd,
    independent,
    sample_indices,
)
from sarmanov.calibration import calibrate_from_kernel, explicit_pair
from sarmanov.copula import SarmanovCopula, admissible_a_interval, d_increasing_oracle, make_bivariate
from sarmanov.kernels import CATALOG_IDS, DEFAULT_PARAMS, catalog_lookup
from sarmanov.measures import (
    SE_GROUPS,
    _kendall_rows,
    _orthant,
    _spearman_rows,
    empirical_measures,
    orthant_rho,
    orthant_rho_exact,
)
from sarmanov.sampling import SampleBatch, sample

ORACLE_GRID = {2: 16, 3: 8}


def power_pair(pi: float):
    e = 1.0 / (1.0 - pi)
    F0 = lambda x: np.asarray(x, float) ** e  # noqa: E731
    F1 = lambda x: (np.asarray(x, float) - (1.0 - pi) * np.asarray(x, float) ** e) / pi  # noqa: E731
    return explicit_pair(F0, F1, pi)


def weights(draw, size: int) -> np.ndarray:
    raw = np.array(draw(st.lists(st.floats(-0.1, 1.0), min_size=size, max_size=size)))
    assume(raw.sum() > 0.5)
    return raw / raw.sum()


@st.composite
def copulas(draw, kinds=("full_pmf", "exchangeable", "comonotone"), max_d=5):
    d = draw(st.integers(2, max_d))
    kind = draw(st.sampled_from(kinds))
    if kind == "comonotone":
        law = comonotone(draw(st.lists(st.floats(0.1, 0.9), min_size=d, max_size=d)))
    else:
        try:
            law = FullPmfSpec(weights(draw, 1 << d)) if kind == "full_pmf" else (
                ExchangeableSumSpec(weights(draw, d + 1)))
        except ValueError:  # margins outside (0, 1)
            assume(False)
        assume(np.all((law.pi > 0.1) & (law.pi < 0.9)))
    return SarmanovCopula(tuple(power_pair(float(p)) for p in law.pi), law)


def points(draw, d: int) -> np.ndarray:
    flat = draw(st.lists(st.floats(0.0, 1.0), min_size=3 * d, max_size=3 * d))
    return np.array(flat).reshape(3, d)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_expansion_cdf_equals_mixture_oracle(data):
    c = data.draw(copulas())
    pts = points(data.draw, c.d)
    for pt, value in zip(pts, c.cdf(pts)):
        assert abs(value - c.mixture_cdf_oracle(pt)) <= 1e-12


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_exchangeable_hook_equals_full_table(data):
    # the O(d^2) recurrence against the generic contraction of the same law
    c = data.draw(copulas(kinds=("exchangeable",)))
    table = SarmanovCopula(c.margins, FullPmfSpec(c.bern.pmf_table()))
    pts = points(data.draw, c.d)
    assert np.max(np.abs(c.cdf(pts) - table.cdf(pts))) <= 1e-12
    assert np.max(np.abs(np.subtract(orthant_rho(c), orthant_rho(table)))) <= 1e-12


def rounded(moment):
    """float(moment()), or "overflow" for a moment beyond the float range
    (tiny margins pi give theta_S ~ pi^(1-|S|))."""
    try:
        return float(moment())
    except OverflowError:
        return "overflow"


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_exchangeable_moment_equals_exact_reference(data):
    # mixed_moment runs the mixture hook on the law's rationals and rounds
    # once, so it is the hypergeometric sum's value to the last bit
    d = data.draw(st.integers(2, 12))
    try:
        law = epd(d) if data.draw(st.integers(0, 4)) == 0 else ExchangeableSumSpec(weights(data.draw, d + 1))
    except ValueError:  # margin outside (0, 1)
        assume(False)
    for k in range(2, d + 1):
        S = data.draw(st.sets(st.integers(1, d), min_size=k, max_size=k))
        assert rounded(lambda: law.mixed_moment(S)) == rounded(lambda: law.theta_k_exact(k))


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_exported_pmf_keeps_its_verdict(data):
    # zero weights become dust -c 1e-12 (c in [0, 3]), so the negative mass
    # of the law falls on either side of -PMF_CLAMP; its per-state table is
    # what `validate --format csv` exports and `full_pmf` reloads
    d = data.draw(st.integers(2, 8))
    w = np.array(data.draw(st.lists(st.just(0.0) | st.floats(0.0, 1.0),
                                    min_size=d + 1, max_size=d + 1)))
    assume(w.sum() > 0.1)
    w /= w.sum()
    dust = np.array(data.draw(st.lists(st.floats(0.0, 3.0), min_size=d + 1, max_size=d + 1)))
    w = np.where(w == 0.0, -dust * PMF_CLAMP, w)
    w[np.argmax(w)] += 1.0 - w.sum()
    negative = math.fsum(np.minimum(w, 0.0))
    # at the clamp itself the verdict rests on how the export rounds w_j / C(d, j)
    assume(abs(negative + PMF_CLAMP) > 1e-6 * PMF_CLAMP)
    try:
        law = ExchangeableSumSpec(w)
    except ValueError:  # margin outside (0, 1)
        assume(False)
    table = FullPmfSpec(law.pmf_table())
    verdict = negative >= -PMF_CLAMP
    assert admissibility_check(law).passed == admissibility_check(table).passed == verdict
    assert (np.min(law.pmf_table()) >= 0.0) == verdict


def test_cleared_dust_law_exports_a_loadable_table():
    # clearing -0.99999e-12 leaves weights that total 1 + 1.00009e-12; a sum
    # test of 1e-12 alone refused the exported table (Hypothesis example)
    law = ExchangeableSumSpec([0.5 + 0.99999e-12, -0.99999e-12, 0.5])
    table = FullPmfSpec(law.pmf_table())
    assert admissibility_check(law).passed and admissibility_check(table).passed


@pytest.mark.parametrize("w", [
    [0.5, -1.000000000001e-12, 0.5 + 1.000000000001e-12],
    [0.0, 0.7272727272737851, 0.36363636363689256, -1.4545454545475701e-12, -0.09090909090922314],
])
def test_dust_band_laws_agree_with_their_table(w):
    # each w_j / C(d, j) is above -PMF_CLAMP, but the negative mass is not
    law = ExchangeableSumSpec(w)
    table = FullPmfSpec(law.pmf_table())
    assert not admissibility_check(law).passed and not admissibility_check(table).passed
    c = SarmanovCopula(tuple(power_pair(float(p)) for p in law.pi), law)
    t = SarmanovCopula(c.margins, table)
    assert np.max(np.abs(np.subtract(orthant_rho(c), orthant_rho(t)))) <= 1e-12


def exact_exchangeable_cdf(c, u) -> Fraction:
    """E prod_m F_{m,[I_m]}(u_m) of an exchangeable law in exact arithmetic,
    from the float component cdf values: sum_j w_j / C(d, j) times the t^j
    coefficient of prod_m (F0_m(u_m) + t F1_m(u_m))."""
    e = [Fraction(1)] + [Fraction(0)] * c.d
    for pair, x in zip(c.margins, u):
        f0, f1 = Fraction(float(pair.F0(x))), Fraction(float(pair.F1(x)))
        for k in range(c.d, 0, -1):
            e[k] = e[k] * f0 + e[k - 1] * f1
        e[0] *= f0
    return sum(Fraction(float(wj)) / math.comb(c.d, j) * e[j] for j, wj in enumerate(c.bern.w))


def assert_relative(c, u, rel=1e-13):
    value, ref = c.cdf(u), exact_exchangeable_cdf(c, u)
    assert value >= 0.0
    assert abs(Fraction(value) - ref) <= Fraction(rel) * ref, (float(ref), value)


@pytest.mark.parametrize("d", [10, 20, 40, 60])
@pytest.mark.parametrize("name", ["fgm", "sin"])
def test_lower_tail_relative_accuracy(name, d):
    # w = 1/2 on j = d/2 - 1 and d/2 + 1: a signed sum over theta_S cancels
    # here (-2.8e-40 at d = 40, sin, t = 0.2, where the cdf is 1.4e-45)
    w = np.zeros(d + 1)
    w[d // 2 - 1] = w[d // 2 + 1] = 0.5
    c = SarmanovCopula((calibrate_from_kernel(catalog_lookup(name)),) * d, ExchangeableSumSpec(w))
    for t in (0.05, 0.2, 0.5):
        assert_relative(c, np.full(d, t))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_lower_tail_relative_accuracy_random_laws(data):
    # admissible exchangeable laws; hki(p) has pi = p / (1 + p), and its F0
    # is u - g(u) in both the pair and the cdf, so the bound sees only the sum
    d = data.draw(st.integers(2, 30))
    w = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=d + 1, max_size=d + 1)))
    assume(w.sum() > 0.5)
    try:
        law = ExchangeableSumSpec(w / w.sum())
    except ValueError:  # margins outside (0, 1)
        assume(False)
    pi = float(law.pi[0])
    assume(0.25 <= pi <= 0.75)
    pair = calibrate_from_kernel(catalog_lookup("hki", {"p": pi / (1.0 - pi)}))
    u = np.array(data.draw(st.lists(st.floats(0.05, 1.0), min_size=d, max_size=d)))
    assert_relative(SarmanovCopula((pair,) * d, law), u)


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_certificate_agrees_with_oracle(data):
    # a passed certificate means a d-increasing cdf, so the oracle passes;
    # equivalently, an oracle failure implies a failed certificate
    c = data.draw(copulas(max_d=3))
    report = d_increasing_oracle(c.cdf, c.d, ORACLE_GRID[c.d])
    assert report.passed or not c.bern.admissibility_check().passed


EXACT_HALF_KERNELS = ("fgm", "checkerboard", "lee_quadratic")  # pi = 1/2, rational kappa


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_exact_and_float_orthant_agree(data):
    d = data.draw(st.integers(2, 5))
    if data.draw(st.booleans()):
        raw = weights(data.draw, 1 << d)
        law = FullPmfSpec((raw + raw[np.arange(1 << d) ^ ((1 << d) - 1)]) / 2)
    else:
        raw = weights(data.draw, d + 1)
        law = ExchangeableSumSpec((raw + raw[::-1]) / 2)
    ids = data.draw(st.lists(st.sampled_from(EXACT_HALF_KERNELS), min_size=d, max_size=d))
    c = SarmanovCopula(tuple(calibrate_from_kernel(catalog_lookup(k, DEFAULT_PARAMS.get(k, {})))
                             for k in ids), law)
    exact, approx = orthant_rho_exact(c), _orthant(c, float)
    assert max(abs(float(e) - a) for e, a in zip(exact, approx)) <= 1e-14


def frequency_laws():
    rng = np.random.default_rng(20)
    for d in (2, 3, 4):
        for _ in range(5):
            w = rng.random(d + 1)
            yield FullPmfSpec(rng.dirichlet(np.ones(1 << d)))
            yield ExchangeableSumSpec(w / w.sum())
            yield comonotone(rng.uniform(0.1, 0.9, d))
            yield independent(rng.uniform(0.1, 0.9, d))


@pytest.mark.parametrize("law", list(frequency_laws()), ids=lambda law: f"{law.kind}-{law.d}")
def test_sample_frequencies_match_pmf(law):
    # 560 state checks over the 60 laws: at 5 SE the chance of any false
    # alarm is below 1e-3; zero-probability states must never be drawn
    n = 20_000
    pmf = law.pmf_table()
    states = sample_indices(law, n, seed=7) @ (1 << np.arange(law.d))
    freq = np.bincount(states, minlength=pmf.size) / n
    assert np.all(np.abs(freq - pmf) <= 5 * np.sqrt(pmf * (1 - pmf) / n))


@st.composite
def rank_batches(draw):
    """(g, s, 2) batches: continuous, rounded to 2..30 levels, or with one
    column tied throughout; the second column leans on the first."""
    g, s = draw(st.integers(1, 4)), draw(st.integers(2, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.random((g, s, 2))
    lean = draw(st.floats(-1.0, 1.0))
    toward = rows[..., 0] if lean > 0 else 1 - rows[..., 0]
    rows[..., 1] = (1 - abs(lean)) * rows[..., 1] + abs(lean) * toward
    kind = draw(st.sampled_from(("continuous", "tied", "constant")))
    if kind == "tied":
        rows = np.floor(rows * draw(st.integers(2, 30)))
    elif kind == "constant":
        rows[..., draw(st.integers(0, 1))] = 0.25
    return rows


@given(rows=rank_batches())
@settings(max_examples=150, deadline=None)
def test_batched_rank_statistics_equal_scipy(rows):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns on a constant column
        ref = [(spearmanr(r[:, 0], r[:, 1]).statistic, kendalltau(r[:, 0], r[:, 1]).statistic) for r in rows]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = np.stack([_spearman_rows(rows), _kendall_rows(rows)], axis=1)
    np.testing.assert_allclose(got, np.array(ref), rtol=0, atol=1e-13)  # NaN where scipy's is


@pytest.mark.parametrize("lean", [-0.6, 0.7])
@pytest.mark.parametrize("decimals", [None, 1, 2, 3])
@pytest.mark.parametrize("n", [17, 33, 1025, 1000, 20_011, 65_537, 200_000])
def test_full_sample_kendall_equals_scipy_bit_for_bit(n, decimals, lean):
    # the reported tau is one long row; lengths just above a block boundary
    # take the smaller leaves of the padded merge count
    rng = np.random.default_rng(n)
    rows = rng.random((n, 2))
    toward = rows[:, 0] if lean > 0 else 1 - rows[:, 0]
    rows[:, 1] = (1 - abs(lean)) * rows[:, 1] + abs(lean) * toward
    if decimals is not None:
        rows = np.round(rows, decimals)  # ties in both columns and in pairs
    assert _kendall_rows(rows[None])[0] == kendalltau(rows[:, 0], rows[:, 1]).statistic


def sectioned_loop(values, statistic):
    """The per-section loop the batched statistics replaced: 1 + SE_GROUPS calls."""
    size = values.shape[0] // SE_GROUPS
    vals = np.array([statistic(values[i * size:(i + 1) * size]) for i in range(SE_GROUPS)])
    return float(statistic(values)), float(vals.std(ddof=1) / math.sqrt(SE_GROUPS))


@pytest.mark.parametrize("n", [1000, 20_000, 20_011])
@pytest.mark.parametrize("kernel", ["fgm", "checkerboard"])
def test_empirical_measures_equal_sectioned_scipy_loop(kernel, n):
    k = catalog_lookup(kernel)
    c = make_bivariate(k, k, a=admissible_a_interval(k, k)[1])
    batch = sample(c, n, seed=11)
    rows = batch.rows
    coef = 3.0  # (d + 1) / (2^d - (d + 1)) at d = 2
    ref = {key: sectioned_loop(rows, lambda r, f=f: f(r[:, 0], r[:, 1]).statistic)
           for key, f in (("rho_s", spearmanr), ("tau", kendalltau))}
    for key, vals in (("rho_plus", rows.prod(axis=1)), ("rho_minus", (1.0 - rows).prod(axis=1))):
        ref[key] = sectioned_loop(vals, lambda v: coef * (4 * float(v.mean()) - 1.0))
    rep = empirical_measures(batch, c)
    for key, (est, se) in ref.items():
        assert rep.empirical[key] == pytest.approx(est, rel=1e-15, abs=0), key
        assert rep.se[key] == pytest.approx(se, rel=1e-15, abs=0), key


@given(n=st.sampled_from([1000, 1039, 20_011]), seed=st.integers(0, 2**32 - 1),
       lean=st.floats(-1.0, 1.0), col=st.integers(0, 1),
       kind=st.sampled_from(("continuous", "tied", "one_tied", "remainder_tied", "constant")))
@settings(max_examples=40, deadline=None)
def test_empirical_rank_measures_equal_sectioned_scipy_loop(n, seed, lean, col, kind):
    # the full sample and the sections share one sort per column; ties take
    # the rank path of tied data, batch by batch, wherever they fall
    rng = np.random.default_rng(seed)
    rows = rng.random((n, 2))
    toward = rows[:, 0] if lean > 0 else 1 - rows[:, 0]
    rows[:, 1] = (1 - abs(lean)) * rows[:, 1] + abs(lean) * toward
    if kind == "tied":
        rows = np.floor(rows * 7) / 7
    elif kind == "one_tied":
        rows[:, col] = np.floor(rows[:, col] * 30) / 30
    elif kind == "remainder_tied":  # the last row, left out of every section, repeats the first
        assume(n % SE_GROUPS)
        rows[-1] = rows[0]
    elif kind == "constant":
        rows[:, col] = 0.25
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns on a constant column
        ref = {key: sectioned_loop(rows, lambda r, f=f: f(r[:, 0], r[:, 1]).statistic)
               for key, f in (("rho_s", spearmanr), ("tau", kendalltau))}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = empirical_measures(SampleBatch(rows=rows, seed=0))
    for key, (est, se) in ref.items():
        assert rep.empirical[key] == pytest.approx(est, rel=1e-15, abs=0, nan_ok=True), key
        assert rep.se[key] == pytest.approx(se, rel=1e-15, abs=0, nan_ok=True), key


@pytest.mark.parametrize("name", CATALOG_IDS)
def test_explicit_pair_estimates_the_kernel_built_induced_kernel(name):
    # the same F0, F1 and pi handed over as an explicit pair: the tabulated
    # estimate must land on the analytic constants of Lambda * g. norm_lee's
    # inf phi is its value at u = 0, where phi has an infinite slope and the
    # one-sided end difference overshoots it by 1.5e-4; every other row is
    # within 3e-8
    pair = calibrate_from_kernel(catalog_lookup(name, DEFAULT_PARAMS.get(name, {})))
    est, ref = explicit_pair(pair.F0, pair.F1, pair.pi).induced, pair.induced
    assert est.Lambda == pytest.approx(ref.Lambda, rel=1e-7, abs=0)
    assert est.lam == pytest.approx(ref.lam, rel=2e-4, abs=0)
    assert est.kappa == pytest.approx(ref.kappa, rel=0, abs=1e-9)
    assert est.sign_constant == ref.sign_constant
