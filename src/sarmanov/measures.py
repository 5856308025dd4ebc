"""Dependence measures: closed forms, global bounds, empirical estimates.

Closed forms, with kappahat_m the induced kernel areas, Z_m = (I_m - pi_m)/pi_m
and E the latent law's ``mix`` hook:

    rho_S   = 12 * theta_12 * kappahat_1 * kappahat_2              (d = 2)
    tau     = (2/3) * rho_S                                        (d = 2)
    rho_d^- = c_d * (E prod_m (1 + 2 kappahat_m Z_m) - 1),  c_d = (d+1) / (2^d - (d+1))
    rho_d^+ = same with -2 kappahat_m

Where the constants are rational they are combined exactly and rounded
once, so statements like "rho_S = 1/3" hold bit-for-bit in binary64. Both
tail-dependence coefficients vanish for every admissible copula of this
family; the certified envelope C(u,u)/u <= (1 + |a| L1 L2) u is returned
alongside.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from .copula import SarmanovCopula
from .errors import BatchTooSmall
from .sampling import SampleBatch

MIN_BATCH = 1000
SE_GROUPS = 40  # disjoint sections used for standard errors


def __getattr__(name):
    # ``stats`` is scipy.stats, imported on first access. Nothing in the
    # package uses it: perfbench's tracer wraps it when it installs, and this
    # goes when the tracer stops doing so
    if name == "stats":
        from scipy import stats

        globals()["stats"] = stats
        return stats
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# --- closed forms ------------------------------------------------------------
# Each formula takes the number type: ``Fraction`` (None when a kernel area is
# not rational) or ``float``. The public pairs prefer the exact value and
# round it once.


def _kappas(c: SarmanovCopula, num) -> list | None:
    if num is float:
        return [p.induced.kappa for p in c.margins]
    kex = [p.induced.kappa_exact for p in c.margins]
    return None if any(k is None for k in kex) else kex


def _spearman(c: SarmanovCopula, num, theta=None):
    if c.d != 2:
        raise ValueError("bivariate measure")
    ks = _kappas(c, num)
    theta = c.bern.mixed_moment((1, 2)) if theta is None else theta
    # + num(0) turns a float -0.0 (theta < 0 times a zero area) into 0.0
    return None if ks is None else 12 * num(theta) * ks[0] * ks[1] + num(0)


def _kendall(c: SarmanovCopula, num):
    rho = _spearman(c, num)
    return None if rho is None else num(2) / num(3) * rho


def _orthant(c: SarmanovCopula, num):
    if c.d == 2:  # both are rho_S, which stays accurate in relative terms
        rho = _spearman(c, num)
        return None if rho is None else (rho, rho)
    # the law's mixture with (a_m, b_m) = (1, +-2 kappahat_m)
    kappas = _kappas(c, num)
    if kappas is None:
        return None
    d = c.d
    coef = num(d + 1) / num((1 << d) - (d + 1))
    ones = [num(1)] * d
    return tuple(coef * (c.bern.mix(ones, [sign * 2 * k for k in kappas], num) - 1)
                 for sign in (1, -1))


def spearman_analytic_exact(c: SarmanovCopula) -> Fraction | None:
    """Exact rational Spearman rho, when the kernel areas are rational."""
    return _spearman(c, Fraction)


def spearman_analytic(c: SarmanovCopula, theta: float | None = None) -> float:
    """rho_S = 12 * theta * kappahat_1 * kappahat_2 (d = 2), at the law's
    theta or, for the ends of a range, at the one given."""
    exact = _spearman(c, Fraction, theta)
    return _spearman(c, float, theta) if exact is None else float(exact)


def kendall_analytic_exact(c: SarmanovCopula) -> Fraction | None:
    return _kendall(c, Fraction)


def kendall_analytic(c: SarmanovCopula) -> float:
    """tau = (2/3) * rho_S; the two concordance measures are locked together
    for every separable perturbation of independence."""
    exact = _kendall(c, Fraction)
    return _kendall(c, float) if exact is None else float(exact)


@dataclass(frozen=True)
class GlobalRhoBounds:
    interval: tuple[float, float] = (-0.75, 0.75)
    attained_by: str = "checkerboard kernels in both margins at theta = -1 and +1"


def rho_global_bounds() -> GlobalRhoBounds:
    """Sharp attainable range of Spearman's rho over the whole family."""
    return GlobalRhoBounds()


def orthant_rho_exact(c: SarmanovCopula) -> tuple[Fraction, Fraction] | None:
    return _orthant(c, Fraction)


def orthant_rho(c: SarmanovCopula) -> tuple[float, float]:
    """(rho_d^-, rho_d^+): the lower/upper average orthant Spearman
    coefficients. At d = 2 both reduce to the bivariate rho_S."""
    exact = _orthant(c, Fraction)
    if exact is None:
        return _orthant(c, float)
    return float(exact[0]), float(exact[1])


def tail_dependence(c: SarmanovCopula):
    """(lambda_L, lambda_U, envelope): both coefficients are identically
    zero; the envelope t(u) = (1 + |theta| L1hat L2hat) u certifies the
    joint-corner decay C(u,u) <= t(u) * u."""
    if c.d != 2:
        raise ValueError("bivariate measure")
    L1 = c.margins[0].induced.slope_sup()
    L2 = c.margins[1].induced.slope_sup()
    coef = 1.0 + abs(c.theta) * L1 * L2

    def envelope(u, coef=coef):
        return coef * np.asarray(u, dtype=float)

    return 0.0, 0.0, envelope


# --- empirical estimates ------------------------------------------------------


@dataclass
class MeasureReport:
    """Analytic and empirical dependence measures with standard errors."""

    n: int
    seed: int
    d: int
    copula_id: str = ""
    analytic: dict = field(default_factory=dict)
    empirical: dict = field(default_factory=dict)
    se: dict = field(default_factory=dict)
    z: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _sectioned_se(values: np.ndarray, statistic) -> tuple:
    """(estimate, se). ``statistic`` maps a batch (g, size, ...) to g values
    on its last axis, after any statistics on leading axes: one call on the
    full sample, one on all SE_GROUPS disjoint sections (the remainder rows
    left out), whose spread gives the se. Captures the true estimator
    variance under dependence at O(n) cost."""
    size = values.shape[0] // SE_GROUPS
    est = statistic(values[None])[..., 0]
    vals = statistic(values[:size * SE_GROUPS].reshape(SE_GROUPS, size, *values.shape[1:]))
    return est.tolist(), (vals.std(axis=-1, ddof=1) / math.sqrt(SE_GROUPS)).tolist()


def _first_in_run(sv: np.ndarray) -> np.ndarray:
    """Position of the first element of each element's run of equal values,
    along the last axis of sorted ``sv``."""
    new = np.ones(sv.shape, bool)
    new[..., 1:] = sv[..., 1:] != sv[..., :-1]
    return np.maximum.accumulate(np.where(new, np.arange(sv.shape[-1]), 0), axis=-1)


def _ranks(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """0-based (min, max) rank of each value within its row of ``v``
    (..., s); tied values share both."""
    s = v.shape[-1]
    order = np.argsort(v, axis=-1)
    sv = np.take_along_axis(v, order, axis=-1)
    first, last = np.empty(v.shape, np.intp), np.empty(v.shape, np.intp)
    np.put_along_axis(first, order, _first_in_run(sv), axis=-1)
    np.put_along_axis(last, order, s - 1 - _first_in_run(sv[..., ::-1])[..., ::-1], axis=-1)
    return first, last


def _spearman_rows(rows: np.ndarray, ranks=None) -> np.ndarray:
    """Spearman's rho per row of a batch (g, s, 2), as scipy's ``spearmanr``
    computes it: the Pearson correlation of average ranks, NaN for a constant
    column. The rank sums are exact below s = 2e5, and the divisions follow
    np.corrcoef, so the values agree with scipy's to the last bit there.
    ``ranks``, the ``_ranks`` of both columns, may be passed in."""
    s = rows.shape[1]
    ranks = ranks or map(_ranks, (rows[..., 0], rows[..., 1]))
    x, y = (np.add(*r) - (s - 1.0) for r in ranks)  # 2 x centred ranks
    k = 1.0 / (s - 1)
    with np.errstate(divide="ignore", invalid="ignore"):  # a constant column gives 0 / 0
        rho = ((x * y).sum(-1) * k) / np.sqrt((y * y).sum(-1) * k) / np.sqrt((x * x).sum(-1) * k)
    return np.clip(rho, -1.0, 1.0)


LEAF = 16  # the inversion count brute-forces blocks of at most this many elements


def _inversions(a: np.ndarray) -> np.ndarray:
    """Pairs i < j with a_i > a_j in each row of an integer array (g, s) with
    values in [0, s): brute force within blocks of leaf <= LEAF elements,
    then a bottom-up merge count over all rows at once. Rows are padded to
    leaf * 2^levels with the fewest levels that fit (20,480 places for
    s = 20,000), not to a power of two."""
    g, s = a.shape
    levels = (-(-s // LEAF) - 1).bit_length()
    leaf = -(-s >> levels)  # ceil(s / 2^levels)
    pad = np.full((g, (leaf << levels) - s), s, a.dtype)  # above every value: adds no pair
    a = np.concatenate([a, pad], axis=1).reshape(g, -1, leaf)
    inv = ((a[..., :, None] > a[..., None, :]) & np.triu(np.ones((leaf, leaf), bool), 1)).sum(axis=(1, 2, 3))
    a, span = np.sort(a, axis=-1), leaf
    for _ in range(levels):
        a = a.reshape(g, -1, 2 * span)
        order = np.argsort(a, axis=-1, kind="stable")  # merges the sorted halves, left first among equals
        # the j-th right-half element, merged to position p, is below span - (p - j) left ones
        right_pos = (np.arange(2 * span) * (order >= span)).sum(axis=-1)
        inv += (span * span + span * (span - 1) // 2 - right_pos).sum(axis=-1)
        a, span = np.take_along_axis(a, order, axis=-1), 2 * span
    return inv


def _kendall_rows(rows: np.ndarray, ranks=None) -> np.ndarray:
    """Kendall's tau-b per row of a batch (g, s, 2), with scipy's tie counts
    and formula: NaN when a column is constant. On one row it equals scipy's
    bit for bit. ``ranks`` as for ``_spearman_rows``."""
    s = rows.shape[1]
    (x0, x1), (y0, y1) = ranks or map(_ranks, (rows[..., 0], rows[..., 1]))
    xtie, ytie = (x1 - x0).sum(-1) // 2, (y1 - y0).sum(-1) // 2  # tied pairs
    key = np.sort(x0 * s + y0, axis=-1)  # order by x, then y
    ntie = (np.arange(s) - _first_in_run(key)).sum(-1)  # pairs tied in both
    dis = _inversions(key % s)
    tot = s * (s - 1) // 2
    with np.errstate(divide="ignore", invalid="ignore"):  # a constant column gives 0 / 0
        tau = (tot - xtie - ytie + ntie - 2 * dis) / np.sqrt(tot - xtie) / np.sqrt(tot - ytie)
    return np.clip(tau, -1.0, 1.0)


def empirical_measures(
    batch: SampleBatch,
    copula: SarmanovCopula | None = None,
) -> MeasureReport:
    """Rank-based Spearman/Kendall estimates (d = 2) plus plug-in orthant
    coefficients, each with sectioned standard errors. The full sample and
    the SE_GROUPS sections take the same batched rank statistics, with ties
    handled as scipy does (average ranks, tau-b); no scipy module is loaded.

    Both orthant estimates are unbiased O(n) sample functionals:
    integral of Pi dC is the mean of prod(U_m), and integral of C du equals
    E prod(1 - U_m) under C, so no empirical-cdf evaluation is needed.
    Passing ``copula`` adds the analytic column and z-scores.
    """
    rows = batch.rows
    if rows.shape[0] < MIN_BATCH:
        raise BatchTooSmall(f"need at least {MIN_BATCH} rows, got {rows.shape[0]}")
    n, d = rows.shape
    rep = MeasureReport(n=n, seed=batch.seed, d=d)

    if copula is not None:
        if d == 2:
            rep.analytic["rho_s"] = spearman_analytic(copula)
            rep.analytic["tau"] = kendall_analytic(copula)
            lam_l, lam_u, _ = tail_dependence(copula)
            rep.analytic["lambda_l"] = lam_l
            rep.analytic["lambda_u"] = lam_u
        rho_m, rho_p = orthant_rho(copula)
        rep.analytic["rho_minus"] = rho_m
        rep.analytic["rho_plus"] = rho_p

    if d == 2:
        def rank_statistics(r):
            ranks = [_ranks(r[..., 0]), _ranks(r[..., 1])]  # one ranking of each column serves both
            return np.stack([_spearman_rows(r, ranks), _kendall_rows(r, ranks)])

        (rep.empirical["rho_s"], rep.empirical["tau"]), (rep.se["rho_s"], rep.se["tau"]) = _sectioned_se(
            rows, rank_statistics)

    coef = (d + 1) / (2 ** d - (d + 1))
    for key, vals in (("rho_plus", rows.prod(axis=1)), ("rho_minus", (1.0 - rows).prod(axis=1))):
        rep.empirical[key], rep.se[key] = _sectioned_se(
            vals, lambda v: coef * (2 ** d * v.mean(axis=-1) - 1.0))

    for key, emp in rep.empirical.items():
        if key in rep.analytic and rep.se.get(key, 0.0) > 0.0:
            rep.z[key] = (emp - rep.analytic[key]) / rep.se[key]
    return rep
