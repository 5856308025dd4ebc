"""Dependence measures: closed forms, global bounds, empirical estimates.

Closed forms for the subset-expansion copulas:

    rho_S   = 12 * theta_12 * kappahat_1 * kappahat_2              (d = 2)
    tau     = (2/3) * rho_S                                        (d = 2)
    rho_d^- = c_d * sum_{|S|>=2} 2^|S| theta_S prod_{m in S} kappahat_m
    rho_d^+ = same with (-1)^|S|,      c_d = (d+1) / (2^d - (d+1))

with kappahat_m the induced kernel areas. Where the constants are rational
they are combined exactly and rounded once, so statements like
"rho_S = 1/3" hold bit-for-bit in binary64. Both tail-dependence
coefficients vanish for every admissible copula of this family; the
certified envelope C(u,u)/u <= (1 + |a| L1 L2) u is returned alongside.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .copula import SarmanovCopula
from .errors import BatchTooSmall
from .sampling import SampleBatch

MIN_BATCH = 1000
SE_GROUPS = 40  # disjoint sections used for standard errors


def __getattr__(name):
    # ``stats`` is scipy.stats, imported on first access: it is the slowest
    # scipy module to load, and importing the package or sampling needs none
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


def _spearman(c: SarmanovCopula, num):
    if c.d != 2:
        raise ValueError("bivariate measure")
    ks = _kappas(c, num)
    return None if ks is None else 12 * num(c.bern.mixed_moment((1, 2))) * ks[0] * ks[1]


def _kendall(c: SarmanovCopula, num):
    rho = _spearman(c, num)
    return None if rho is None else num(2) / num(3) * rho


def _orthant(c: SarmanovCopula, num):
    # the sum of the cdf expansion with (a_m, b_m) = (1, +-2 kappahat_m)
    kappas = _kappas(c, num)
    if kappas is None:
        return None
    d = c.d
    coef = num(d + 1) / num((1 << d) - (d + 1))
    ones = [num(1)] * d
    return tuple(coef * c.bern.expansion(ones, [sign * 2 * k for k in kappas], num)
                 for sign in (1, -1))


def spearman_analytic_exact(c: SarmanovCopula) -> Fraction | None:
    """Exact rational Spearman rho, when the kernel areas are rational."""
    return _spearman(c, Fraction)


def spearman_analytic(c: SarmanovCopula) -> float:
    """rho_S = 12 * theta * kappahat_1 * kappahat_2 (d = 2)."""
    exact = _spearman(c, Fraction)
    return _spearman(c, float) if exact is None else float(exact)


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
    analytic: dict = field(default_factory=dict)
    empirical: dict = field(default_factory=dict)
    se: dict = field(default_factory=dict)
    z: dict = field(default_factory=dict)
    copula_id: str = ""

    def to_dict(self) -> dict:
        return {
            "n": self.n, "seed": self.seed, "d": self.d, "copula_id": self.copula_id,
            "analytic": self.analytic, "empirical": self.empirical,
            "se": self.se, "z": self.z,
        }


def _sectioned_se(values_per_row: np.ndarray, statistic) -> tuple[float, float]:
    """(estimate, se) where the se comes from the spread of the statistic on
    SE_GROUPS disjoint sections. Captures the true estimator variance under
    dependence at O(n) cost."""
    n = values_per_row.shape[0]
    est = statistic(values_per_row)
    size = n // SE_GROUPS
    vals = np.array([statistic(values_per_row[i * size:(i + 1) * size]) for i in range(SE_GROUPS)])
    return float(est), float(vals.std(ddof=1) / math.sqrt(SE_GROUPS))


def empirical_measures(
    batch: SampleBatch,
    copula: SarmanovCopula | None = None,
) -> MeasureReport:
    """Rank-based Spearman/Kendall estimates (d = 2) plus plug-in orthant
    coefficients, each with sectioned standard errors.

    Both orthant estimates are unbiased O(n) sample functionals:
    integral of Pi dC is the mean of prod(U_m), and integral of C du equals
    E prod(1 - U_m) under C, so no empirical-cdf evaluation is needed.
    Passing ``copula`` adds the analytic column and z-scores.
    """
    rows = batch.rows
    if rows.shape[0] < MIN_BATCH:
        raise BatchTooSmall(f"need at least {MIN_BATCH} rows, got {rows.shape[0]}")
    n, d = rows.shape
    rep = MeasureReport(n=n, seed=batch.seed, d=d, copula_id=batch.copula_id)

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
        stats = sys.modules[__name__].stats  # through the module, so a replaced attribute is honoured
        for key, rank_corr in (("rho_s", stats.spearmanr), ("tau", stats.kendalltau)):
            rep.empirical[key], rep.se[key] = _sectioned_se(
                rows, lambda r, f=rank_corr: f(r[:, 0], r[:, 1]).statistic)

    coef = (d + 1) / (2 ** d - (d + 1))
    for key, vals in (("rho_plus", rows.prod(axis=1)), ("rho_minus", (1.0 - rows).prod(axis=1))):
        rep.empirical[key], rep.se[key] = _sectioned_se(
            vals, lambda v: coef * (2 ** d * float(v.mean()) - 1.0))

    for key, emp in rep.empirical.items():
        if key in rep.analytic and rep.se.get(key, 0.0) > 0.0:
            rep.z[key] = (emp - rep.analytic[key]) / rep.se[key]
    return rep
