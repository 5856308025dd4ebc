"""Shared numeric helpers: quadrature, extrema refinement, tabulated slopes,
vectorized bisection.

All kernels handled here are smooth or piecewise smooth on [0, 1]; quadrature
splits are placed at declared breakpoints.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

QUAD_TOL = 1e-12
SLOPE_GRID = 200_001  # uniform scan used before local refinement
REFINE_XTOL = 1e-10
BISECT_ITERS = 60  # 2^-60 interval width, well below the 1e-12 target


def quad01(f: Callable, breakpoints: Sequence[float] = (), tol: float = QUAD_TOL) -> float:
    """Integrate f over [0, 1] with adaptive quadrature.

    Interior breakpoints force panel boundaries so piecewise kernels
    (checkerboard, two-slope) integrate at full accuracy.
    """
    from scipy.integrate import quad

    pts = sorted(p for p in breakpoints if 0.0 < p < 1.0)
    val, _ = quad(
        lambda x: float(f(x)), 0.0, 1.0,
        points=pts or None, epsabs=tol, epsrel=tol, limit=200,
    )
    return val


def _refine_extremum(f: Callable, lo: float, mid: float, hi: float, maximize: bool) -> float:
    """Golden-section polish of a bracketed extremum; returns the extremal value.

    Falls back to the grid value when the bracket is invalid (flat or
    discontinuous f), which is exact for the piecewise-constant derivatives.
    """
    from scipy.optimize import minimize_scalar

    sign = -1.0 if maximize else 1.0
    fm = sign * float(f(mid))
    if not (fm < sign * float(f(lo)) and fm < sign * float(f(hi))):
        return float(f(mid))
    try:
        res = minimize_scalar(
            lambda x: sign * float(f(x)),
            bracket=(lo, mid, hi),
            method="golden",
            options={"xtol": REFINE_XTOL},
        )
    except (ValueError, RuntimeError):
        return float(f(mid))
    x = min(max(float(res.x), lo), hi)
    cand = float(f(x))
    grid = float(f(mid))
    return max(cand, grid) if maximize else min(cand, grid)


def scan_extrema(f: Callable, n_grid: int = SLOPE_GRID) -> tuple[float, float]:
    """(sup, inf) of f on [0, 1]: dense uniform scan plus local golden polish."""
    xs = np.linspace(0.0, 1.0, n_grid)
    vals = np.asarray(f(xs), dtype=float)
    imax = int(np.argmax(vals))
    imin = int(np.argmin(vals))
    sup = float(vals[imax])
    inf = float(vals[imin])
    if 0 < imax < n_grid - 1:
        sup = max(sup, _refine_extremum(f, xs[imax - 1], xs[imax], xs[imax + 1], True))
    if 0 < imin < n_grid - 1:
        inf = min(inf, _refine_extremum(f, xs[imin - 1], xs[imin], xs[imin + 1], False))
    return sup, inf


def gradient_on_grid(values: np.ndarray) -> np.ndarray:
    """Derivative of uniformly tabulated values: central differences inside,
    second-order one-sided at the endpoints. Step is 1/(n-1)."""
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 3:
        raise ValueError("need at least 3 tabulated points")
    h = 1.0 / (n - 1)
    phi = np.empty_like(values)
    phi[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
    phi[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * h)
    phi[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * h)
    return phi


def tabulated_slope(values) -> tuple[Callable, float, float]:
    """(phi, sup phi, inf phi) for a function tabulated on a uniform grid of
    [0, 1]: ``gradient_on_grid`` differences, linearly interpolated, so the
    extremes of the interpolant are the extremes at the grid points."""
    values = np.asarray(values, dtype=float)
    xs = np.linspace(0.0, 1.0, values.size)
    pv = gradient_on_grid(values)
    return (lambda u, xs=xs, pv=pv: np.interp(u, xs, pv)), float(np.max(pv)), float(np.min(pv))


def bisect_cdf(F: Callable, q: np.ndarray, iters: int = BISECT_ITERS) -> np.ndarray:
    """Leftmost u in [0, 1] with F(u) >= q, vectorized over q.

    F must be nondecreasing with F(0) = 0, F(1) = 1. The left-crossing
    convention makes quantiles of flat cdf segments deterministic (left
    endpoint of the segment).
    """
    q = np.asarray(q, dtype=float)
    lo = np.zeros_like(q)
    hi = np.ones_like(q)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        below = np.asarray(F(mid)) < q
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return hi


def sign_changes(f: Callable, breakpoints: Sequence[float] = (), n_grid: int = 20_001) -> bool:
    """True iff f takes both signs on (0, 1), ignoring |f| <= 1e-12 dust."""
    xs = np.linspace(0.0, 1.0, n_grid)
    xs = np.union1d(xs, [b for b in breakpoints if 0.0 < b < 1.0])
    vals = np.asarray(f(xs), dtype=float)
    return bool(np.any(vals > 1e-12) and np.any(vals < -1e-12))


def ks_statistic(u: np.ndarray) -> float:
    """Sup-distance between the empirical cdf of u and the Unif(0,1) cdf."""
    u = np.sort(np.asarray(u, dtype=float))
    n = u.size
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    return float(max(np.max(grid_hi - u), np.max(u - grid_lo)))
