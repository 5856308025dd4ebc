"""Shared numeric helpers: quadrature, extrema refinement, tabulated slopes,
vectorized cdf inversion.

All kernels handled here are smooth or piecewise smooth on [0, 1]; quadrature
splits are placed at declared breakpoints.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Sequence

import numpy as np

QUAD_TOL = 1e-12
SLOPE_GRID = 200_001  # uniform scan used before local refinement
REFINE_XTOL = 1e-10
BISECT_ITERS = 60  # bisect_cdf's default: 2^-60 width on [0, 1]
TABLE_BITS = 12  # invert_cdf tabulates F on 2^12 + 1 points
XTOL_BITS = 44  # and returns hi of a bracket 2^-44 wide, below the 1e-12 target
FLAT_BITS = 6  # cells where F rises by less than 2^-6 of their width are bisected
ILLINOIS_STEPS = 8  # regula falsi steps before bisection takes over
COMPACT_AFTER = 3  # steps before closed rows are looked for
CHUNK_ROWS = 1 << 13  # rows refined at a time, which bounds the temporaries
INVERSE_BITS = 13  # invert_cdf's guesses interpolate F^-1 at 2^13 + 1 uniform levels
GUESS_POINTS = 6  # nodes each guess interpolates
POLISH_STEPS = 6  # bisection steps that narrow a node's 2^-44 bracket to 2^-50
INVERSE_TABLES = 64  # inverse tables kept (64 KB each), keyed by F's table

_inverses: dict[int, int] = {}  # hash of F's table -> row of _nodes, least recently used first
_nodes = np.empty((0, 0))  # one block of INVERSE_TABLES rows, allocated at the first build
_cache_lock = threading.Lock()


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


def bisect_cdf(F: Callable, q: np.ndarray, iters: int = BISECT_ITERS,
               lo=0.0, hi=1.0) -> np.ndarray:
    """Leftmost u in [lo, hi] with F(u) >= q, vectorized over q.

    F must be nondecreasing with F(lo) < q <= F(hi) (on [0, 1]: F(0) = 0,
    F(1) = 1). The left-crossing convention makes quantiles of flat cdf
    segments deterministic (left endpoint of the segment).
    """
    q = np.asarray(q, dtype=float)
    lo, hi = np.full(q.shape, lo, dtype=float), np.full(q.shape, hi, dtype=float)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        below = np.asarray(F(mid)) < q
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return hi


def bracket_search(table: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """q -> first j with table[j] >= q (table.size if none), for q in [0, 1].

    A nondecreasing table is searched through a guide table (Chen & Asau,
    1974) of the first index at or above each k/n plus one forward step;
    ``np.searchsorted`` finishes the few rows left. Any other table takes
    the path bisection takes over its points, so table[j - 1] < q <= table[j].
    """
    n = table.size - 1
    if np.all(table[1:] >= table[:-1]):
        guide, padded = np.searchsorted(table, np.arange(n + 1) / n), np.append(table, np.inf)

        def search(q):
            j = guide[np.clip(q * n, 0, n).astype(np.intp)]
            j += padded[j] < q
            left = np.flatnonzero(padded[j] < q)
            j[left] = np.searchsorted(table, q[left])
            return j
        return search

    def descend(q):
        j = np.zeros(q.shape, dtype=np.intp)
        for step in 1 << np.arange(int(n).bit_length() - 2, -1, -1):
            j += step * (table[j + step] < q)
        return np.where(q <= table[0], 0, np.where(q > table[-1], n + 1, j + 1))
    return descend


def invert_cdf(F: Callable, q) -> np.ndarray:
    """Leftmost u in [0, 1] with F(u) >= q, vectorized over q in [0, 1].

    F must be nondecreasing with F(0) = 0, F(1) = 1. F is tabulated on
    2^12 + 1 uniform points, and that table keys a bounded cache of inverse
    tables, F^-1 at 2^13 + 1 uniform levels (``_inverse_nodes``). Each q
    takes a guess x from the polynomial through the six nodes around it
    (j = floor(q 2^13), no search), and F is evaluated at x -/+ 2^-45. A row
    whose two ends lie in steep table cells and bracket q, F(lo) < q <= F(hi),
    returns hi: 2 F evaluations per draw. Every other row (0-2% on catalog
    kernels, most where F is flat near 0 or 1) takes ``_search_route``.
    Either way the result is hi of a bracket no wider than 2^-44 with
    F(lo) < q <= F(hi) on the caller's F, so a stale or colliding cache
    entry costs time, never accuracy, and flat segments resolve to their
    left endpoint. Results stay within 1e-12 of ``bisect_cdf(F, q)``.
    """
    q = np.asarray(q, dtype=float)
    cells = 1 << TABLE_BITS
    table = np.asarray(F(np.linspace(0.0, 1.0, cells + 1)), dtype=float)
    kind = np.zeros(cells + 2, dtype=np.int8)  # by bracket index: 0 none, 1 flat cell, 2 steep
    kind[1:-1] = 1 + (np.diff(table) >= 2.0 ** -(TABLE_BITS + FLAT_BITS))
    steep = kind[1:] == 2  # by cell, with a False cell past u = 1
    diffs = _differences(_inverse_nodes(F, table, kind))
    out = _by_chunks(q.ravel(), lambda chunk: _guess(F, diffs, steep, chunk),
                     lambda rest: _search_route(F, table, kind, rest))
    return out.reshape(q.shape)


def _by_chunks(q: np.ndarray, solve: Callable, finish: Callable) -> np.ndarray:
    """``solve(chunk)`` gives (values, rows it left open) for each chunk of
    CHUNK_ROWS rows, which bounds the temporaries; ``finish`` fills those rows."""
    out, left = np.empty(q.size), [np.zeros(0, dtype=np.intp)]
    for start in range(0, q.size, CHUNK_ROWS):
        out[start:start + CHUNK_ROWS], rest = solve(q[start:start + CHUNK_ROWS])
        left.append(start + rest)
    left = np.concatenate(left)
    if left.size:
        out[left] = finish(q[left])
    return out


def _inverse_nodes(F: Callable, table: np.ndarray, kind: np.ndarray) -> np.ndarray:
    """A copy of F^-1 at the levels i / 2^13, cached under F's table. A node
    is ``_search_route``'s 2^-44 bracket narrowed by ``POLISH_STEPS``
    bisection steps. The tables share one block, so that they cost their
    64 KB each and no more; a new table takes the least recently used row.
    Builds run outside the lock (F may itself invert a cdf)."""
    global _nodes
    key = hash(table.tobytes())
    with _cache_lock:
        row = _inverses.pop(key, None)
        if row is not None:
            _inverses[key] = row
            return _nodes[row].copy()
    levels = np.arange((1 << INVERSE_BITS) + 1) / (1 << INVERSE_BITS)
    hi = _search_route(F, table, kind, levels)
    nodes = bisect_cdf(F, levels, POLISH_STEPS, np.maximum(hi - 2.0 ** -XTOL_BITS, 0.0), hi)
    with _cache_lock:
        if not _nodes.size:
            _nodes = np.empty((INVERSE_TABLES, levels.size))
        row = _inverses.pop(key, None)  # another caller may have built it meanwhile
        if row is None:
            full = len(_inverses) >= INVERSE_TABLES
            row = _inverses.pop(next(iter(_inverses))) if full else len(_inverses)
        _nodes[row] = nodes
        _inverses[key] = row
    return nodes


def _differences(nodes: np.ndarray) -> np.ndarray:
    """Row k holds the k-th forward differences of ``nodes`` at every start
    s of a GUESS_POINTS-node window, (GUESS_POINTS, nodes.size + 1 - GUESS_POINTS).
    Each entry is formed by the subtractions a per-window table would make,
    so the values do not depend on which windows a chunk uses."""
    starts = nodes.size + 1 - GUESS_POINTS
    out = np.empty((GUESS_POINTS, starts))
    level = nodes
    for k in range(GUESS_POINTS):
        out[k] = level[:starts]
        level = level[1:] - level[:-1]
    return out


def _guess(F: Callable, diffs: np.ndarray, steep: np.ndarray, q: np.ndarray):
    """(hi, rows that fail the check) for one chunk of ``invert_cdf``;
    ``diffs`` is ``_differences`` of the inverse table."""
    n, half = diffs.shape[1] + GUESS_POINTS - 2, 2.0 ** -(XTOL_BITS + 1)
    qn = q * n  # exact: n is a power of 2
    s = np.clip(qn.astype(np.intp) - (GUESS_POINTS // 2 - 1), 0, n + 1 - GUESS_POINTS)
    t = qn - s
    # Newton's forward form of the polynomial through (s + k, nodes[s + k])
    at = diffs.take(s, axis=1)
    x = at[-1]
    for k in range(GUESS_POINTS - 2, -1, -1):
        x *= (t - k) / (k + 1)
        x += at[k]
    np.clip(x, half, 1.0 - half, out=x)
    ends = np.concatenate((x - half, x + half))
    vals = np.asarray(F(ends), dtype=float)
    ok = steep[(ends * (steep.size - 1)).astype(np.intp)]
    m = q.size
    ok = ok[:m] & ok[m:] & (vals[:m] < q) & (q <= vals[m:])
    return ends[m:], np.flatnonzero(~ok)


def _search_route(F: Callable, table: np.ndarray, kind: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Leftmost u with F(u) >= q without the inverse table. Each q is
    bracketed in a cell of ``table`` (F on 2^12 + 1 uniform points),
    F(lo) < q <= F(hi) on evaluated F (q <= F(0) gives 0, q > F(1) gives 1).
    Illinois regula falsi steps (Dowell & Jarratt, BIT 11, 1971) keep that
    bracket, and a row returns hi once hi - lo <= 2^-44. Rows whose cell is
    nearly flat (F rises by less than 2^-6 of its width, so rounding in F can
    move the crossing by more than 1e-12) and rows still open after
    ILLINOIS_STEPS steps are bisected from their cell instead, which repeats
    the last steps of ``bisect_cdf(F, q)``.
    """
    cells, search = table.size - 1, bracket_search(table)

    def bisect_cells(stuck):
        cell = (search(stuck) - 1) / cells
        return bisect_cdf(F, stuck, BISECT_ITERS - TABLE_BITS, cell, cell + 1 / cells)
    return _by_chunks(q, lambda chunk: _illinois(F, table, kind, chunk, search(chunk)), bisect_cells)


def _illinois(F: Callable, table: np.ndarray, kind: np.ndarray, q: np.ndarray, j: np.ndarray):
    """(quantiles, rows left to bisect) for one chunk of ``invert_cdf``."""
    h, xtol = 1.0 / (table.size - 1), 2.0 ** -XTOL_BITS
    out = np.minimum(j * h, 1.0)
    kinds = kind[j]
    rows, flat = np.flatnonzero(kinds == 2), np.flatnonzero(kinds == 1)
    qa, ja = q[rows], j[rows]
    # row r's bracket is ends[:, r] = (lo, hi) with vals[:, r] = (F - q there)
    # = (a, b), a < 0 <= b; a step writes x and F(x) - q into one slot per row
    ends = np.stack(((ja - 1) * h, ja * h))
    vals = np.stack((table[ja - 1] - qa, table[ja] - qa))
    above = None
    for step in range(ILLINOIS_STEPS):
        if step >= COMPACT_AFTER:
            open_ = ends[1] - ends[0] > xtol
            n_open = np.count_nonzero(open_)
            if n_open == 0:
                break
            if 2 * n_open < open_.size:  # drop closed rows once they are the majority
                out[rows] = ends[1]
                rows, qa, above = rows[open_], qa[open_], above[open_]
                ends, vals = (np.ascontiguousarray(v[:, open_]) for v in (ends, vals))
        lo, hi = ends
        a, b = vals
        x = hi - b * ((hi - lo) / (b - a))
        # half the tolerance off both ends, so that an estimate next to the
        # root closes the bracket; 0/0 (a and b both 0) goes to lo
        np.fmin(np.fmax(x, lo + 0.5 * xtol, out=x), hi - 0.5 * xtol, out=x)
        g = np.asarray(F(x), dtype=float) - qa
        was_above, above = above, g >= 0
        if step:  # Illinois: halve F - q at an end kept twice in a row (halving
            # both ends here; the slot written below gets F(x) - q)
            np.ldexp(vals, -(above == was_above).view(np.int8), out=vals)
        slot = above * qa.size + np.arange(qa.size)
        ends.reshape(-1)[slot] = x
        vals.reshape(-1)[slot] = g
    out[rows] = ends[1]
    return out, np.concatenate((flat, rows[ends[1] - ends[0] > xtol]))


def sign_changes(f: Callable, breakpoints: Sequence[float] = ()) -> bool:
    """True iff f takes both signs on (0, 1), ignoring |f| <= 1e-12 dust."""
    xs = np.linspace(0.0, 1.0, 20_001)
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
