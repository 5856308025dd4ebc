"""Shared numeric helpers: quadrature, extrema refinement, tabulated slopes,
vectorized cdf inversion, the normal cdf and quantile, and the beta function.

All kernels handled here are smooth or piecewise smooth on [0, 1]; quadrature
splits are placed at declared breakpoints.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Callable, Sequence
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

QUAD_TOL = 1e-12
QUAD_NODES = 20  # Gauss-Legendre nodes per panel
QUAD_PANELS = 200  # quad01 splits no further than this many panels
SLOPE_GRID = 200_001  # uniform scan used before local refinement
SCAN_BLOCK = 1 << 13  # scan_extrema's f calls take at most this many points
REFINE_XTOL = 1e-10
GOLDEN = 0.61803399  # 2 / (1 + sqrt 5) to the digits scipy's golden search uses
GOLDEN_STEPS = 5000
BISECT_ITERS = 60  # bisect_cdf's default: 2^-60 width on [0, 1]
TABLE_BITS = 12  # invert_cdf tabulates F on 2^12 + 1 points
XTOL_BITS = 44  # and returns hi of a bracket 2^-44 wide, below the 1e-12 target
FLAT_BITS = 8  # cells where F rises by less than 2^-8 of their width are bisected
ILLINOIS_STEPS = 8  # regula falsi steps before bisection takes over
CHUNK_ROWS = 1 << 13  # rows refined at a time, which bounds the temporaries
TREE_POINTS = 1 << 10  # bisect_cdf's F calls take at most this many points (or one per row)
INVERSE_BITS = 13  # invert_cdf's guesses interpolate F^-1 at 2^13 + 1 uniform levels
GUESS_POINTS = 6  # nodes each guess interpolates
POLISH_STEPS = 6  # bisection steps that narrow a node's 2^-44 bracket to 2^-50
INVERSE_TABLES = 64  # inverse tables kept (64 KB each), keyed by F's table

# the upper half of numpy's leggauss(QUAD_NODES) (odd nodes, even weights): no numpy.polynomial
_GAUSS = np.array("""0.07652652113349734 0.22778585114164507 0.37370608871541955 0.5108670019508271
0.636053680726515 0.7463319064601508 0.8391169718222188 0.912234428251326 0.9639719272779138
0.993128599185095 0.15275338713072628 0.14917298647260424 0.1420961093183824 0.1316886384491769
0.1181945319615186 0.1019301198172407 0.08327674157670471 0.06267204833410879 0.040601429800386446
0.017614007139150893""".split(), dtype=float).reshape(2, -1)
_inverses: dict[int, int] = {}  # hash of F's table -> row of _nodes, least recently used first
_nodes = np.empty((0, 0))  # one block of INVERSE_TABLES rows, allocated at the first build
_cache_lock = threading.Lock()


def quad01(f: Callable, breakpoints: Sequence[float] = (), tol: float = QUAD_TOL) -> float:
    """Integrate a vectorized f over [0, 1] by adaptive Gauss-Legendre rules.

    Interior breakpoints are the first panel edges, so piecewise kernels
    (checkerboard, two-slope) integrate at full accuracy. A panel keeps the
    sum of the QUAD_NODES-point rules on its halves when it agrees with the
    rule on the whole panel to tol times the panel's width, and is halved
    otherwise. Past QUAD_PANELS panels, open panels keep that sum unchecked.
    """
    nodes, weights = np.concatenate((_GAUSS[:, ::-1] * [[-1.0], [1.0]], _GAUSS), axis=1)
    edges = np.array(sorted({0.0, *(p for p in breakpoints if 0.0 < p < 1.0), 1.0}))  # no numpy.ma
    lo, hi, kept = edges[:-1], edges[1:], []
    while lo.size:
        mid = 0.5 * (lo + hi)
        a, b = np.concatenate((lo, lo, mid)), np.concatenate((hi, mid, hi))
        xs = ((a + b) / 2)[:, None] + ((b - a) / 2)[:, None] * nodes
        whole, left, right = np.split((b - a) / 2 * (np.asarray(f(xs), dtype=float) @ weights), 3)
        split = np.abs(left + right - whole) > tol * (hi - lo)
        split &= len(kept) + lo.size + np.count_nonzero(split) <= QUAD_PANELS
        kept.extend((left + right)[~split])
        lo, hi = np.concatenate((lo[split], mid[split])), np.concatenate((mid[split], hi[split]))
    return math.fsum(kept)


def _refine_extremum(f: Callable, lo: float, mid: float, hi: float, maximize: bool) -> float:
    """Golden-section polish of a bracketed extremum; returns the extremal value.

    The steps are those of scipy's ``minimize_scalar(method="golden")`` with
    xtol REFINE_XTOL: the same constant, update order and stopping test, and
    at most GOLDEN_STEPS steps, so the result keeps scipy's bits. It returns
    the grid value when f(mid) does not beat both ends (flat or discontinuous
    f), which is exact for the piecewise-constant derivatives.
    """
    sign = -1.0 if maximize else 1.0
    h = lambda x: sign * float(f(x))  # noqa: E731  the polish minimizes h
    fm = h(mid)
    if not (fm < h(lo) and fm < h(hi)):
        return float(f(mid))
    x0, x3, c = lo, hi, 1.0 - GOLDEN
    x1, x2 = ((mid, mid + c * (hi - mid)) if abs(hi - mid) > abs(mid - lo)
              else (mid - c * (mid - lo), mid))
    f1, f2 = h(x1), h(x2)
    for _ in range(GOLDEN_STEPS):
        if abs(x3 - x0) <= REFINE_XTOL * (abs(x1) + abs(x2)):
            break
        if f2 < f1:
            x0, x1, x2 = x1, x2, GOLDEN * x2 + c * x3
            f1, f2 = f2, h(x2)
        else:
            x3, x2, x1 = x2, x1, GOLDEN * x1 + c * x0
            f2, f1 = f1, h(x1)
    cand, grid = float(f(min(max(float(x1 if f1 < f2 else x2), lo), hi))), float(f(mid))
    return max(cand, grid) if maximize else min(cand, grid)


def scan_extrema(f: Callable) -> tuple[float, float]:
    """(sup, inf) of f on [0, 1]: a SLOPE_GRID-point uniform scan, SCAN_BLOCK
    points per call of f, plus local golden polish. The scan keeps argmax's
    and argmin's first index, and a NaN wins both."""
    xs = np.linspace(0.0, 1.0, SLOPE_GRID)
    ext = []  # per block: (max, its index, min, its index)
    for i in range(0, SLOPE_GRID, SCAN_BLOCK):
        vals = np.asarray(f(xs[i:i + SCAN_BLOCK]), dtype=float)
        j, k = int(np.argmax(vals)), int(np.argmin(vals))
        ext.append((vals[j], i + j, vals[k], i + k))
    top, at_top, low, at_low = zip(*ext)
    j, k = int(np.argmax(top)), int(np.argmin(low))
    sup, imax, inf, imin = float(top[j]), at_top[j], float(low[k]), at_low[k]
    if 0 < imax < SLOPE_GRID - 1:
        sup = max(sup, _refine_extremum(f, xs[imax - 1], xs[imax], xs[imax + 1], True))
    if 0 < imin < SLOPE_GRID - 1:
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

    F is called once per k levels, at the 2^k - 1 midpoints they can visit (each formed as
    bisection forms it), k as large as rows (2^k - 1) <= TREE_POINTS allows.
    """
    q = np.asarray(q, dtype=float)
    lo, hi = np.full(q.shape, lo, dtype=float).ravel(), np.full(q.shape, hi, dtype=float).ravel()
    n, flat = q.size, q.ravel()
    depth = max(1, (TREE_POINTS // max(n, 1) + 1).bit_length() - 1)
    while iters > 0:
        k = min(depth, iters)
        iters, size = iters - k, n << k
        # row r's interval i spans left[i n + r] to right[i n + r], i's low bits its
        # path's first steps: each level appends the mids, so left[n:] lists them by level
        left, right = np.empty(size), np.empty(size)
        left[:n], right[-n:] = lo, hi
        for m in [n << j for j in range(k)]:
            mid = left[m:2 * m]
            np.add(left[:m], right[size - m:], out=mid)
            mid *= 0.5
            right[size - 2 * m:size - m] = mid
        below = (np.asarray(F(left[n:]), dtype=float).reshape((1 << k) - 1, n) < flat).reshape(-1)
        at = np.arange(n)
        for m in [n << j for j in range(k)]:
            np.add(at, m, out=at, where=below[at + (m - n)])
        lo, hi = left[at], right[at]
    return hi.reshape(q.shape)


def bracket_search(table: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """q -> first j with table[j] >= q (table.size if none), for q in [0, 1].

    A nondecreasing table is searched by ``np.searchsorted``. Any other
    table takes the path bisection takes over its points, so
    table[j - 1] < q <= table[j].
    """
    n = table.size - 1
    if np.all(table[1:] >= table[:-1]):
        return lambda q: np.searchsorted(table, q)

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
    nearly flat (F rises by less than 2^-8 of its width, where rounding of
    about 2^-52 in F could move the crossing by more than 2^-44) and rows
    still open after ILLINOIS_STEPS steps are bisected from their cell
    instead, which repeats the last steps of ``bisect_cdf(F, q)``.
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
        lo, hi = ends
        closed = hi - lo <= xtol
        if closed.all():  # also a chunk with no steep row
            break
        a, b = vals
        x = hi - b * ((hi - lo) / (b - a))
        # half the tolerance off both ends, so that an estimate next to the
        # root closes the bracket; 0/0 (a and b both 0) goes to lo
        np.fmin(np.fmax(x, lo + 0.5 * xtol, out=x), hi - 0.5 * xtol, out=x)
        # a closed row steps onto its lo (F < q there), so its bracket stays put
        np.copyto(x, lo, where=closed)
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


def sign_changes(f: Callable) -> bool:
    """True iff f takes both signs on (0, 1), ignoring |f| <= 1e-12 dust."""
    vals = np.asarray(f(np.linspace(0.0, 1.0, 20_001)), dtype=float)
    return bool(np.any(vals > 1e-12) and np.any(vals < -1e-12))


def ks_statistic(u: np.ndarray) -> float:
    """Sup-distance between the empirical cdf of u and the Unif(0,1) cdf."""
    u = np.sort(np.asarray(u, dtype=float))
    n = u.size
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    return float(max(np.max(grid_hi - u), np.max(u - grid_lo)))


def beta(x: float, y: float) -> float:
    """Euler's B(x, y), x, y > 0, as exp(lgamma(x) + lgamma(y) - lgamma(x + y)) in decimal
    arithmetic with digits to spare past the cancellation, so the double is rounded once."""
    with localcontext() as ctx:
        ctx.prec = 40 + 2 * len(str(int(max(x, y))))
        a, b = Decimal(x), Decimal(y)
        return float((_lgamma(a) + _lgamma(b) - _lgamma(a + b)).exp())


def _lgamma(z: Decimal) -> Decimal:
    """log Gamma(z), z > 0: Stirling's series to B_12 at z shifted past 20 (terms below 1e-19)."""
    shift = Decimal(1)
    while z < 20:
        shift, z = shift * z, z + 1
    series = sum(Decimal(c.numerator) / c.denominator / z ** (2 * k + 1) for k, c in enumerate(_STIRLING))
    return (z - Decimal("0.5")) * z.ln() - z + _LOG_SQRT_2PI + series - shift.ln()


_STIRLING = [Fraction(1, 12), Fraction(-1, 360), Fraction(1, 1260), Fraction(-1, 1680), Fraction(1, 1188),
             Fraction(-691, 360360)]  # B_2k / (2k (2k - 1))
_LOG_SQRT_2PI = Decimal("0.91893853320467274178032973640561763986139747363778341")


# Phi^-1 by Cephes' ndtri (Moshier), scipy's routine: for e^-2 < p <= 1 - e^-2 and y = p - 1/2,
# x = sqrt(2 pi) (y + y y^2 N(y^2) / D(y^2)); nearer 0 or 1, with t = sqrt(-2 log min(p, 1 - p))
# and z = 1 / t, |x| = t - log(t) / t - z N(z) / D(z), by the near form for t < 8, the far beyond.
# Each form is (N, D), coefficients from the highest power down.
_NDTRI_CENTRAL = (
    (-59.96335010141079, 98.00107541859997, -56.67628574690703, 13.931260938727968, -1.2391658386738125),
    (1.0, 1.9544885833814176, 4.676279128988815, 86.36024213908905, -225.46268785411937,
     200.26021238006066, -82.03722561683334, 15.90562251262117, -1.1833162112133))
_NDTRI_NEAR = (
    (4.0554489230596245, 31.525109459989388, 57.16281922464213, 44.08050738932008, 14.684956192885803,
     2.1866330685079025, -0.1402560791713545, -0.03504246268278482, -0.0008574567851546854),
    (1.0, 15.779988325646675, 45.39076351288792, 41.3172038254672, 15.04253856929075,
     2.504649462083094, -0.14218292285478779, -0.03808064076915783, -0.0009332594808954574))
_NDTRI_FAR = (
    (3.2377489177694603, 6.915228890689842, 3.9388102529247444, 1.3330346081580755, 0.20148538954917908,
     0.012371663481782003, 0.00030158155350823543, 2.6580697468673755e-06, 6.239745391849833e-09),
    (1.0, 6.02427039364742, 3.6798356385616087, 1.3770209948908132, 0.21623699359449663,
     0.013420400608854318, 0.00032801446468212774, 2.8924786474538068e-06, 6.790194080099813e-09))
_E_M2 = 0.1353352832366127  # e^-2

# Phi by Cody's forms (Math. Comp. 23, 1969, as in SPECFUN's ANORM): Phi = 1/2 + x N(x^2) / D(x^2)
# for |x| <= 0.66291; beyond, with y = |x|, Phi(-y) = e^(-y^2 / 2) N(y) / D(y) to sqrt(32) and
# e^(-y^2 / 2) (1 / sqrt(2 pi) - s N(s) / D(s)) / y, s = 1 / y^2, past it
_NDTR_CENTRAL = (
    (0.06568233791820745, 2.2352520354606837, 161.02823106855587, 1067.6894854603709, 18154.98125334356),
    (1.0, 47.202581904688245, 976.0985517377767, 10260.932208618979, 45507.78933502673))
_NDTR_MIDDLE = (
    (1.0765576773720192e-08, 0.39894151208813466, 8.883149794388377, 93.50665613217785,
     597.2702763948002, 2494.5375852903726, 6848.190450536283, 11602.65143764735, 9842.714838383978),
    (1.0, 22.266688044328117, 235.387901782625, 1519.3775994075547, 6485.558298266761,
     18615.571640885097, 34900.95272114598, 38912.00328609327, 19685.429676859992))
_NDTR_FAR = (
    (0.023073441764940174, 0.215898534057957, 0.12740116116024736, 0.022235277870649807,
     0.0014216191932278934, 2.9112874951168793e-05),
    (1.0, 1.284260096144911, 0.4682382124808651, 0.06598813786892856, 0.0037823963320275824,
     7.297515550839662e-05))


def _poly(x: np.ndarray, coefs: tuple) -> np.ndarray:
    """sum_k coefs[k] x^(n - k) by Horner's rule into a new array (a leading 1.0 costs no product)."""
    acc = x + coefs[1] if coefs[0] == 1.0 else coefs[0] * x + coefs[1]
    for c in coefs[2:]:
        acc *= x
        acc += c
    return acc


def _ratio(x: np.ndarray, form: tuple, scale=None) -> np.ndarray:
    """[scale *] N(x) / D(x) of a form (N, D)."""
    num = _poly(x, form[0])
    if scale is not None:
        num *= scale
    return np.divide(num, _poly(x, form[1]), out=num)


def ndtri(p):
    """Standard normal quantile Phi^-1(p) elementwise by Cephes' ndtri, with its arithmetic:
    -inf at 0, inf at 1, NaN outside [0, 1]."""
    p = np.asarray(p, dtype=float)
    shape, p = p.shape, p.reshape(-1)
    with np.errstate(all="ignore"):
        y = p - 0.5
        y2 = y * y
        x = _ratio(y2, _NDTRI_CENTRAL, y2)
        x *= y
        x += y
        x *= 2.50662827463100050242  # sqrt(2 pi)
        tail = ((p <= _E_M2) | (p > 1.0 - _E_M2)).nonzero()[0]
        if tail.size:
            pt = p[tail]
            t = np.log(np.minimum(pt, 1.0 - pt))
            t *= -2.0
            t = np.sqrt(t, out=t)
            z = 1.0 / t
            zr = _ratio(z, _NDTRI_NEAR, z)
            far = (t >= 8.0).nonzero()[0]
            if far.size:
                zr[far] = _ratio(z[far], _NDTRI_FAR, z[far])
            xt = t - np.log(t) / t
            xt -= zr
            xt[t == np.inf] = np.inf
            x[tail] = np.copysign(xt, pt - 0.5)
    return x.reshape(shape)[()]


def ndtr(x):
    """Standard normal cdf Phi(x) elementwise by Cody's forms: the middle one on every point
    (1 - Phi(-x) above 0), the far and central ones patched in."""
    x = np.asarray(x, dtype=float)
    shape, x = x.shape, x.reshape(-1)
    with np.errstate(all="ignore"):
        y = np.abs(x)
        np.minimum(y, 64.0, out=y)  # Phi(-64) is 0 in doubles
        out = _ratio(y, _NDTR_MIDDLE)
        far = (x < -(32.0 ** 0.5)).nonzero()[0]
        if far.size:
            yf = y[far]
            s = 1.0 / (yf * yf)
            out[far] = (0.3989422804014327 - s * _ratio(s, _NDTR_FAR)) / yf
        out = _times_gauss(y, out)
        step = np.copysign(0.5, x)
        step += 0.5  # 1 above 0, else 0: 1 - out or out, with no branch on the sign
        out = np.subtract(step, np.copysign(out, x, out=out), out=out)
        at = (y <= 0.66291).nonzero()[0]
        if at.size:
            xc = x[at]
            out[at] = 0.5 + _ratio(xc * xc, _NDTR_CENTRAL, xc)
    return out.reshape(shape)[()]


def _times_gauss(y: np.ndarray, r: np.ndarray) -> np.ndarray:
    """r exp(-y^2 / 2) in place as r exp(-xs^2 / 2) exp(-(y - xs)(y + xs) / 2), xs = y
    truncated to sixteenths: the first exponent is exact, the second small (as in ANORM)."""
    xs = np.trunc(y * 16.0)
    xs *= 0.0625
    r *= np.exp(xs * xs * -0.5)
    e = y - xs
    e *= np.add(y, xs, out=xs)
    e *= -0.5
    r *= np.exp(e, out=e)
    return r
