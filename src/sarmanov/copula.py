"""Copula assembly, evaluation, admissible ranges and the validity oracle.

The d-variate cdf is a mixture of independent components indexed by the
latent Bernoulli vector I: C(u) = E prod_m F_{m,[I_m]}(u_m), where
F_{m,[I]}(u) = u + ghat_m(u) Z_m, ghat_m is the induced kernel of margin m
and Z_m = (I_m - pi_m)/pi_m. ``SarmanovCopula.cdf`` hands it to the law's
``BernoulliSpec.mix`` hook with (a_m, b_m) = (u_m, ghat_m(u_m)), and
``density`` with (1, phihat_m(u_m)). Every cdf term is >= 0 for an
admissible law, so the lower tail is accurate in relative terms.
Expanded over subsets it is the theta sum; for d = 2 and kernel-built margins
it is the classical u1*u2 + a*g1(u1)*g2(u2) with a = Lambda1*Lambda2*theta.

``d_increasing_oracle`` is the brute-force validity check this construction
makes unnecessary: it evaluates every rectangle increment on a grid via
inclusion-exclusion and is kept as an independent certification route.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .bernoulli import BernoulliSpec, BivariateThetaSpec
from .calibration import CalibratedPair, calibrate_from_kernel
from .errors import (
    DegenerateKernel,
    DimensionTooLarge,
    NoDerivative,
    ParamOutOfRange,
    UnboundedAtOrigin,
)
from .kernels import CATALOG_IDS, Kernel, catalog_lookup, custom_kernel

ORACLE_TOL = -1e-9  # rounding allowance for 2^d-term alternating sums
TRANSFORMS_KEPT = 64  # generic transforms of catalog kernels kept, by (id, params, r)
ORACLE_POINTS = 1 << 22  # lattice points the oracle evaluates at most (d = 5 at grid 20)
MIX_BLOCK = 3072  # points per bern.mix call: its arrays scale with this, not with the batch


def admissible_a_interval(k1: Kernel, k2: Kernel) -> tuple[float, float]:
    """Admissible range of the bivariate scalar a for two kernels:

    [-min(Lambda1*Lambda2, lam1*lam2), min(Lambda1*|lam2|, Lambda2*|lam1|)].
    """
    for k in (k1, k2):
        if not (math.isfinite(k.Lambda) and math.isfinite(k.lam)):  # the zero kernel's are not
            raise DegenerateKernel(f"kernel {k.id} has no admissible interval")
    lo = -min(k1.Lambda * k2.Lambda, k1.lam * k2.lam)
    hi = min(k1.Lambda * abs(k2.lam), k2.Lambda * abs(k1.lam))
    return lo, hi


@dataclass(frozen=True)
class SarmanovCopula:
    """Margins (calibrated pairs) plus a latent Bernoulli law.

    Construction does not require admissibility -- the cdf of an
    inadmissible parameter choice is still a well-defined function that the
    oracle can flunk -- but sampling does: ``sample_indices`` is the one
    gate, and it refuses a law whose pmf has negative entries. Powered
    copulas follow the same rule through their base copula.
    """

    margins: tuple[CalibratedPair, ...]
    bern: BernoulliSpec

    def __post_init__(self):
        if len(self.margins) != self.bern.d:
            raise ValueError("number of margins must match the Bernoulli dimension")
        pair_pi = np.array([p.pi for p in self.margins])
        if np.max(np.abs(pair_pi - self.bern.pi)) > 1e-9:
            raise ValueError(f"margin pis {pair_pi.tolist()} disagree with "
                             f"Bernoulli margins {self.bern.pi.tolist()}")

    @property
    def d(self) -> int:
        return len(self.margins)

    @property
    def theta(self) -> float:
        """Bivariate normalized covariance parameter (d = 2 only)."""
        if self.d != 2:
            raise ValueError("theta is the bivariate parameter; use mixed moments for d > 2")
        return self.bern.mixed_moment((1, 2))

    @property
    def a(self) -> float:
        """Classical bivariate scalar a = Lambda1*Lambda2*theta.

        Requires kernel-built margins (otherwise Lambda is not defined).
        """
        if self.d != 2:
            raise ValueError("a is the bivariate parameter")
        ks = [p.base_kernel for p in self.margins]
        if any(k is None for k in ks):
            raise ValueError("a requires kernel-built margins; use theta instead")
        return ks[0].Lambda * ks[1].Lambda * self.theta

    # -- evaluation ---------------------------------------------------------

    def cdf(self, u) -> float | np.ndarray:
        """C(u) for one point (shape (d,)) or a batch (shape (N, d))."""
        return self._mix_at(u, lambda p, x: (x, np.asarray(p.g(x), dtype=float)))

    def density(self, u) -> float | np.ndarray:
        """c(u) = E prod_m (1 + phihat_m(u_m) Z_m), points as for ``cdf``."""
        if any(p.induced.phi is None for p in self.margins):
            raise NoDerivative("margins do not carry derivatives")
        return self._mix_at(u, lambda p, x: (np.ones_like(x), np.asarray(p.induced.phi(x), dtype=float)))

    def _mix_at(self, u, factors) -> float | np.ndarray:
        """``bern.mix`` with (a_m, b_m) = factors(margin m, column m of the
        points), MIX_BLOCK points at a time."""
        pts, single = np.atleast_2d(np.asarray(u, dtype=float)), np.ndim(u) == 1
        if pts.shape[1] != self.d:
            raise ValueError(f"points must have {self.d} columns")
        out = np.empty(len(pts))
        for i in range(0, len(pts), MIX_BLOCK):
            cols = pts[i:i + MIX_BLOCK].T
            out[i:i + MIX_BLOCK] = self.bern.mix(*zip(*(factors(p, x) for p, x in zip(self.margins, cols))))
        return float(out[0]) if single else out

    def mixture_cdf_oracle(self, u) -> float:
        """Independent evaluation route: E[prod_m F_{m,[I_m]}(u_m)] by
        explicit enumeration of all 2^d index states."""
        u = np.asarray(u, dtype=float)
        pmf = self.bern.pmf_table()
        total = 0.0
        for s, w in enumerate(pmf):
            if w == 0.0:
                continue
            prod = w
            for m in range(self.d):
                F = self.margins[m].F1 if (s >> m) & 1 else self.margins[m].F0
                prod *= float(F(u[m]))
            total += prod
        return total


def make_bivariate(k1: Kernel, k2: Kernel, a: float | None = None,
                   theta: float | None = None) -> SarmanovCopula:
    """Convenience constructor from two kernels and either a or theta."""
    if (a is None) == (theta is None):
        raise ValueError("give exactly one of a, theta")
    if theta is None:
        theta = a / (k1.Lambda * k2.Lambda)
    p1, p2 = calibrate_from_kernel(k1), calibrate_from_kernel(k2)
    bern = BivariateThetaSpec(p1.pi, p2.pi, theta)
    return SarmanovCopula((p1, p2), bern)


# --- brute-force validity oracle --------------------------------------------


@dataclass(frozen=True)
class OracleReport:
    """Outcome of the rectangle-increment scan plus boundary checks."""

    d: int
    grid_n: int
    min_increment: float
    min_cell: tuple[int, ...]
    groundedness_err: float
    margin_err: float
    worst_cells: tuple[tuple[tuple[int, ...], float], ...]

    @property
    def passed(self) -> bool:
        return (
            self.min_increment >= ORACLE_TOL
            and self.groundedness_err <= 1e-12
            and self.margin_err <= 1e-12
        )


def d_increasing_oracle(
    cdf: Callable[[np.ndarray], np.ndarray],
    d: int,
    grid_n: int,
) -> OracleReport:
    """Check every rectangle increment of a candidate cdf on a uniform grid.

    ``cdf`` maps an (N, d) array to N values. Increments are the full
    2^d-corner inclusion-exclusion sums, obtained by differencing the
    lattice values once along each axis. Also checks groundedness and
    uniform margins. Violations are reported, never raised; ``worst_cells``
    holds the 100 lowest increments. The (grid_n + 1)^d lattice is refused
    (DimensionTooLarge) beyond ORACLE_POINTS before any array exists.
    """
    if grid_n < 1:
        raise ValueError(f"the oracle needs grid_n >= 1, got {grid_n}")
    if (grid_n + 1) ** d > ORACLE_POINTS:
        raise DimensionTooLarge(
            f"the oracle's lattice has (grid_n + 1)^d = {(grid_n + 1) ** d} points, "
            f"above {ORACLE_POINTS}; use a smaller grid or d")
    grid = np.linspace(0.0, 1.0, grid_n + 1)
    pts = np.empty(((grid_n + 1) ** d, d))
    lattice = pts.reshape([grid_n + 1] * d + [d])  # a view: point (i_1, ..., i_d) in C order
    for m in range(d):
        lattice[..., m] = grid.reshape([-1] + [1] * (d - 1 - m))
    vals = np.asarray(cdf(pts), dtype=float).reshape([grid_n + 1] * d)

    inc = vals
    for axis in range(d):
        inc = np.diff(inc, axis=axis)

    flat = inc.reshape(-1)
    k = min(100, flat.size) - 1  # the 100 lowest, ties in cell order: a stable sort of
    low = np.flatnonzero(~(flat > np.partition(flat, k)[k]))  # the cells <= the 100th, or NaN
    order = low[np.argsort(flat[low], kind="stable")]
    min_idx = int(order[0])
    min_cell = tuple(int(i) for i in np.unravel_index(min_idx, inc.shape))
    worst = tuple(
        (tuple(int(i) for i in np.unravel_index(int(j), inc.shape)), float(flat[j]))
        for j in order[:100]
    )

    grounded = 0.0
    for axis in range(d):
        grounded = max(grounded, float(np.max(np.abs(np.take(vals, 0, axis=axis)))))
    margin = 0.0
    for axis in range(d):
        idx = [np.array([grid_n])] * d
        idx[axis] = np.arange(grid_n + 1)
        edge = vals[np.ix_(*idx)].reshape(-1)
        margin = max(margin, float(np.max(np.abs(edge - grid))))

    return OracleReport(
        d=d, grid_n=grid_n,
        min_increment=float(flat[min_idx]), min_cell=min_cell,
        groundedness_err=grounded, margin_err=margin, worst_cells=worst,
    )


# --- multiplicative (Farlie) form and powered families ----------------------


def farlie_to_sarmanov(
    h: Callable[[np.ndarray], np.ndarray],
    alpha: float,
    h_prime: Callable | None = None,
) -> tuple[Kernel, float]:
    """Convert a multiplicative kernel C = u1*u2*(1 + alpha*h1*h2) to the
    additive form: kernel g(u) = u*h(u), scalar a = alpha.

    ``h`` must have a finite limit at 0 (UnboundedAtOrigin otherwise);
    slope bounds of g are derived analytically when ``h_prime`` is given,
    numerically otherwise.
    """
    probes = np.array([1e-3, 1e-5, 1e-7, 1e-9])
    vals = np.abs(np.asarray(h(probes), dtype=float))
    if np.any(~np.isfinite(vals)) or (vals[-1] > 10 * max(vals[0], 1.0) and vals[-1] > 1e3):
        raise UnboundedAtOrigin("h(u) has no finite limit at the origin")

    def g(u, h=h):
        u = np.asarray(u, dtype=float)
        return u * np.asarray(h(u), dtype=float)

    phi = None
    if h_prime is not None:
        phi = lambda u, h=h, hp=h_prime: (  # noqa: E731
            np.asarray(h(u), dtype=float)
            + np.asarray(u, dtype=float) * np.asarray(hp(u), dtype=float)
        )
    kernel = custom_kernel(g, phi=phi)
    return kernel, float(alpha)


def transform_kernel(k: Kernel, r: int) -> Kernel:
    """Kernel of the auxiliary copula behind an r-th power: x -> x*h(x^r)
    where h(u) = g(u)/u.

    The classical families are closed under this map: hki(p) -> hki(p*r)
    and bkb(p, q) -> bkb(p*r, q), with fgm = hki(1) and hkii(q) = bkb(1, q);
    other kernels go through the generic numeric route. A catalog kernel's
    generic transform is a function of (id, params, r), so it is built once
    and kept (``_catalog_transform``); custom and explicit kernels are
    transformed on every call.
    """
    if r == 1:
        return k
    if k.id in ("fgm", "hki"):
        return catalog_lookup("hki", {"p": k.params.get("p", 1) * r})
    if k.id in ("hkii", "bkb"):
        return catalog_lookup("bkb", {"p": k.params.get("p", 1) * r, "q": k.params["q"]})
    if k.id in CATALOG_IDS:
        t = _catalog_transform(k.id, tuple(sorted(k.params.items())), r)
        return replace(t, params=dict(k.params))  # the caller's params, not the kept dict
    return _transform_generic(k, r)


@functools.lru_cache(maxsize=TRANSFORMS_KEPT)
def _catalog_transform(kernel_id: str, params: tuple, r: int) -> Kernel:
    return _transform_generic(catalog_lookup(kernel_id, dict(params)), r)


def _transform_generic(k: Kernel, r: int) -> Kernel:
    h = normalized_kernel(k)

    def g_t(x, h=h, r=r):
        x = np.asarray(x, dtype=float)
        return x * np.asarray(h(x ** r), dtype=float)

    phi_t = None
    if k.phi is not None:
        # d/dx [x h(x^r)] = (1-r) h(y) + r phi(y) with y = x^r
        def phi_t(x, h=h, k=k, r=r):
            y = np.asarray(x, dtype=float) ** r
            return (1.0 - r) * np.asarray(h(y), dtype=float) + r * np.asarray(k.phi(y), dtype=float)

    return replace(custom_kernel(g_t, phi=phi_t), id=f"{k.id}^<{r}>", params=dict(k.params))


def normalized_kernel(k: Kernel) -> Callable:
    """h(u) = g(u)/u with the continuous extension h(0) = phi(0)."""
    if k.phi is None:
        raise NoDerivative("normalized form needs the kernel derivative at 0")
    h0 = float(k.phi(0.0))

    def h(u, k=k, h0=h0):
        u = np.asarray(u, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where(u > 0.0, np.asarray(k.g(u), dtype=float) / np.where(u > 0, u, 1.0), h0)
        return vals

    return h


@dataclass(frozen=True)
class PoweredCopula:
    """C_{a,r}(u1,u2) = u1*u2*(1 + a*h1(u1)h2(u2))^r for integer r >= 1.

    ``base`` is the auxiliary copula with transformed kernels x*h(x^r);
    sampling r of its draws and taking componentwise maxima to the r-th
    power realizes C_{a,r} exactly, so ``SarmanovCopula``'s rule applies to
    ``base``: any ``a`` builds, and the base law's pmf is the verdict.
    ``sufficient_interval``, the range of ``a`` the transformed kernels
    admit, is kept for reporting; C_{a,r} itself may be a copula on a wider
    range.
    """

    h1: Callable
    h2: Callable
    a: float
    r: int
    base: SarmanovCopula
    sufficient_interval: tuple[float, float]

    def cdf(self, u1, u2) -> float | np.ndarray:
        u1 = np.asarray(u1, dtype=float)
        u2 = np.asarray(u2, dtype=float)
        val = u1 * u2 * (1.0 + self.a * np.asarray(self.h1(u1)) * np.asarray(self.h2(u2))) ** self.r
        return float(val) if val.ndim == 0 else val

    def cdf_points(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        return self.cdf(pts[:, 0], pts[:, 1])


def build_powered(k1: Kernel, k2: Kernel, a: float, r: int) -> PoweredCopula:
    """Powered copula from two base kernels g_m = u*h_m(u) and any scalar a."""
    if not (isinstance(r, (int, np.integer)) and r >= 1):
        raise ParamOutOfRange(f"power r must be an integer >= 1, got {r!r}")
    r = int(r)
    t1, t2 = transform_kernel(k1, r), transform_kernel(k2, r)
    interval = admissible_a_interval(t1, t2)
    base = make_bivariate(t1, t2, a=a)
    return PoweredCopula(
        h1=normalized_kernel(k1), h2=normalized_kernel(k2),
        a=float(a), r=r, base=base, sufficient_interval=interval,
    )
