"""Calibrated cdf pairs: the per-margin building block of the mixture model.

Two cdfs F0, F1 on [0, 1] are pi-calibrated when their pi-weighted mixture
is the uniform cdf:

    (1 - pi) F0(u) + pi F1(u) = u        for all u in [0, 1].

Drawing a Bernoulli(pi) index and then sampling the selected component
therefore produces a Unif(0,1) margin, while the gap
Delta = F1 - F0 carries the dependence shape through the induced kernel
g_hat = pi * Delta.

A pair can be built from any non-degenerate kernel:

    pi = Lambda / (Lambda - lam),
    F0(u) = u - Lambda * g(u),          F1(u) = u - lam * g(u),

(both nondecreasing by the slope bounds), or supplied explicitly and
verified against the calibration identity.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateKernel, NotCalibrated, NotMonotone
from .kernels import Kernel, custom_kernel
from .numerics import bisect_cdf  # noqa: F401  (perfbench reads calibration.bisect_cdf)
from .numerics import invert_cdf

CALIBRATION_TOL = 1e-8
MONOTONE_TOL = 1e-12
REFLECTION_TOL = 1e-9
_GRID = np.linspace(0.0, 1.0, 1001)


@dataclass(frozen=True)
class CalibratedPair:
    """A pi-calibrated pair of component cdfs for one margin.

    ``induced`` is the kernel g_hat = pi * (F1 - F0) packaged with its own
    slope bounds and area; for kernel-built pairs it equals Lambda * g and
    its upper slope bound is exactly 1. ``F0_inv``/``F1_inv`` are analytic
    quantiles when known; sampling inverts F numerically otherwise.
    """

    pi: float
    F0: Callable[[np.ndarray], np.ndarray]
    F1: Callable[[np.ndarray], np.ndarray]
    induced: Kernel
    base_kernel: Kernel | None = None
    F0_inv: Callable[[np.ndarray], np.ndarray] | None = None
    F1_inv: Callable[[np.ndarray], np.ndarray] | None = None

    def g(self, u):
        """Induced kernel values pi * Delta(u)."""
        return self.induced.g(u)

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return self.induced.breakpoints

    @property
    def quantile_routes(self) -> list[str]:
        """How ``component_quantile`` inverts F0 and F1: "analytic" or "numeric"."""
        return ["numeric" if inv is None else "analytic" for inv in (self.F0_inv, self.F1_inv)]


# analytic component quantiles for catalog kernels where inversion is trivial
def _analytic_inverses(k: Kernel):
    if k.id == "fgm":
        return (lambda q: np.sqrt(q), lambda q: 1.0 - np.sqrt(1.0 - np.asarray(q, dtype=float)))
    if k.id == "hki":
        p = k.params["p"]
        return (lambda q, p=p: np.asarray(q, dtype=float) ** (1.0 / (p + 1.0)), None)
    if k.id == "checkerboard":
        return (lambda q: (1.0 + np.asarray(q, dtype=float)) / 2.0,
                lambda q: np.asarray(q, dtype=float) / 2.0)
    return None, None


def calibrate_from_kernel(k: Kernel) -> CalibratedPair:
    """Calibrated pair induced by a kernel's slope bounds.

    Raises DegenerateKernel for the zero kernel (no mixture exists; the
    margin is plain uniform and the copula factorizes) and for any kernel
    whose slope bounds are not finite and of opposite signs.
    """
    Lambda, lam = k.Lambda, k.lam
    if not (math.isfinite(Lambda) and math.isfinite(lam)) or not (lam < 0 < Lambda):
        raise DegenerateKernel(f"kernel {k.id} has unusable slope bounds ({Lambda}, {lam}); the "
                               "zero kernel induces no calibrated pair, its margin is independent")
    # the exact ratio rounded once when both bounds are rational
    pi = float(k.constant("Lambda") / (k.constant("Lambda") - k.constant("lam")))

    F0 = lambda u, k=k, L=Lambda: np.asarray(u, dtype=float) - L * np.asarray(k.g(u))  # noqa: E731
    F1 = lambda u, k=k, l=lam: np.asarray(u, dtype=float) - l * np.asarray(k.g(u))  # noqa: E731

    induced = Kernel(
        id=f"induced:{k.id}",
        params=dict(k.params),
        g=lambda u, k=k, L=Lambda: L * np.asarray(k.g(u)),
        phi=(lambda u, k=k, L=Lambda: L * np.asarray(k.phi(u))) if k.phi is not None else None,
        Lambda=1,  # sup of Lambda*phi is Lambda/Lambda
        # exact when both operands are, and rounded once
        lam=k.constant("lam") / k.constant("Lambda"),
        kappa=k.constant("Lambda") * k.constant("kappa"),
        sign_constant=k.sign_constant,
        breakpoints=k.breakpoints,
    )
    inv0, inv1 = _analytic_inverses(k)
    return CalibratedPair(pi=pi, F0=F0, F1=F1, induced=induced,
                          base_kernel=k, F0_inv=inv0, F1_inv=inv1)


def explicit_pair(F0: Callable, F1: Callable, pi: float) -> CalibratedPair:
    """Accept a user-supplied pair after verifying calibration and monotonicity.

    The calibration identity is checked on a 1001-point grid to 1e-8;
    finiteness, monotonicity and the boundary values F(0)=0, F(1)=1 are
    checked on the same grid. The induced kernel g_hat = pi * (F1 - F0) is
    tabulated on 20001 points and handed to ``custom_kernel``, which refuses
    it when it is NaN or infinite there or misses 0 at an end by more than
    ANCHOR_TOL, and gives its slope bounds (second-order differences), area
    (trapezoid over the grid points) and sign.
    """
    if not (0.0 < pi < 1.0):
        raise NotCalibrated(f"pi must lie in (0,1), got {pi}")
    v0 = np.asarray(F0(_GRID), dtype=float)
    v1 = np.asarray(F1(_GRID), dtype=float)
    for name, v in (("F0", v0), ("F1", v1)):
        if not np.all(np.isfinite(v)):
            raise NotMonotone(f"{name} is NaN or infinite on the verification grid")
        if abs(v[0]) > 1e-9 or abs(v[-1] - 1.0) > 1e-9:
            raise NotMonotone(f"{name} must run from 0 at u=0 to 1 at u=1")
        if np.any(np.diff(v) < -MONOTONE_TOL):
            raise NotMonotone(f"{name} decreases on the verification grid")
    resid = np.max(np.abs((1.0 - pi) * v0 + pi * v1 - _GRID))
    if resid > CALIBRATION_TOL:
        raise NotCalibrated(
            f"mixture deviates from the uniform cdf by {resid:.3g} (tolerance {CALIBRATION_TOL})"
        )

    def g_hat(u, F0=F0, F1=F1, pi=pi):
        return pi * (np.asarray(F1(u), dtype=float) - np.asarray(F0(u), dtype=float))

    tabulated = custom_kernel(g_hat(np.linspace(0.0, 1.0, 20_001)))
    induced = replace(tabulated, id="induced:explicit", g=g_hat)
    return CalibratedPair(pi=pi, F0=F0, F1=F1, induced=induced)


def reflection_check(pair: CalibratedPair) -> bool:
    """True iff F1(u) = 1 - F0(1-u) on the grid and pi = 1/2, to REFLECTION_TOL.

    This is the per-margin half of radial symmetry: together with a
    palindromic index law it makes the sampled vector symmetric about 1/2.
    """
    if abs(pair.pi - 0.5) > REFLECTION_TOL:
        return False
    grid = np.array(sorted({*_GRID.tolist(), *(b for b in pair.breakpoints if 0 < b < 1)}))  # no numpy.ma
    lhs = np.asarray(pair.F1(grid), dtype=float)
    rhs = 1.0 - np.asarray(pair.F0(1.0 - grid), dtype=float)
    return bool(np.max(np.abs(lhs - rhs)) <= REFLECTION_TOL)


def component_quantile(pair: CalibratedPair, which: int, q) -> np.ndarray | float:
    """Quantile of component ``which`` (0 or 1) at probability level(s) q.

    Uses the analytic inverse when the pair carries one, otherwise
    ``invert_cdf``: a guess from F's cached inverse table, accepted when F at
    its two ends -/+ 2^-45 brackets q, and the tabulated bracket refined by
    Illinois regula falsi where it is not. Either route ends on a bracket
    2^-44 wide and is leftmost like bisection (flat segments resolve to their
    left endpoint).
    """
    if which not in (0, 1):
        raise ValueError("component index must be 0 or 1")
    inv = pair.F0_inv if which == 0 else pair.F1_inv
    q_arr = np.asarray(q, dtype=float)
    if inv is not None:
        out = np.asarray(inv(q_arr), dtype=float)
    else:
        F = pair.F0 if which == 0 else pair.F1
        out = invert_cdf(F, q_arr)
    return float(out) if np.isscalar(q) or q_arr.ndim == 0 else out

