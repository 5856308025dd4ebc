"""Kernel catalog and custom-kernel construction.

A kernel is an absolutely continuous function g on [0, 1] with
g(0) = g(1) = 0 and an essentially bounded a.e. derivative phi = g'.
Because the boundary values pin the integral of phi to zero, phi takes both
signs (unless g is identically zero), so the reciprocal slope bounds

    Lambda = 1 / ess sup phi  > 0,        lam = 1 / ess inf phi  < 0,

are well defined. They control everything downstream: the Bernoulli success
probability pi = Lambda / (Lambda - lam) of the mixture construction, the
admissible dependence range, and (through the signed area
kappa = integral_0^1 g) the attainable rank correlations.

The catalog ships twenty classical and constructed kernels. Each row
writes each constant once: given as a `fractions.Fraction` or an int it is
rational, kept exactly and rounded once to its float, so closed-form rank
correlations such as 1/3 or 3/4 round once, not per factor.
"""

from __future__ import annotations

import inspect
import math
import numbers
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    DegenerateKernel,
    NotAnchored,
    ParamOutOfRange,
    UnboundedDerivative,
    UnknownKernel,
)
from .numerics import SLOPE_GRID, beta, ndtr, ndtri, quad01, scan_extrema, sign_changes, tabulated_slope

ANCHOR_TOL = 1e-9
DEGENERATE_TOL = 1e-12
EXACT_MAX = 1 << 10  # integers beyond it (powers, beta arguments) are taken in floats

_E = math.e
_PI = math.pi


@dataclass(frozen=True)
class Kernel:
    """A kernel g with derivative phi, slope bounds and signed area.

    ``Lambda`` and ``lam`` are the reciprocals of the essential sup/inf of
    phi; ``kappa`` is the integral of g over [0, 1]. ``sign_constant`` is
    True iff g does not change sign on (0, 1). A constant given as a
    ``Fraction`` or an int is rational: it is kept in ``*_exact`` and the
    field holds its float, rounded once. A constant given as a float is
    inexact and its ``*_exact`` is None. Instances are immutable and all
    evaluations are pure.
    """

    id: str
    params: Mapping[str, float]
    g: Callable[[np.ndarray], np.ndarray]
    phi: Callable[[np.ndarray], np.ndarray] | None
    Lambda: float
    lam: float
    kappa: float
    sign_constant: bool
    breakpoints: tuple[float, ...] = ()
    Lambda_exact: Fraction | None = field(default=None, init=False)
    lam_exact: Fraction | None = field(default=None, init=False)
    kappa_exact: Fraction | None = field(default=None, init=False)

    def __post_init__(self):
        for name in ("Lambda", "lam", "kappa"):
            value = getattr(self, name)
            if isinstance(value, numbers.Rational):
                object.__setattr__(self, f"{name}_exact", Fraction(value))
            object.__setattr__(self, name, float(value))

    def constant(self, name: str):
        """Constant ``name`` (``"Lambda"``, ``"lam"`` or ``"kappa"``): its
        exact value when it is rational, its float otherwise."""
        exact = getattr(self, f"{name}_exact")
        return getattr(self, name) if exact is None else exact

    @property
    def degenerate(self) -> bool:
        """True for the zero kernel, whose slope bounds are infinite."""
        return math.isinf(self.Lambda)

    def slope_sup(self) -> float:
        """Sup-norm of phi: max(1/Lambda, -1/lam), 0 for the zero kernel."""
        return max(1.0 / self.Lambda, -1.0 / self.lam)

    def describe(self) -> str:
        ps = ",".join(f"{k}={v:g}" for k, v in self.params.items())
        return f"{self.id}({ps})" if ps else self.id


def sin_asym_slope_root() -> float:
    """Root y of y*tan(y) = 2 on (0, pi/2), where the asymmetric sine kernel
    descends steepest: Brent's double on [1e-12, pi/2 - 1e-9] at xtol 1e-14."""
    return 1.0768739863118038  # 0x1.13ae03791f524p+0


# ---------------------------------------------------------------------------
# catalog rows
# ---------------------------------------------------------------------------
# Each row returns the Kernel for validated params. Derivatives are
# analytic. Constants are written once over Fraction parameters (every binary
# float is an exact rational): a rational result stays a Fraction, and an
# irrational step (a fractional power, a beta function) turns it into a float.


def _require(cond: bool, msg: str):
    if not cond:
        raise ParamOutOfRange(msg)


def _pow(base: Fraction, e: Fraction):
    """base ** e: exact for an integral exponent up to EXACT_MAX, whose exact
    value has a bounded number of digits, in floats otherwise."""
    if e.denominator == 1 and abs(e) <= EXACT_MAX:
        return base ** e
    return float(base) ** float(e)


def _beta(x: Fraction, y: Fraction):
    """B(x, y) = (x-1)! (y-1)! / (x+y-1)!, exact for integers x, y in
    [1, EXACT_MAX]; ``numerics.beta``'s float otherwise."""
    if all(v.denominator == 1 and 1 <= v <= EXACT_MAX for v in (x, y)):
        m, n = int(x), int(y)
        return Fraction(math.factorial(m - 1) * math.factorial(n - 1), math.factorial(m + n - 1))
    return beta(float(x), float(y))


def _row_fgm() -> Kernel:
    return Kernel(
        "fgm", {},
        g=lambda u: u * (1.0 - u),
        phi=lambda u: 1.0 - 2.0 * u,
        Lambda=1, lam=-1, kappa=Fraction(1, 6), sign_constant=True,
    )


def _row_hki(p) -> Kernel:
    _require(p > 0, "hki requires p > 0")
    fp = Fraction(p)
    return Kernel(
        "hki", {"p": p},
        g=lambda u, p=p: u * (1.0 - u ** p),
        phi=lambda u, p=p: 1.0 - (p + 1.0) * u ** p,
        Lambda=1, lam=-1 / fp, kappa=fp / (2 * (fp + 2)), sign_constant=True,
    )


def _row_hkii(q) -> Kernel:
    _require(q > 1, "hkii requires q > 1 (phi unbounded otherwise)")
    fq = Fraction(q)
    return Kernel(
        "hkii", {"q": q},
        g=lambda u, q=q: u * (1.0 - u) ** q,
        phi=lambda u, q=q: (1.0 - u) ** (q - 1.0) * (1.0 - (q + 1.0) * u),
        Lambda=1, lam=-_pow((fq + 1) / (fq - 1), fq - 1), kappa=1 / ((fq + 1) * (fq + 2)),
        sign_constant=True,
    )


def _row_bkb(p, q) -> Kernel:
    _require(p > 0, "bkb requires p > 0")
    _require(q > 1, "bkb requires q > 1 (phi unbounded otherwise)")
    fp, fq = Fraction(p), Fraction(q)
    return Kernel(
        "bkb", {"p": p, "q": q},
        g=lambda u, p=p, q=q: u * (1.0 - u ** p) ** q,
        phi=lambda u, p=p, q=q: (1.0 - u ** p) ** (q - 1.0) * (1.0 - (1.0 + p * q) * u ** p),
        Lambda=1, lam=-_pow(1 + fp * fq, fq - 1) / (_pow(fp, fq) * _pow(fq - 1, fq - 1)),
        kappa=_beta(2 / fp, fq + 1) / fp, sign_constant=True,
    )


def _row_sin() -> Kernel:
    return Kernel(
        "sin", {},
        g=lambda u: np.sin(_PI * u) / _PI,
        phi=lambda u: np.cos(_PI * u),
        Lambda=1, lam=-1, kappa=2.0 / _PI ** 2, sign_constant=True,
    )


def _row_sin_squared() -> Kernel:
    return Kernel(
        "sin_squared", {},
        g=lambda u: np.sin(_PI * u) ** 2 / _PI,
        phi=lambda u: np.sin(2.0 * _PI * u),
        Lambda=1, lam=-1, kappa=1.0 / (2.0 * _PI), sign_constant=True,
    )


def _row_checkerboard() -> Kernel:
    return Kernel(
        "checkerboard", {},
        g=lambda u: np.minimum(u, 1.0 - u),
        phi=lambda u: np.where(np.asarray(u) <= 0.5, 1.0, -1.0),
        Lambda=1, lam=-1, kappa=Fraction(1, 4), sign_constant=True,
        breakpoints=(0.5,),
    )


def _row_lai_xie(a, b) -> Kernel:
    _require(a > 1 and b > 1, "lai_xie requires a > 1 and b > 1")
    s = math.sqrt(a * b / (a + b - 1.0))
    common = (a + b) ** (a + b - 2.0) * math.sqrt(a + b - 1.0) / math.sqrt(a * b)
    return Kernel(
        "lai_xie", {"a": a, "b": b},
        g=lambda u, a=a, b=b: u ** b * (1.0 - u) ** a,
        phi=lambda u, a=a, b=b: u ** (b - 1.0) * (1.0 - u) ** (a - 1.0) * (b - (a + b) * u),
        Lambda=common / ((b - s) ** (b - 1.0) * (a + s) ** (a - 1.0)),
        lam=-common / ((b + s) ** (b - 1.0) * (a - s) ** (a - 1.0)),
        kappa=_beta(Fraction(b) + 1, Fraction(a) + 1), sign_constant=True,
    )


def _row_lee_quadratic() -> Kernel:
    return Kernel(
        "lee_quadratic", {},
        g=lambda u: u * (u - 1.0) / 2.0,
        phi=lambda u: u - 0.5,
        Lambda=2, lam=-2, kappa=Fraction(-1, 12), sign_constant=True,
    )


def _row_lee_power(k) -> Kernel:
    _require(float(k).is_integer() and k >= 1, "lee_power requires integer k >= 1")
    k = int(k)
    return Kernel(
        "lee_power", {"k": k},
        g=lambda u, k=k: (u ** (k + 1) - u) / (k + 1.0),
        phi=lambda u, k=k: ((k + 1.0) * u ** k - 1.0) / (k + 1.0),
        Lambda=Fraction(k + 1, k), lam=-(k + 1), kappa=Fraction(-k, 2 * (k + 1) * (k + 2)),
        sign_constant=True,
    )


def _row_lee_exponential() -> Kernel:
    slope = 1.0 - 1.0 / _E
    # expm1 keeps g's digits near 0, where the powered transform evaluates g(y)/y
    return Kernel(
        "lee_exponential", {},
        g=lambda u: -np.expm1(-np.asarray(u, dtype=float)) - slope * np.asarray(u, dtype=float),
        phi=lambda u: np.exp(-np.asarray(u, dtype=float)) - slope,
        Lambda=_E, lam=-_E / (_E - 2.0), kappa=(3.0 - _E) / (2.0 * _E), sign_constant=True,
    )


def _row_norm_lee() -> Kernel:
    c = math.exp(2.0 / 3.0) / math.sqrt(3.0)
    s3 = math.sqrt(3.0)

    def g(u, c=c, s3=s3):
        u = np.asarray(u, dtype=float)
        z = ndtri(u)  # +-inf at the endpoints; arithmetic below is inf-safe
        return c * (ndtr(s3 * z + 2.0 / s3) - u)

    def phi(u, c=c, s3=s3):
        u = np.asarray(u, dtype=float)
        z = ndtri(u)
        return c * (s3 * math.exp(1.0 / 3.0) * np.exp(-((z + 1.0) ** 2)) - 1.0)

    return Kernel(
        "norm_lee", {},
        g=g, phi=phi,
        Lambda=1.0 / (_E - c), lam=-s3 * math.exp(-2.0 / 3.0),
        kappa=c * 0.5 * math.erf(math.sqrt(1.0 / 6.0)),  # c (Phi(1 / sqrt 3) - 1/2)
        sign_constant=False,  # dips below zero near the origin
    )


def _row_exp_bridge() -> Kernel:
    den = _E ** 2 - 1.0
    return Kernel(
        "exp_bridge", {},
        g=lambda u: u * (np.exp(2.0 * (1.0 - np.asarray(u, dtype=float))) - 1.0) / den,
        phi=lambda u: ((1.0 - 2.0 * np.asarray(u, dtype=float))
                       * np.exp(2.0 * (1.0 - np.asarray(u, dtype=float))) - 1.0) / den,
        Lambda=1, lam=-den / 2.0, kappa=(_E ** 2 - 5.0) / (4.0 * den), sign_constant=True,
    )


def _row_fgm_damped() -> Kernel:
    return Kernel(
        "fgm_damped", {},
        g=lambda u: u * (1.0 - u) / (1.0 + u),
        phi=lambda u: (1.0 - 2.0 * u - u ** 2) / (1.0 + u) ** 2,
        Lambda=1, lam=-2, kappa=1.5 - math.log(4.0), sign_constant=True,
    )


def _row_legendre2() -> Kernel:
    return Kernel(
        "legendre2", {},
        g=lambda u: u * (1.0 - u) * (1.0 - 2.0 * u),
        phi=lambda u: 1.0 - 6.0 * u + 6.0 * u ** 2,
        Lambda=1, lam=-2, kappa=0, sign_constant=False,
    )


def _row_sin_asym() -> Kernel:
    y = sin_asym_slope_root()
    return Kernel(
        "sin_asym", {},
        g=lambda u: (1.0 - u) * np.sin(_PI * u) / _PI,
        phi=lambda u: -np.sin(_PI * u) / _PI + (1.0 - u) * np.cos(_PI * u),
        Lambda=1, lam=-_PI * math.sqrt(y * y + 4.0) / (y * y + 2.0), kappa=1.0 / _PI ** 2,
        sign_constant=True,
    )


def _row_fgm_damped_sq() -> Kernel:
    return Kernel(
        "fgm_damped_sq", {},
        g=lambda u: u * (1.0 - u) / (1.0 + u ** 2),
        phi=lambda u: (1.0 - 2.0 * u - u ** 2) / (1.0 + u ** 2) ** 2,
        Lambda=1, lam=-2, kappa=-1.0 + math.log(2.0) / 2.0 + _PI / 4.0, sign_constant=True,
    )


def _row_hkii_damped() -> Kernel:
    return Kernel(
        "hkii_damped", {},
        g=lambda u: u * (1.0 - u) ** 2 / (1.0 + u),
        phi=lambda u: (1.0 - u) * (1.0 - 3.0 * u - 2.0 * u ** 2) / (1.0 + u) ** 2,
        Lambda=1, lam=1.0 / (3.0 * 4.0 ** (1.0 / 3.0) - 5.0),
        kappa=17.0 / 6.0 - math.log(16.0), sign_constant=True,
    )


def _row_fgm_exp() -> Kernel:
    return Kernel(
        "fgm_exp", {},
        g=lambda u: u * (1.0 - u) * np.exp(-np.asarray(u, dtype=float)),
        phi=lambda u: (1.0 - 3.0 * u + u ** 2) * np.exp(-np.asarray(u, dtype=float)),
        Lambda=1, lam=-_E, kappa=-1.0 + 3.0 / _E, sign_constant=True,
    )


def _row_two_slope() -> Kernel:
    return Kernel(
        "two_slope", {},
        g=lambda u: np.where(np.asarray(u) <= 0.25, 3.0 * np.asarray(u, dtype=float),
                             1.0 - np.asarray(u, dtype=float)),
        phi=lambda u: np.where(np.asarray(u) <= 0.25, 3.0, -1.0),
        Lambda=Fraction(1, 3), lam=-1, kappa=Fraction(3, 8), sign_constant=True,
        breakpoints=(0.25,),
    )


# every _row_<id> above, in order, with the parameter names its signature lists
_CATALOG = {name.removeprefix("_row_"): (row, tuple(inspect.signature(row).parameters))
            for name, row in list(globals().items()) if name.startswith("_row_")}
CATALOG_IDS: tuple[str, ...] = tuple(_CATALOG)

#: parameters used when a catalog listing needs one concrete kernel per id
DEFAULT_PARAMS: dict[str, dict[str, float]] = {
    "hki": {"p": 2}, "hkii": {"q": 2}, "bkb": {"p": 2, "q": 2},
    "lai_xie": {"a": 2, "b": 2}, "lee_power": {"k": 2},
}


def catalog_lookup(name: str, params: Mapping[str, float] | None = None) -> Kernel:
    """Build a catalog kernel with analytic g, phi, Lambda, lam and kappa.

    Raises UnknownKernel for an unlisted id and ParamOutOfRange when the
    parameters fall outside the row's validity range (or are unexpected), or
    when a constant they give lies beyond the float range.
    """
    if name not in _CATALOG:
        raise UnknownKernel(f"no catalog kernel named {name!r}; known: {sorted(_CATALOG)}")
    row, expected = _CATALOG[name]
    params = dict(params or {})
    if set(params) != set(expected):
        raise ParamOutOfRange(
            f"kernel {name!r} takes parameters {list(expected)}, got {sorted(params)}"
        )
    try:
        k = row(**params)
    except (OverflowError, ZeroDivisionError) as e:
        raise ParamOutOfRange(
            f"kernel {name!r} at {params} has constants beyond the float range ({e})"
        ) from e
    if not all(map(math.isfinite, (k.Lambda, k.lam, k.kappa))):  # x / subnormal gives inf, no error
        raise ParamOutOfRange(f"kernel {name!r} at {params} has constants beyond the float range")
    return k


def kernel_area(k: Kernel) -> float:
    """Signed area integral of g over [0, 1] by ``quad01``'s adaptive
    Gauss-Legendre rules, split at ``k.breakpoints``: the anti-typo oracle
    for the stored ``k.kappa``."""
    return quad01(k.g, k.breakpoints)


def custom_kernel(
    g: Callable | Sequence[float] | np.ndarray,
    phi: Callable | None = None,
) -> Kernel:
    """Kernel from a user-supplied map: a callable on [0, 1] or values
    tabulated on a uniform grid. This is the one estimator of slope bounds,
    area and sign; an explicit pair's induced kernel is built here too.

    Slope bounds come from extremization of ``phi`` on SLOPE_GRID points
    with a golden-section polish (``scan_extrema``) when it is given,
    otherwise from second-order differences of g tabulated on the grid;
    kappa from ``quad01``, or the trapezoid rule over the grid points for
    tabulated input. The zero kernel is allowed and flagged degenerate.

    Raises NotAnchored when g(0) or g(1) is nonzero beyond 1e-9;
    DegenerateKernel when g is NaN or infinite on its grid (the table, or
    4001 points of a callable) or the slope extremes are not finite and of
    both signs; and UnboundedDerivative when difference-quotient extremes
    keep growing under grid refinement.
    """
    if callable(g):
        g_fn, tabulated = g, None
        seen = np.asarray(g_fn(np.linspace(0.0, 1.0, 4001)), dtype=float)
    else:
        seen = tabulated = np.asarray(g, dtype=float)
        if tabulated.ndim != 1 or tabulated.size < 3:
            raise ValueError("tabulated kernel needs a 1-d array of >= 3 values")
        xs = np.linspace(0.0, 1.0, tabulated.size)
        g_fn = lambda u, xs=xs, vals=tabulated: np.interp(u, xs, vals)  # noqa: E731

    if not np.all(np.isfinite(seen)):
        raise DegenerateKernel(f"kernel values must be finite; g is NaN or infinite at "
                               f"{np.count_nonzero(~np.isfinite(seen))} of {seen.size} grid points")
    g0, g1 = float(g_fn(0.0)), float(g_fn(1.0))
    if abs(g0) > ANCHOR_TOL or abs(g1) > ANCHOR_TOL:
        raise NotAnchored(f"kernel boundary values g(0)={g0:.3g}, g(1)={g1:.3g} must vanish")
    if np.max(np.abs(seen)) < DEGENERATE_TOL:
        return Kernel(
            "custom", {}, g=g_fn, phi=(phi or (lambda u: np.zeros_like(np.asarray(u, dtype=float)))),
            Lambda=math.inf, lam=-math.inf, kappa=0, sign_constant=True,
        )

    if phi is not None:
        sup, inf = scan_extrema(phi)
    elif tabulated is not None:
        phi, sup, inf = tabulated_slope(tabulated)
    else:
        _check_bounded_derivative(g_fn)
        phi, sup, inf = tabulated_slope(g_fn(np.linspace(0.0, 1.0, SLOPE_GRID)))

    if not (0.0 < sup < math.inf and -math.inf < inf < 0.0):
        raise DegenerateKernel(f"derivative extremes ({sup:.3g}, {inf:.3g}) must be finite and "
                               "of both signs for g to anchor at 0 and 1")

    # trapezoid for tables: they often have kinks that defeat adaptive panels
    kappa = quad01(g_fn) if tabulated is None else float(np.trapezoid(tabulated, xs))
    return Kernel(
        "custom", {}, g=g_fn, phi=phi,
        Lambda=1.0 / sup, lam=1.0 / inf, kappa=kappa,
        sign_constant=not sign_changes(g_fn),
    )


def _check_bounded_derivative(g_fn: Callable) -> None:
    """Reject kernels whose difference quotients diverge under refinement."""
    prev = None
    growth = 0
    for n in (25_001, 50_001, 100_001, 200_001):
        xs = np.linspace(0.0, 1.0, n)
        quot = np.abs(np.diff(np.asarray(g_fn(xs), dtype=float))) * (n - 1)
        cur = float(np.max(quot))
        if prev is not None and cur > 1.25 * prev:
            growth += 1
        prev = cur
    if growth >= 2:
        raise UnboundedDerivative(
            "difference-quotient extremes grow under grid refinement; derivative appears unbounded"
        )


def validate_kernel(k: Kernel) -> None:
    """Assert the structural kernel invariants; raises AssertionError.

    Checks boundary anchoring, zero-mean derivative, slope-bound signs and
    the Lipschitz envelope |g(u)| <= max(1/Lambda, -1/lam) * min(u, 1-u).
    """
    assert abs(float(k.g(0.0))) <= 1e-12 and abs(float(k.g(1.0))) <= 1e-12
    assert k.lam < 0 < k.Lambda
    if k.phi is not None:
        assert abs(quad01(k.phi, k.breakpoints, tol=1e-10)) < 1e-8
    u = np.linspace(0.0, 1.0, 2001)
    envelope = k.slope_sup() * np.minimum(u, 1.0 - u)
    assert np.all(np.abs(np.asarray(k.g(u), dtype=float)) <= envelope + 1e-12)
