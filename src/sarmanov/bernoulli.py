"""Multivariate Bernoulli laws for the latent index vector.

All dependence of the copula lives in the law of I = (I_1, ..., I_d) with
margins P(I_m = 1) = pi_m. The normalized centred mixed moments

    theta_S = E[ prod_{m in S} (I_m - pi_m) / pi_m ],        |S| >= 2,

are the dependence parameters of the subset expansion, and admissibility of
a parameter choice is exactly nonnegativity of the Bernoulli pmf: no
rectangle-increment inequalities ever need to be checked.

Variants:

* ``FullPmfSpec``        -- explicit table over {0,1}^d (d <= 20),
* ``BivariateThetaSpec`` -- d = 2 law parametrized by the single theta,
* ``ExchangeableSumSpec``-- exchangeable law given by the distribution of
                            the sum (admissibility reduces to w_j >= 0),
* ``IndependentSpec`` / ``ComonotoneSpec`` -- named couplings.

Everything that depends on the law is a ``BernoulliSpec`` hook:

* ``_pmf_table``          -- the flat pmf (``pmf_table`` enforces d <= 20),
* ``_moment``             -- one mixed moment theta_S,
* ``_sample``             -- n index states from a generator,
* ``admissibility_check`` -- the nonnegativity certificate,
* ``expansion``           -- sum_{|S|>=2} theta_S prod_{m not in S} a_m
                             prod_{m in S} b_m, the one sum behind the cdf
                             and the orthant coefficients; the default
                             contracts the ``thetas_by_mask`` table, exchangeable
                             laws collapse subsets of equal size.

States are encoded as integers with bit m carrying I_{m+1}; exported
bitstrings list margin 1 first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

import numpy as np

from .errors import (
    DimensionTooLarge,
    MarginsNotHalf,
    NotAdmissible,
    SubsetTooSmall,
)
from .rng import stream

MAX_FULL_PMF_D = 20
PMF_CLAMP = 1e-12  # entries in [-PMF_CLAMP, 0) are floating dust, clamped
THETA_DROP = 1e-15  # thetas_by_mask leaves out |theta_S| <= THETA_DROP


def state_bitstring(s: int, d: int) -> str:
    """Render state ``s`` with margin 1 leftmost, e.g. 5 -> '101' for d=3."""
    return "".join(str((s >> m) & 1) for m in range(d))


def theta_range_bivariate(pi1: float, pi2: float) -> tuple[float, float]:
    """Exact theta interval keeping all four bivariate pmf entries >= 0.

    [-min(1, (1-pi1)(1-pi2)/(pi1 pi2)), min((1-pi1)/pi1, (1-pi2)/pi2)].
    """
    if not (0.0 < pi1 < 1.0 and 0.0 < pi2 < 1.0):
        raise ValueError("margins must lie in (0,1)")
    lo = -min(1.0, (1.0 - pi1) * (1.0 - pi2) / (pi1 * pi2))
    hi = min((1.0 - pi1) / pi1, (1.0 - pi2) / pi2)
    return lo, hi


@dataclass
class AdmissibilityCertificate:
    """Outcome of a nonnegativity check, with enough detail to audit it."""

    passed: bool
    kind: str
    pis: tuple[float, ...]
    violations: list[tuple[str, float]] = field(default_factory=list)
    pmf: np.ndarray | None = None
    theta_interval: tuple[float, float] | None = None
    note: str = ""

    def __bool__(self) -> bool:
        return self.passed


def _subset_key(S, d: int) -> tuple[int, ...]:
    idx = tuple(sorted(set(int(m) for m in S)))
    if len(idx) < 2:
        raise SubsetTooSmall(f"mixed moments need |S| >= 2, got {idx}")
    if not idx or idx[0] < 1 or idx[-1] > d:
        raise ValueError(f"subset {idx} not within 1..{d}")
    return idx


def _weights(values, what: str) -> tuple[np.ndarray, np.ndarray]:
    """(raw, clamped) probabilities that must total 1. Entries in
    [-PMF_CLAMP, 0) are floating dust and clamped to 0 in the second copy;
    the raw copy keeps real violations visible for the certificate."""
    raw = np.array(values, dtype=float).reshape(-1)
    if not np.all(np.isfinite(raw)):  # a NaN would pass the sum test below
        raise ValueError(f"{what} must be finite")
    if abs(float(raw.sum()) - 1.0) > 1e-12:
        raise ValueError(f"{what} sum to {float(raw.sum())!r}, not 1")
    return raw, np.where((raw < 0.0) & (raw >= -PMF_CLAMP), 0.0, raw)


def _draw_categorical(p: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """n indices into ``p`` by inversion of its cumulative sums."""
    cum = np.cumsum(p)
    cum[-1] = 1.0
    return np.searchsorted(cum, rng.random(n), side="right")


def _moment_transform(pmf_flat: np.ndarray, pis: np.ndarray) -> np.ndarray:
    """All normalized mixed moments at once.

    Returns a vector indexed by subset mask (bit m <-> margin m+1):
    entry[mask] = E prod_{m in mask} Z_m, entry[0] = 1, singletons ~ 0.
    """
    d = pis.size
    T = np.asarray(pmf_flat, dtype=float).reshape((2,) * d)
    for axis in range(d):
        m = d - 1 - axis  # C-order: axis 0 holds the highest state bit
        z1 = (1.0 - pis[m]) / pis[m]
        a0 = np.take(T, 0, axis=axis)
        a1 = np.take(T, 1, axis=axis)
        T = np.stack([a0 + a1, -a0 + z1 * a1], axis=axis)
    return T.reshape(-1)


class BernoulliSpec:
    """Common behaviour; concrete laws implement the hooks below."""

    kind = "abstract"

    def __init__(self, pis: np.ndarray):
        self.pi = np.asarray(pis, dtype=float)
        if not np.all((self.pi > 0.0) & (self.pi < 1.0)):  # also rejects NaN
            raise ValueError("all margins must lie strictly inside (0,1)")
        self.d = int(self.pi.size)
        self._theta_cache: dict[tuple[int, ...], float] = {}
        self._mask_cache: dict[int, float] | None = None

    # hooks ---------------------------------------------------------------
    def _pmf_table(self) -> np.ndarray:
        raise NotImplementedError

    def _moment(self, idx: tuple[int, ...]) -> float:
        raise NotImplementedError

    def _sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def admissibility_check(self) -> AdmissibilityCertificate:
        raise NotImplementedError

    def expansion(self, a, b, num=float):
        """sum_{|S| >= 2} theta_S prod_{m not in S} a[m] prod_{m in S} b[m].

        ``a[m]``, ``b[m]`` are numbers or arrays of one shape; ``num``
        (``float`` or ``Fraction``) fixes the arithmetic of the thetas. The
        theta table is contracted one margin at a time, lowest bit first.
        """
        thetas = self.thetas_by_mask()
        if not thetas:  # independent laws: no 2^d table at any d
            return num(0)
        table = [num(0)] * (1 << self.d)
        for mask, th in thetas.items():
            table[mask] = num(th)
        for am, bm in zip(a, b):
            table = [table[i] * am + table[i + 1] * bm for i in range(0, len(table), 2)]
        return table[0]

    # shared --------------------------------------------------------------
    def pmf_table(self) -> np.ndarray:
        """Flat pmf over {0,1}^d; only available for d <= MAX_FULL_PMF_D."""
        if self.d > MAX_FULL_PMF_D:
            raise DimensionTooLarge(
                f"pmf materialization needs d <= {MAX_FULL_PMF_D}, got {self.d}"
            )
        return self._pmf_table()

    def _certificate(self, violations=(), note: str = "") -> AdmissibilityCertificate:
        """Certificate that passes iff ``violations`` is empty."""
        return AdmissibilityCertificate(
            passed=not violations, kind=self.kind, pis=tuple(self.pi),
            violations=list(violations),
            pmf=self.pmf_table() if self.d <= MAX_FULL_PMF_D else None,
            note=note,
        )

    def mixed_moment(self, S) -> float:
        """theta_S for a subset of 1-based margin indices, |S| >= 2."""
        idx = _subset_key(S, self.d)
        if idx not in self._theta_cache:
            self._theta_cache[idx] = self._moment(idx)
        return self._theta_cache[idx]

    def thetas_by_mask(self) -> dict[int, float]:
        """{subset mask: theta_S} for |S| >= 2, |theta_S| <= THETA_DROP dropped."""
        if self._mask_cache is None:
            all_t = _moment_transform(self.pmf_table(), self.pi)
            out: dict[int, float] = {}
            for mask in range(1, 1 << self.d):
                if mask & (mask - 1) == 0:  # singleton
                    continue
                v = float(all_t[mask])
                if abs(v) > THETA_DROP:
                    out[mask] = v
            self._mask_cache = out
        return self._mask_cache

    def palindromic_check(self) -> bool:
        """True iff the law is invariant under flipping every coordinate.

        Requires all margins equal to 1/2 (MarginsNotHalf otherwise).
        """
        if np.max(np.abs(self.pi - 0.5)) > 1e-12:
            raise MarginsNotHalf("palindromic symmetry is defined for pi_m = 1/2")
        pmf = self.pmf_table()
        full = (1 << self.d) - 1
        flipped = pmf[np.arange(pmf.size) ^ full]
        return bool(np.max(np.abs(pmf - flipped)) <= 1e-12)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self._sample(int(n), rng)


class FullPmfSpec(BernoulliSpec):
    """Explicit probability table over {0,1}^d."""

    kind = "full_pmf"

    def __init__(self, pmf, pis=None):
        pmf = np.asarray(pmf, dtype=float).reshape(-1)
        d = int(round(math.log2(pmf.size)))
        if 1 << d != pmf.size:
            raise ValueError(f"pmf length {pmf.size} is not a power of two")
        if d > MAX_FULL_PMF_D:
            raise DimensionTooLarge(f"full pmf supports d <= {MAX_FULL_PMF_D}, got {d}")
        self._raw, pmf = _weights(pmf, "pmf entries")
        self._pmf = pmf
        states = np.arange(pmf.size)
        derived = np.array([pmf[(states >> m) & 1 == 1].sum() for m in range(d)])
        if pis is not None:
            pis = np.asarray(pis, dtype=float)
            if np.max(np.abs(pis - derived)) > 1e-12:
                raise ValueError("declared margins disagree with the pmf margins")
        super().__init__(derived)

    def _pmf_table(self) -> np.ndarray:
        return self._pmf

    def _moment(self, idx):
        states = np.arange(self._pmf.size)
        factor = np.ones(self._pmf.size)
        for m1 in idx:
            m = m1 - 1
            z1 = (1.0 - self.pi[m]) / self.pi[m]
            factor *= np.where((states >> m) & 1 == 1, z1, -1.0)
        return float(np.dot(self._pmf, factor))

    def admissibility_check(self) -> AdmissibilityCertificate:
        return self._certificate([
            (state_bitstring(s, self.d), float(v))
            for s, v in enumerate(self._raw)
            if v < -PMF_CLAMP
        ])

    def _sample(self, n, rng):
        states = _draw_categorical(self._pmf, n, rng)
        return ((states[:, None] >> np.arange(self.d)[None, :]) & 1).astype(np.uint8)


class BivariateThetaSpec(FullPmfSpec):
    """d = 2 law with the single normalized covariance parameter theta."""

    kind = "bivariate_theta"

    def __init__(self, pi1: float, pi2: float, theta: float):
        self.theta = float(theta)
        q = pi1 * pi2 * theta
        # states: bit0 = I1, bit1 = I2
        pmf = np.array([
            (1 - pi1) * (1 - pi2) + q,  # (0,0)
            pi1 * (1 - pi2) - q,        # (1,0)
            (1 - pi1) * pi2 - q,        # (0,1)
            pi1 * pi2 + q,              # (1,1)
        ])
        super().__init__(pmf)
        # margins are exact by construction; overwrite any pmf rounding
        self.pi = np.array([pi1, pi2], dtype=float)

    def admissibility_check(self) -> AdmissibilityCertificate:
        cert = super().admissibility_check()
        cert.theta_interval = theta_range_bivariate(self.pi[0], self.pi[1])
        lo, hi = cert.theta_interval
        if not cert.passed:
            cert.note = f"theta={self.theta} outside [{lo}, {hi}]"
        return cert


class ExchangeableSumSpec(BernoulliSpec):
    """Exchangeable law specified by w_j = P(sum of indicators = j).

    The states with j ones share probability w_j / C(d, j); margins are
    pi = sum_j j w_j / d for every coordinate, and theta_S depends on S
    only through |S|.
    """

    kind = "exchangeable_sum"

    def __init__(self, w):
        w = np.asarray(w, dtype=float).reshape(-1)
        if w.size < 3:
            raise ValueError("need w_0..w_d with d >= 2")
        self._raw_w, self.w = _weights(w, "weights w_j")
        d = w.size - 1
        pi = float(np.dot(np.arange(d + 1), self.w)) / d
        super().__init__(np.full(d, pi))
        self._w_frac = [Fraction(x) for x in self.w]
        self._pi_frac = sum(j * wj for j, wj in enumerate(self._w_frac)) / d

    def theta_k_exact(self, k: int) -> Fraction:
        """Size-k moment by exact hypergeometric summation over the sum law."""
        if not 2 <= k <= self.d:
            raise SubsetTooSmall(f"need 2 <= k <= d, got k={k}")
        d, pi = self.d, self._pi_frac
        z1 = (1 - pi) / pi
        total = Fraction(0)
        for j, wj in enumerate(self._w_frac):
            if wj == 0:
                continue
            inner = Fraction(0)
            for i in range(max(0, j - (d - k)), min(k, j) + 1):
                hyper = Fraction(math.comb(k, i) * math.comb(d - k, j - i), math.comb(d, j))
                inner += hyper * z1 ** i * Fraction(-1) ** (k - i)
            total += wj * inner
        return total

    @cached_property
    def _theta_ks(self) -> list[Fraction]:
        """theta_2..theta_d, computed once per law."""
        return [self.theta_k_exact(k) for k in range(2, self.d + 1)]

    def _moment(self, idx):
        return float(self.theta_k_exact(len(idx)))

    def expansion(self, a, b, num=float):
        # theta_S depends on |S| only, so the sum is sum_k theta_k times the
        # t^k coefficient of prod_m (a_m + t b_m): O(d^2) instead of O(2^d)
        c = [num(1)] + [num(0)] * self.d
        for m, (am, bm) in enumerate(zip(a, b)):
            for k in range(m + 1, 0, -1):  # c[k] = 0 for k > m + 1
                c[k] = c[k] * am + c[k - 1] * bm
            c[0] = c[0] * am
        return sum((num(t) * c[k] for k, t in enumerate(self._theta_ks, 2)), num(0))

    def _pmf_table(self) -> np.ndarray:
        states = np.arange(1 << self.d)
        ones = np.array([int(s).bit_count() for s in states])
        denom = np.array([math.comb(self.d, j) for j in range(self.d + 1)], dtype=float)
        return self.w[ones] / denom[ones]

    def palindromic_check(self) -> bool:
        if abs(float(self.pi[0]) - 0.5) > 1e-12:
            raise MarginsNotHalf("palindromic symmetry is defined for pi = 1/2")
        return bool(np.max(np.abs(self.w - self.w[::-1])) <= 1e-12)

    def admissibility_check(self) -> AdmissibilityCertificate:
        return self._certificate(
            [(f"w_{j}", float(v)) for j, v in enumerate(self._raw_w) if v < -PMF_CLAMP],
            note="admissibility for an exchangeable sum law is w_j >= 0",
        )

    def _sample(self, n, rng):
        j = _draw_categorical(self.w, n, rng)
        scores = rng.random((n, self.d))
        ranks = scores.argsort(axis=1).argsort(axis=1)
        return (ranks < j[:, None]).astype(np.uint8)


class IndependentSpec(BernoulliSpec):
    """Independent indicators: every theta_S is zero."""

    kind = "independent"

    def _moment(self, idx):
        return 0.0

    def thetas_by_mask(self) -> dict[int, float]:
        return {}

    def _pmf_table(self) -> np.ndarray:
        states = np.arange(1 << self.d)
        pmf = np.ones(states.size)
        for m in range(self.d):
            on = (states >> m) & 1 == 1
            pmf *= np.where(on, self.pi[m], 1.0 - self.pi[m])
        return pmf

    def admissibility_check(self) -> AdmissibilityCertificate:
        return self._certificate(note="product law; nonnegative by construction")

    def _sample(self, n, rng):
        return (rng.random((n, self.d)) <= self.pi[None, :]).astype(np.uint8)


class ComonotoneSpec(BernoulliSpec):
    """Upper Frechet coupling I_m = 1{V <= pi_m} for one shared uniform V."""

    kind = "comonotone"

    def _moment(self, idx):
        # integrate prod Z over the threshold intervals of V (exactly)
        ps = sorted(Fraction(float(self.pi[m1 - 1])) for m1 in idx)
        k = len(ps)
        total = Fraction(0)
        prev = Fraction(0)
        for i in range(k + 1):
            # V in (prev, ps[i]] switches on thresholds with index >= i
            upper = ps[i] if i < k else Fraction(1)
            length = upper - prev
            if length > 0:
                prod = Fraction(1)
                for j, p in enumerate(ps):
                    prod *= (1 - p) / p if j >= i else Fraction(-1)
                total += length * prod
            prev = upper
        return float(total)

    def _pmf_table(self) -> np.ndarray:
        order = np.argsort(-self.pi, kind="stable")  # descending pi
        levels = np.concatenate(([1.0], self.pi[order], [0.0]))
        pmf = np.zeros(1 << self.d)
        mask = 0
        for k in range(self.d + 1):
            prob = levels[k] - levels[k + 1]
            if k > 0:
                mask |= 1 << int(order[k - 1])
            if prob > 0:
                pmf[mask] += prob
        return pmf

    def admissibility_check(self) -> AdmissibilityCertificate:
        return self._certificate(note="comonotone coupling; nonnegative by construction")

    def _sample(self, n, rng):
        v = rng.random(n)
        return (v[:, None] <= self.pi[None, :]).astype(np.uint8)


# --- named couplings --------------------------------------------------------


def independent(pis) -> IndependentSpec:
    return IndependentSpec(np.asarray(pis, dtype=float))


def comonotone(pis) -> ComonotoneSpec:
    return ComonotoneSpec(np.asarray(pis, dtype=float))


def end3() -> ExchangeableSumSpec:
    """Extreme negative dependence for three exchangeable symmetric
    indicators: the sum is 1 or 2 with equal probability."""
    return ExchangeableSumSpec([0.0, 0.5, 0.5, 0.0])


def epd(d: int) -> ExchangeableSumSpec:
    """Extreme positive dependence: all-zeros or all-ones, equal weight."""
    if d < 2:
        raise ValueError("need d >= 2")
    w = np.zeros(d + 1)
    w[0] = w[-1] = 0.5
    return ExchangeableSumSpec(w)


# --- module-level operation surface -----------------------------------------


def mixed_moment(spec: BernoulliSpec, S) -> float:
    """theta_S = E prod_{m in S} (I_m - pi_m)/pi_m for 1-based S, |S| >= 2."""
    return spec.mixed_moment(S)


def admissibility_check(spec: BernoulliSpec) -> AdmissibilityCertificate:
    return spec.admissibility_check()


def palindromic_check(spec: BernoulliSpec) -> bool:
    return spec.palindromic_check()


def sample_indices(spec: BernoulliSpec, n: int, seed: int) -> np.ndarray:
    """n i.i.d. index states as an (n, d) 0/1 array, deterministic in seed.

    Refuses inadmissible laws (NotAdmissible).
    """
    cert = spec.admissibility_check()
    if not cert.passed:
        raise NotAdmissible(f"law fails nonnegativity: {cert.violations[:4]}")
    return spec.sample(n, stream(seed, 0))
