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
* ``_moment``             -- one mixed moment theta_S (default: exact ``mix``),
* ``_sample``             -- n index states from a generator,
* ``admissibility_check`` -- the nonnegativity certificate: the verdict and
                             the negative entries, never the 2^d table,
* ``mix``                 -- E prod_m (a_m + b_m Z_m), Z_m = (I_m - pi_m)/pi_m,
                             behind the cdf, the orthant coefficients and
                             the moments; only the default needs the 2^d
                             pmf table.

States are encoded as integers with bit m carrying I_{m+1}; exported
bitstrings list margin 1 first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from operator import mul

import numpy as np

from .errors import (
    DimensionTooLarge,
    MarginsNotHalf,
    MomentOverflow,
    NotAdmissible,
    SubsetTooSmall,
)
from .rng import stream

MAX_FULL_PMF_D = 20
PMF_CLAMP = 1e-12  # negative entries summing to >= -PMF_CLAMP are floating dust, clamped
THETA_DROP = 1e-15  # thetas_by_mask leaves out |theta_S| <= THETA_DROP
PI_FLOOR = 2.0 ** -52  # margins need min(pi, 1 - pi) >= PI_FLOOR
MARGINS_OUTSIDE = "all margins must lie in [2^-52, 1 - 2^-52], got pi = {}"


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
    """Verdict of the nonnegativity check and its evidence.

    ``violations`` lists the negative entries as (state bitstring or
    ``w_j``, value); the law passes iff it is empty. Bivariate theta laws
    add their admissible ``theta_interval``; ``note`` says how the verdict
    was reached. The law itself carries the rest: ``spec.kind``,
    ``spec.pi`` and ``spec.pmf_table()``.
    """

    passed: bool
    violations: list[tuple[str, float]] = field(default_factory=list)
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


def _weights(values, what: str) -> np.ndarray:
    """Probabilities that must total 1, to 1e-12 of the entries' absolute
    mass plus PMF_CLAMP. Negative entries that sum to no less than -PMF_CLAMP
    are floating dust and set to 0, so a law totals up to 1 + PMF_CLAMP and
    its exported table must still load; with more negative mass than that
    the law keeps every entry as given and fails its certificate."""
    raw = np.array(values, dtype=float).reshape(-1)
    if not np.all(np.isfinite(raw)):  # a NaN would pass the sum test below
        raise ValueError(f"{what} must be finite")
    if abs(float(raw.sum()) - 1.0) > 1e-12 * max(1.0, float(np.abs(raw).sum())) + PMF_CLAMP:
        raise ValueError(f"{what} sum to {float(raw.sum())!r}, not 1")
    if float(np.minimum(raw, 0.0).sum()) >= -PMF_CLAMP:
        return np.where(raw < 0.0, 0.0, raw)
    return raw


def _violations(weights: np.ndarray) -> np.ndarray:
    """Indices of the entries a certificate lists: those below -PMF_CLAMP or,
    when only the negative entries' sum is, all negative entries. Weights
    whose dust was cleared have none."""
    bad = np.flatnonzero(weights < -PMF_CLAMP)
    return bad if bad.size else np.flatnonzero(weights < 0.0)


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


def _factors(a, b, pis):
    """(f0_m, f1_m) = (a_m - b_m, a_m + b_m (1 - pi_m)/pi_m), one margin at a
    time: the factor a_m + b_m Z_m at I_m = 0 and at I_m = 1."""
    return ((am - bm, am + bm * ((1 - p) / p)) for am, bm, p in zip(a, b, pis))


class BernoulliSpec:
    """Common behaviour; concrete laws implement the hooks below."""

    kind = "abstract"

    def __init__(self, pis: np.ndarray):
        self.pi = np.asarray(pis, dtype=float)
        # a margin within rounding of 0 or 1 has moments ~ pi^(1 - |S|) past
        # the float range and per-state tables whose margins round to 0 or 1
        if not np.all(np.minimum(self.pi, 1.0 - self.pi) >= PI_FLOOR):  # also rejects NaN
            raise ValueError(MARGINS_OUTSIDE.format(self.pi.tolist()))
        self.d = int(self.pi.size)
        self._theta_cache: dict[tuple[int, ...], float] = {}
        self._mask_cache: dict[int, float] | None = None

    # hooks ---------------------------------------------------------------
    def _pmf_table(self) -> np.ndarray:
        raise NotImplementedError

    def _moment(self, idx: tuple[int, ...]) -> float:
        # theta_S = E prod_{m in S} Z_m: (a_m, b_m) = (0, 1) on S, (1, 0) off it
        on = [m + 1 in idx for m in range(self.d)]
        return float(self.mix([int(not x) for x in on], [int(x) for x in on], Fraction))

    def _sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def admissibility_check(self) -> AdmissibilityCertificate:
        raise NotImplementedError

    def mix(self, a, b, num=float):
        """E prod_m (a[m] + b[m] Z_m) over the index states, Z_m = (I_m - pi_m)/pi_m.

        ``a[m]``, ``b[m]`` are numbers or arrays of one shape; ``num``
        (``float`` or ``Fraction``) fixes the arithmetic of the law's weights
        and margins. The pmf table is contracted one margin at a time.
        """
        table = [num(p) for p in self.pmf_table()]
        for f0, f1 in _factors(a, b, [num(p) for p in self.pi]):
            table = [table[i] * f0 + table[i + 1] * f1 for i in range(0, len(table), 2)]
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
        return AdmissibilityCertificate(passed=not violations, violations=list(violations), note=note)

    def mixed_moment(self, S) -> float:
        """theta_S for a subset of 1-based margin indices, |S| >= 2."""
        idx = _subset_key(S, self.d)
        if idx not in self._theta_cache:
            try:
                self._theta_cache[idx] = self._moment(idx)
            except OverflowError as e:
                raise MomentOverflow(f"theta_S for S = {idx} exceeds the float range") from e
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

    def __init__(self, pmf):
        pmf = np.asarray(pmf, dtype=float).reshape(-1)
        d = int(round(math.log2(pmf.size)))
        if 1 << d != pmf.size:
            raise ValueError(f"pmf length {pmf.size} is not a power of two")
        if d > MAX_FULL_PMF_D:
            raise DimensionTooLarge(f"full pmf supports d <= {MAX_FULL_PMF_D}, got {d}")
        self._pmf = pmf = _weights(pmf, "pmf entries")
        states = np.arange(pmf.size)
        super().__init__([pmf[(states >> m) & 1 == 1].sum() for m in range(d)])

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
        bad = _violations(self._pmf)
        # state_bitstring for all states at once: one ASCII digit per margin
        digits = (((bad[:, None] >> np.arange(self.d)) & 1) + ord("0")).astype(np.uint8)
        bits = digits.view(f"S{self.d}").ravel().astype(str)
        return self._certificate(list(zip(bits.tolist(), self._pmf[bad].tolist())))

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
        self.w = _weights(w, "weights w_j")
        d = w.size - 1
        self._w_frac = [Fraction(x) for x in self.w]
        self._pi_frac = sum(j * wj for j, wj in enumerate(self._w_frac)) / d
        pi = float(np.dot(np.arange(d + 1), self.w)) / d
        # the floor is tested on the exact margin, which the float pi can
        # round onto (and which the exported table's margin sums round past)
        if min(self._pi_frac, 1 - self._pi_frac) < PI_FLOOR:
            raise ValueError(MARGINS_OUTSIDE.format([float(self._pi_frac)] * d))
        super().__init__(np.full(d, pi))

    def theta_k_exact(self, k: int) -> Fraction:
        """Size-k moment by exact hypergeometric summation over the sum law:
        a reference for ``mixed_moment``, which runs ``mix`` on the same
        rationals."""
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

    def mix(self, a, b, num=float):
        # the states with j ones share mass w_j / C(d, j), so the sum runs over
        # the t^j coefficients of prod_m (f0_m + t f1_m): O(d^2), no 2^d table
        c = [num(1)] + [num(0)] * self.d
        for m, (f0, f1) in enumerate(_factors(a, b, [num(self._pi_frac)] * self.d)):
            for k in range(m + 1, 0, -1):  # c[k] = 0 for k > m + 1
                c[k] = c[k] * f0 + c[k - 1] * f1
            c[0] = c[0] * f0
        return sum((num(wj) / math.comb(self.d, j) * c[j] for j, wj in enumerate(self._w_frac) if wj),
                   num(0))

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
            [(f"w_{j}", float(self.w[j])) for j in _violations(self.w)],
            note="admissibility for an exchangeable sum law is w_j >= 0",
        )

    def _sample(self, n, rng):
        j = _draw_categorical(self.w, n, rng)
        out = np.empty((n, self.d), dtype=np.uint8)
        out[:] = (j == self.d)[:, None]  # rows with j = 0 or d are all off or all on
        mixed = np.flatnonzero((j > 0) & (j < self.d))
        if mixed.size:
            # the j smallest of d uniform scores switch their margins on; every
            # row's scores are drawn, so a row's scores do not depend on the others' j
            order = rng.random((n, self.d))[mixed].argsort(axis=1)
            rows = np.empty(order.shape, dtype=np.uint8)
            np.put_along_axis(rows, order, np.arange(self.d) < j[mixed, None], axis=1)
            out[mixed] = rows
        return out


class IndependentSpec(BernoulliSpec):
    """Independent indicators: every theta_S is zero."""

    kind = "independent"

    def mix(self, a, b, num=float):
        return math.prod(a, start=num(1))

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

    def mix(self, a, b, num=float):
        # V between the (k+1)-th and the k-th largest pi switches on the k
        # margins with the largest pi: d + 1 states, each a prefix product
        # of f1 times a suffix product of f0 in descending-pi order
        order = np.argsort(-self.pi, kind="stable")
        levels = [num(1)] + [num(self.pi[m]) for m in order] + [num(0)]
        f0, f1 = zip(*_factors([a[m] for m in order], [b[m] for m in order], levels[1:-1]))
        on = list(accumulate(f1, mul, initial=num(1)))
        off = list(accumulate(reversed(f0), mul, initial=num(1)))[::-1]
        return sum(((levels[k] - levels[k + 1]) * on[k] * off[k]
                    for k in range(self.d + 1) if levels[k] > levels[k + 1]), num(0))

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
