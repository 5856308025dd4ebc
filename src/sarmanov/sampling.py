"""Exact sampling via the latent-index mixture representation.

One row is drawn as: sample the index state I from the Bernoulli law
(stream 0), then independently per margin m draw q ~ Unif(0,1) on stream m
and set U_m to the component quantile F_{m,[I_m]}^{-1}(q). No rejection
occurs anywhere; conditional on I the coordinates are independent.

Powered copulas sample r i.i.d. pairs from the auxiliary transformed-kernel
copula and return componentwise maxima raised to the r-th power, which is
exact for integer powers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bernoulli import sample_indices
from .calibration import MarginSampler
from .copula import PoweredCopula, SarmanovCopula
from .rng import stream

#: bumped whenever sample bytes change on purpose (the README lists each
#: version); 4 = rational kernel constants rounded once, lee_exponential's g
#: in expm1 form
SAMPLER_VERSION = 4


@dataclass(frozen=True)
class SampleBatch:
    rows: np.ndarray  # (n, d), each coordinate in [0, 1]
    seed: int
    copula_id: str = ""

    @property
    def n(self) -> int:
        return int(self.rows.shape[0])

    @property
    def d(self) -> int:
        return int(self.rows.shape[1])


def sample(copula: SarmanovCopula, n: int, seed: int, copula_id: str = "") -> SampleBatch:
    """n exact draws; bit-identical for identical (copula, n, seed)."""
    n = int(n)
    idx = sample_indices(copula.bern, n, seed)  # refuses inadmissible laws
    rows = np.empty((n, copula.d), dtype=float)
    for m in range(copula.d):
        q = stream(seed, m + 1).random(n)
        rows[:, m] = MarginSampler(copula.margins[m]).quantile(idx[:, m], q)
    return SampleBatch(rows=rows, seed=int(seed), copula_id=copula_id)


def sample_powered(powered: PoweredCopula, n: int, seed: int, copula_id: str = "") -> SampleBatch:
    """Block-maxima sampler: r auxiliary draws per row, maxima to the r-th
    power. With r = 1 this reduces to the plain sampler, same seed protocol."""
    n, r = int(n), powered.r
    base = sample(powered.base, n * r, seed)
    blocks = base.rows.reshape(n, r, 2)
    top = blocks[:, 0].copy()
    for k in range(1, r):  # r slices, not a length-r inner loop per element
        np.maximum(top, blocks[:, k], out=top)
    rows = top ** r
    return SampleBatch(rows=rows, seed=int(seed), copula_id=copula_id)
