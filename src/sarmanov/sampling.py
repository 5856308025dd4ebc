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
from .calibration import component_quantile
from .copula import PoweredCopula, SarmanovCopula
from .rng import stream

#: bumped whenever sample bytes change on purpose (the README lists each version);
#: 7 = norm_lee's g takes the package's normal cdf (Cody's forms), not scipy's
SAMPLER_VERSION = 7


@dataclass(frozen=True)
class SampleBatch:
    rows: np.ndarray  # (n, d), each coordinate in [0, 1]
    seed: int

    @property
    def n(self) -> int:
        return int(self.rows.shape[0])

    @property
    def d(self) -> int:
        return int(self.rows.shape[1])


def sample(copula: SarmanovCopula, n: int, seed: int) -> SampleBatch:
    """n exact draws; bit-identical for identical (copula, n, seed)."""
    n = int(n)
    idx = sample_indices(copula.bern, n, seed)  # refuses inadmissible laws
    rows = np.empty((n, copula.d), dtype=float)
    for m, pair in enumerate(copula.margins):
        q = stream(seed, m + 1).random(n)
        on = idx[:, m].astype(bool)
        out = np.empty_like(q)  # contiguous, unlike rows[:, m]; reusing q raised peak RSS
        for which, picked in enumerate((np.flatnonzero(~on), np.flatnonzero(on))):
            if picked.size:
                out[picked] = component_quantile(pair, which, q[picked])
        rows[:, m] = out
        del on, picked, out  # freed before the next margin's uniforms are drawn: lower peak RSS
    return SampleBatch(rows=rows, seed=int(seed))


def sample_powered(powered: PoweredCopula, n: int, seed: int) -> SampleBatch:
    """Block-maxima sampler: r auxiliary draws per row, maxima to the r-th
    power. With r = 1 this reduces to the plain sampler, same seed protocol."""
    n, r = int(n), powered.r
    base = sample(powered.base, n * r, seed)
    blocks = base.rows.reshape(n, r, 2)
    top = blocks[:, 0].copy()
    for k in range(1, r):  # r slices, not a length-r inner loop per element
        np.maximum(top, blocks[:, k], out=top)
    return SampleBatch(rows=top ** r, seed=int(seed))
