"""Differential checks on random laws: independent routes must agree.

Each example draws d in 2..5 and a latent law (a full pmf that may have
negative entries, an exchangeable sum law, or the comonotone coupling).
Every margin is the power-type calibrated pair F0 = x^(1/(1-pi)) whose pi
matches the law, so any law can be assembled into a copula.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sarmanov.bernoulli import ExchangeableSumSpec, FullPmfSpec, comonotone
from sarmanov.calibration import explicit_pair
from sarmanov.copula import SarmanovCopula, d_increasing_oracle
from sarmanov.measures import orthant_rho

ORACLE_GRID = {2: 16, 3: 8}


def power_pair(pi: float):
    e = 1.0 / (1.0 - pi)
    F0 = lambda x: np.asarray(x, float) ** e  # noqa: E731
    F1 = lambda x: (np.asarray(x, float) - (1.0 - pi) * np.asarray(x, float) ** e) / pi  # noqa: E731
    return explicit_pair(F0, F1, pi)


def weights(draw, size: int) -> np.ndarray:
    raw = np.array(draw(st.lists(st.floats(-0.1, 1.0), min_size=size, max_size=size)))
    assume(raw.sum() > 0.5)
    return raw / raw.sum()


@st.composite
def copulas(draw, kinds=("full_pmf", "exchangeable", "comonotone"), max_d=5):
    d = draw(st.integers(2, max_d))
    kind = draw(st.sampled_from(kinds))
    if kind == "comonotone":
        law = comonotone(draw(st.lists(st.floats(0.1, 0.9), min_size=d, max_size=d)))
    else:
        try:
            law = FullPmfSpec(weights(draw, 1 << d)) if kind == "full_pmf" else (
                ExchangeableSumSpec(weights(draw, d + 1)))
        except ValueError:  # margins outside (0, 1)
            assume(False)
        assume(np.all((law.pi > 0.1) & (law.pi < 0.9)))
    return SarmanovCopula(tuple(power_pair(float(p)) for p in law.pi), law)


def points(draw, d: int) -> np.ndarray:
    flat = draw(st.lists(st.floats(0.0, 1.0), min_size=3 * d, max_size=3 * d))
    return np.array(flat).reshape(3, d)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_expansion_cdf_equals_mixture_oracle(data):
    c = data.draw(copulas())
    pts = points(data.draw, c.d)
    for pt, value in zip(pts, c.cdf(pts)):
        assert abs(value - c.mixture_cdf_oracle(pt)) <= 1e-12


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_exchangeable_hook_equals_full_table(data):
    # the O(d^2) recurrence against the generic contraction of the same law
    c = data.draw(copulas(kinds=("exchangeable",)))
    table = SarmanovCopula(c.margins, FullPmfSpec(c.bern.pmf_table()))
    pts = points(data.draw, c.d)
    assert np.max(np.abs(c.cdf(pts) - table.cdf(pts))) <= 1e-12
    assert np.max(np.abs(np.subtract(orthant_rho(c), orthant_rho(table)))) <= 1e-12


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_certificate_agrees_with_oracle(data):
    # a passed certificate means a d-increasing cdf, so the oracle passes;
    # equivalently, an oracle failure implies a failed certificate
    c = data.draw(copulas(max_d=3))
    report = d_increasing_oracle(c.cdf, c.d, ORACLE_GRID[c.d])
    assert report.passed or not c.bern.admissibility_check().passed
