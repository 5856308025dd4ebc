"""The package's quadrature, golden-section polish and sin_asym root against
the scipy routines they stand in for.

``quad01`` must agree with ``scipy.integrate.quad`` to 1e-12 at the same
points and tolerances, ``_refine_extremum`` must give the bits of
``scipy.optimize.minimize_scalar(method="golden")``, and the sin_asym root
must be Brent's double. scipy is the reference here only: the package loads
neither scipy module.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar

from sarmanov import numerics
from sarmanov.copula import _transform_generic
from sarmanov.kernels import CATALOG_IDS, DEFAULT_PARAMS, catalog_lookup, sin_asym_slope_root
from sarmanov.numerics import QUAD_NODES, QUAD_TOL, REFINE_XTOL, SLOPE_GRID, quad01

POWERS = range(2, 7)


@pytest.fixture(scope="module")
def transforms():
    """Generic r-th power transforms of every catalog row (the closed-form
    families too), as ``transform_kernel`` builds them for other rows."""
    return {(name, r): _transform_generic(catalog_lookup(name, DEFAULT_PARAMS.get(name, {})), r)
            for name in CATALOG_IDS for r in POWERS}


def scipy_quad01(f, breakpoints=(), tol=QUAD_TOL):
    """The QUADPACK call quad01 made before it was written in numpy."""
    pts = sorted(p for p in breakpoints if 0.0 < p < 1.0)
    return quad(lambda x: float(f(x)), 0.0, 1.0, points=pts or None,
                epsabs=tol, epsrel=tol, limit=200)[0]


def scipy_refine(f, lo, mid, hi, maximize):
    """The golden polish _refine_extremum made through scipy."""
    sign = -1.0 if maximize else 1.0
    fm = sign * float(f(mid))
    if not (fm < sign * float(f(lo)) and fm < sign * float(f(hi))):
        return float(f(mid))
    res = minimize_scalar(lambda x: sign * float(f(x)), bracket=(lo, mid, hi), method="golden",
                          options={"xtol": REFINE_XTOL})
    x = min(max(float(res.x), lo), hi)
    cand, grid = float(f(x)), float(f(mid))
    return max(cand, grid) if maximize else min(cand, grid)


def default_kernel(name):
    return catalog_lookup(name, DEFAULT_PARAMS.get(name, {}))


class TestQuadrature:
    @pytest.mark.parametrize("name", CATALOG_IDS)
    def test_catalog_g_and_phi(self, name):
        k = default_kernel(name)
        for f in (k.g, k.phi):
            assert abs(quad01(f, k.breakpoints) - scipy_quad01(f, k.breakpoints)) <= 1e-12

    def test_transforms(self, transforms):
        # custom_kernel integrates a transform's g_t with no breakpoints
        for (name, r), t in transforms.items():
            assert abs(quad01(t.g) - scipy_quad01(t.g)) <= 1e-12, (name, r)

    def test_kink_without_breakpoints(self, transforms):
        # checkerboard^<2> is x min(1, 1/x^2 - 1): its kink at 2^-1/2 is no panel edge
        g = transforms["checkerboard", 2].g
        x = np.linspace(0.125, 1.0, 8)
        np.testing.assert_allclose(g(x), x * np.minimum(1.0, 1.0 / x ** 2 - 1.0), rtol=1e-15)
        exact = math.log(2.0) / 2.0  # 1/4 from x on [0, 2^-1/2], ln(2)/2 - 1/4 from 1/x - x after
        assert abs(quad01(g) - exact) <= 1e-13
        assert abs(quad01(g) - scipy_quad01(g)) <= 1e-12

    def test_breakpoints_are_panel_edges(self):
        calls = []

        def step(x):
            calls.append(x.size)
            return np.where(x <= 0.3, 1.0, -2.0)
        assert quad01(step, [0.3, 0.3, 0.0, 1.5]) == pytest.approx(0.3 - 2 * 0.7, abs=1e-15)
        assert calls == [2 * 3 * QUAD_NODES]  # one round: each panel and its halves

    def test_panel_limit(self, monkeypatch):
        # a jump at 1/3 is never a panel edge, so the panel there is never accepted
        calls = []

        def jump(x):
            calls.append(x.size // (3 * QUAD_NODES))
            return np.where(x < 1 / 3, 1.0, 0.0)
        monkeypatch.setattr(numerics, "QUAD_PANELS", 6)
        assert quad01(jump) == pytest.approx(1 / 3, abs=2 ** -5)
        # each round keeps the half without the jump and halves the other,
        # until a sixth halving would make 7 panels
        assert calls == [1, 2, 2, 2, 2, 2]


class TestGoldenPolish:
    @staticmethod
    def brackets(f):
        """(lo, mid, hi, maximize) around the grid extremes of f on uniform
        grids, coarse ones included so that the polish takes many steps."""
        for size in (SLOPE_GRID, 2001, 101):
            xs = np.linspace(0.0, 1.0, size)
            vals = np.asarray(f(xs), dtype=float)
            for maximize, i in ((True, np.argmax(vals)), (False, np.argmin(vals))):
                if 0 < i < size - 1:
                    yield xs[i - 1], xs[i], xs[i + 1], maximize

    def check(self, f):
        polished = 0
        for lo, mid, hi, maximize in self.brackets(f):
            got = numerics._refine_extremum(f, lo, mid, hi, maximize)
            assert got == scipy_refine(f, lo, mid, hi, maximize)
            polished += got != float(f(mid))
        return polished

    def test_catalog_phi(self):
        assert sum(self.check(default_kernel(name).phi) for name in CATALOG_IDS) >= 20

    def test_transforms(self, transforms):
        assert sum(self.check(t.phi) for t in transforms.values()) >= 200


def test_sin_asym_root_is_brents_double():
    ref = brentq(lambda y: y * math.tan(y) - 2.0, 1e-12, math.pi / 2 - 1e-9, xtol=1e-14)
    assert sin_asym_slope_root() == ref
