"""Output checks, run after an op's timer stops.

None of them compares bytes or hashes of the output, so a legitimate
algorithm change (a faster quantile route, another CSV writer) still passes
as long as the results satisfy the documented contracts:

* leftmost-quantile rule: each sampled coordinate u with index I and level q
  (stream 0 for indices, stream m for margin m) has F_[I](u) >= q - 1e-12
  and F_[I](u - 1e-9) < q;
* CSV shape, value range and sidecar fields;
* certificate verdict equals oracle verdict, refused configs are refused;
* the subset-expansion cdf matches the 2^d mixture oracle and the Frechet
  bounds;
* analytic and empirical dependence measures agree within |z| <= 6.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

Q_TOL = 1e-12
U_STEP = 1e-9
CDF_TOL = 1e-12
Z_MAX = 6.0
SUBSAMPLE = 256
MIXTURE_POINTS = 3


class CheckFailed(Exception):
    """An op's output broke one of the documented contracts."""


def _require(cond, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def rows_shape(rows: np.ndarray, n: int, model) -> None:
    d = getattr(model, "d", 2)  # a powered copula is bivariate
    _require(rows.shape == (n, d), f"rows have shape {rows.shape}, expected {(n, d)}")
    _require(bool(np.all((rows >= 0.0) & (rows <= 1.0))), "a sampled value lies outside [0, 1]")


def _levels(sm, copula, n: int, seed: int):
    """Index states and uniform levels of the documented stream protocol."""
    from sarmanov.rng import stream

    idx = sm.sample_indices(copula.bern, n, seed)
    q = np.stack([stream(seed, m + 1).random(n) for m in range(copula.d)], axis=1)
    return idx, q


def _F(pair, which: np.ndarray, u: np.ndarray) -> np.ndarray:
    out = np.empty_like(u)
    one = which.astype(bool)
    out[~one] = np.asarray(pair.F0(u[~one]), dtype=float)
    out[one] = np.asarray(pair.F1(u[one]), dtype=float)
    return out


def quantile_residuals(sm, model, rows: np.ndarray, seed: int, k: int = SUBSAMPLE) -> None:
    """Leftmost-quantile check on ``k`` seeded rows.

    Powered rows are block maxima to the r-th power: v = row^(1/r) must bound
    every base draw of its block from above (F(v) >= q) and be attained by
    one of them (F(v - 1e-9) < q).
    """
    n = rows.shape[0]
    picks = np.random.default_rng(seed).choice(n, size=min(k, n), replace=False)
    powered = isinstance(model, sm.PoweredCopula)
    base, r = (model.base, model.r) if powered else (model, 1)
    idx, q = _levels(sm, base, n * r, seed)
    for m, pair in enumerate(base.margins):
        v = rows[picks, m] ** (1.0 / r) if powered else rows[picks, m]
        block = (picks[:, None] * r + np.arange(r)[None, :]).reshape(-1)
        vv = np.repeat(v, r)
        qb, ib = q[block, m], idx[block, m]
        upper = _F(pair, ib, vv) >= qb - Q_TOL
        below = (_F(pair, ib, np.maximum(vv - U_STEP, 0.0)) < qb).reshape(-1, r)
        _require(bool(np.all(upper)),
                 f"margin {m + 1}: F(u) < q - {Q_TOL} (u is below the quantile)")
        _require(bool(np.all(below.any(axis=1))),
                 f"margin {m + 1}: F(u - {U_STEP}) >= q (u is not the leftmost quantile)")


def csv_output(path: str, cfg: dict, seed: int) -> np.ndarray:
    """Header, row and column counts, value range and the sidecar fields."""
    d, n = cfg["d"], cfg["n"]
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        _require(header == ",".join(f"u{m + 1}" for m in range(d)), f"bad CSV header {header!r}")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    _require(rows.shape == (n, d), f"CSV holds {rows.shape}, expected {(n, d)}")
    _require(bool(np.all((rows >= 0.0) & (rows <= 1.0))), "a CSV value lies outside [0, 1]")
    with open(path + ".meta.json") as fh:
        meta = json.load(fh)
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    expect = {"n": n, "seed": seed, "d": d,
              "config_hash": hashlib.sha256(blob.encode()).hexdigest()[:16]}
    for key, val in expect.items():
        _require(meta.get(key) == val, f"sidecar {key}={meta.get(key)!r}, expected {val!r}")
    return rows


def study(sm, expect_refused: bool, out: dict) -> None:
    cert, oracle = out["cert"], out["oracle"]
    if expect_refused:
        _require(out["refused"] is not None, "an inadmissible config was not refused")
        if cert is not None:
            _require(not cert.passed, "an inadmissible config was certified valid")
    else:
        _require(out["refused"] is None, f"an admissible config was refused at {out['refused']}")
    if oracle is not None:
        verdict = True if cert is None else cert.passed  # powered: built means admissible
        _require(oracle.passed == verdict,
                 f"certificate says {verdict}, oracle says {oracle.passed} "
                 f"(min increment {oracle.min_increment:.3g})")
    if out["batch"] is None:
        return
    model, rows = out["model"], out["batch"].rows
    rows_shape(rows, out["cfg"]["n"], model)
    quantile_residuals(sm, model, rows, out["batch"].seed)
    cdf = np.asarray(out["cdf"], dtype=float)
    d = rows.shape[1]
    lower = np.maximum(rows.sum(axis=1) - (d - 1), 0.0)
    upper = rows.min(axis=1)
    _require(bool(np.all((cdf >= lower - CDF_TOL) & (cdf <= upper + CDF_TOL))),
             "cdf leaves the Frechet bounds at a sampled point")
    if not isinstance(model, sm.PoweredCopula):
        for j in range(MIXTURE_POINTS):
            ref = model.mixture_cdf_oracle(rows[j])
            _require(abs(cdf[j] - ref) <= CDF_TOL,
                     f"expansion cdf {cdf[j]!r} differs from the mixture oracle {ref!r}")
    for key, z in out["report"].z.items():
        _require(abs(z) <= Z_MAX, f"measure {key}: |z| = {abs(z):.2f} > {Z_MAX}")
