"""Versioned JSON configuration for copula construction.

Schema ``sarmanov-config/1``::

    {
      "schema": "sarmanov-config/1",
      "d": 2,
      "margins": [
        {"kernel": {"id": "fgm"}},
        {"kernel": {"id": "hki", "params": {"p": 2}}}
        // or {"pair": {"pi": 0.5, "u": [...], "F0": [...], "F1": [...]}}
      ],
      "a": 1.0,          // d = 2: exactly one of "a" (kernel margins only)
      "theta": 1.0,      //        or "theta"
      "r": 2,            // optional integer power, d = 2 with "a" only
      "bernoulli": {     // required for d >= 3, forbidden for d = 2
        "variant": "exchangeable_sum", "w": [0.5, 0, 0, 0.5]
        // or {"variant": "named", "name": "independent|comonotone|end|epd"}
        // or {"variant": "full_pmf", "pmf": {"010": 0.25, ...}}
      },
      "n": 1000,
      "seed": 0
    }

Unknown keys are rejected everywhere so golden files stay reproducible.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from . import bernoulli as bn
from .calibration import CalibratedPair, calibrate_from_kernel, explicit_pair
from .copula import PoweredCopula, SarmanovCopula, build_powered
from .errors import ConfigError, SarmanovError
from .kernels import Kernel, catalog_lookup

SCHEMA = "sarmanov-config/1"

_TOP_KEYS = {"schema", "d", "margins", "bernoulli", "a", "theta", "r", "n", "seed"}


def _reject_unknown(obj: dict, allowed: set[str], where: str) -> None:
    extra = set(obj) - allowed
    if extra:
        raise ConfigError(f"unknown key(s) {sorted(extra)} in {where}")


def _number(x, where: str):
    """``x`` itself when it is a finite JSON number; bools, strings, NaN and
    infinities are rejected."""
    try:
        if not isinstance(x, bool) and math.isfinite(x):
            return x
    except (TypeError, OverflowError):  # non-numbers; ints beyond float range
        pass
    raise ConfigError(f"{where} must be a finite number, got {x!r}")


def _numbers(xs, where: str) -> list:
    if not isinstance(xs, list):
        raise ConfigError(f"{where} must be a list of numbers")
    return [_number(x, f"{where} entry") for x in xs]


def _integer(x, where: str, low: int | None = None) -> int:
    """``x`` itself when it is a JSON integer (not a bool) of at least ``low``."""
    if isinstance(x, bool) or not isinstance(x, int) or (low is not None and x < low):
        bound = "" if low is None else f" >= {low}"
        raise ConfigError(f"{where} must be an integer{bound}, got {x!r}")
    return x


def _reject_constant(name: str):
    # json.loads accepts the non-standard literals NaN, Infinity, -Infinity
    raise ConfigError(f"non-finite number {name} is not allowed")


def _interp_cdf(u_grid: np.ndarray, values: np.ndarray):
    return lambda u, xg=u_grid, yg=values: np.interp(np.asarray(u, dtype=float), xg, yg)


@dataclass
class CopulaConfig:
    """Parsed and validated configuration; ``build`` assembles the model."""

    d: int
    margin_specs: list[dict]
    bernoulli: dict | None
    a: float | None
    theta: float | None
    r: int | None
    n: int
    seed: int
    raw: dict

    @classmethod
    def from_dict(cls, obj: Any) -> "CopulaConfig":
        if not isinstance(obj, dict):
            raise ConfigError("configuration must be a JSON object")
        _reject_unknown(obj, _TOP_KEYS, "top level")
        if obj.get("schema") != SCHEMA:
            raise ConfigError(f"schema must be {SCHEMA!r}, got {obj.get('schema')!r}")
        d = _integer(obj.get("d"), "d", low=2)
        margins = obj.get("margins")
        if not isinstance(margins, list) or len(margins) != d:
            raise ConfigError(f"margins must be a list of exactly {d} entries")
        for i, m in enumerate(margins):
            if not isinstance(m, dict) or len(m) != 1 or next(iter(m)) not in ("kernel", "pair"):
                raise ConfigError(f"margin {i + 1} must be {{'kernel': ...}} or {{'pair': ...}}")
            key = next(iter(m))
            body = m[key]
            if not isinstance(body, dict):
                raise ConfigError(f"margin {i + 1} body must be an object")
            if key == "kernel":
                _reject_unknown(body, {"id", "params"}, f"margin {i + 1} kernel")
                if not isinstance(body.get("id"), str):
                    raise ConfigError(f"margin {i + 1} kernel needs a string 'id'")
                params = body.get("params", {})
                if not isinstance(params, dict):
                    raise ConfigError(f"margin {i + 1} kernel params must be an object")
                for key, val in params.items():
                    _number(val, f"margin {i + 1} kernel parameter {key!r}")
            else:
                _reject_unknown(body, {"pi", "u", "F0", "F1"}, f"margin {i + 1} pair")
                for fld in ("pi", "u", "F0", "F1"):
                    if fld not in body:
                        raise ConfigError(f"margin {i + 1} pair needs '{fld}'")
                    check = _number if fld == "pi" else _numbers
                    check(body[fld], f"margin {i + 1} pair {fld}")
                u = body["u"]
                if not len(u) == len(body["F0"]) == len(body["F1"]) or len(u) < 2:
                    raise ConfigError(f"margin {i + 1} pair needs u, F0, F1 of one length >= 2")
                if any(x >= y for x, y in zip(u, u[1:])):  # np.interp needs it
                    raise ConfigError(f"margin {i + 1} pair u must be strictly increasing")

        a, theta, r = obj.get("a"), obj.get("theta"), obj.get("r")
        for name, val in (("a", a), ("theta", theta)):
            if val is not None:
                _number(val, name)
        bern = obj.get("bernoulli")
        if d == 2:
            if (a is None) == (theta is None):
                raise ConfigError("d = 2 requires exactly one of 'a' or 'theta'")
            if bern is not None:
                raise ConfigError("d = 2 dependence is given by a/theta, not a bernoulli section")
        else:
            if a is not None or theta is not None:
                raise ConfigError("a/theta are bivariate parameters; use a bernoulli section")
            if bern is None:
                raise ConfigError("d >= 3 requires a bernoulli section")
            if r is not None:
                raise ConfigError("powers apply to bivariate copulas only")
        if r is not None:
            _integer(r, "r", low=1)
            if a is None:
                raise ConfigError("powered configurations take 'a' (the multiplicative scalar)")
        if bern is not None:
            if not isinstance(bern, dict) or "variant" not in bern:
                raise ConfigError("bernoulli section needs a 'variant'")
            variant = bern["variant"]
            if variant == "full_pmf":
                _reject_unknown(bern, {"variant", "pmf"}, "bernoulli")
                if not isinstance(bern.get("pmf"), dict):
                    raise ConfigError("full_pmf needs a {bitstring: probability} object")
                for bits, p in bern["pmf"].items():
                    _number(p, f"pmf entry {bits!r}")
            elif variant == "exchangeable_sum":
                _reject_unknown(bern, {"variant", "w"}, "bernoulli")
                w = _numbers(bern.get("w"), "exchangeable_sum w")
                if len(w) != d + 1:
                    raise ConfigError(f"exchangeable_sum needs w of length d+1 = {d + 1}")
            elif variant == "named":
                _reject_unknown(bern, {"variant", "name"}, "bernoulli")
                if bern.get("name") not in ("independent", "comonotone", "end", "epd"):
                    raise ConfigError("named variant must be independent/comonotone/end/epd")
            else:
                raise ConfigError(f"unknown bernoulli variant {variant!r}")

        n = _integer(obj.get("n", 1000), "n", low=1)
        seed = _integer(obj.get("seed", 0), "seed", low=0)
        return cls(
            d=d, margin_specs=margins, bernoulli=bern,
            a=None if a is None else float(a),
            theta=None if theta is None else float(theta),
            r=r, n=n, seed=seed, raw=obj,
        )

    @classmethod
    def from_json(cls, text: str) -> "CopulaConfig":
        try:
            obj = json.loads(text, parse_constant=_reject_constant)
        except json.JSONDecodeError as e:
            raise ConfigError(f"invalid JSON: {e}") from e
        return cls.from_dict(obj)

    # -- assembly ------------------------------------------------------------

    def margin_kernels(self) -> list[Kernel | None]:
        out = []
        for m in self.margin_specs:
            if "kernel" in m:
                body = m["kernel"]
                out.append(catalog_lookup(body["id"], body.get("params", {})))
            else:
                out.append(None)
        return out

    def margin_pairs(self) -> list[CalibratedPair]:
        pairs = []
        for m, k in zip(self.margin_specs, self.margin_kernels()):
            if k is not None:
                pairs.append(calibrate_from_kernel(k))
            else:
                body = m["pair"]
                u = np.asarray(body["u"], dtype=float)
                pairs.append(explicit_pair(
                    _interp_cdf(u, np.asarray(body["F0"], dtype=float)),
                    _interp_cdf(u, np.asarray(body["F1"], dtype=float)),
                    float(body["pi"]),
                ))
        return pairs

    def build_bernoulli(self, pairs: list[CalibratedPair]) -> bn.BernoulliSpec:
        pis = np.array([p.pi for p in pairs])
        bern = self.bernoulli
        if self.d == 2:
            theta = self.theta
            if theta is None:
                ks = [p.base_kernel for p in pairs]
                if any(k is None for k in ks):
                    raise ConfigError("'a' needs kernel margins; give 'theta' for explicit pairs")
                theta = self.a / (ks[0].Lambda * ks[1].Lambda)
            return bn.BivariateThetaSpec(pis[0], pis[1], theta)
        variant = bern["variant"]
        if variant == "full_pmf":
            pmf = np.zeros(1 << self.d)
            for bits, p in bern["pmf"].items():
                if len(bits) != self.d or set(bits) - {"0", "1"}:
                    raise ConfigError(f"bad state bitstring {bits!r}")
                state = sum(1 << m for m, ch in enumerate(bits) if ch == "1")
                pmf[state] = float(p)
            return bn.FullPmfSpec(pmf)
        if variant == "exchangeable_sum":
            return bn.ExchangeableSumSpec(np.asarray(bern["w"], dtype=float))
        name = bern["name"]
        if name == "independent":
            return bn.independent(pis)
        if name == "comonotone":
            return bn.comonotone(pis)
        if np.max(np.abs(pis - 0.5)) > 1e-9:
            raise ConfigError(f"{name} coupling requires all margin pis equal to 1/2, got {pis}")
        if name == "end":
            if self.d != 3:
                raise ConfigError("the end coupling is provided for d = 3 only")
            return bn.end3()
        return bn.epd(self.d)

    def build(self) -> SarmanovCopula | PoweredCopula:
        if self.r is not None:
            ks = self.margin_kernels()
            if any(k is None for k in ks):
                raise ConfigError("powered configurations need kernel margins")
            return build_powered(ks[0], ks[1], self.a, self.r)
        pairs = self.margin_pairs()
        try:
            return SarmanovCopula(tuple(pairs), self.build_bernoulli(pairs))
        except SarmanovError:
            raise
        except ValueError as e:  # a law that does not sum to 1 or disagrees with its margins
            raise ConfigError(str(e)) from e

    def canonical_hash(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]
