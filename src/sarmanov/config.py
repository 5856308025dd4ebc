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
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import numpy as np

from . import bernoulli as bn
from .calibration import CalibratedPair, calibrate_from_kernel, explicit_pair
from .copula import PoweredCopula, SarmanovCopula, build_powered
from .errors import ConfigError, DimensionTooLarge, SarmanovError
from .kernels import catalog_lookup

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


def _interp_cdf(u_grid: list, values: list):
    xg, yg = np.asarray(u_grid, dtype=float), np.asarray(values, dtype=float)
    return lambda u: np.interp(np.asarray(u, dtype=float), xg, yg)


def _margin(i: int, m) -> tuple:
    """Margin ``i`` as build needs it: (catalog id, params) for a kernel
    margin, (F0, F1, pi) for an explicit pair."""
    if not isinstance(m, dict) or len(m) != 1 or next(iter(m)) not in ("kernel", "pair"):
        raise ConfigError(f"margin {i + 1} must be {{'kernel': ...}} or {{'pair': ...}}")
    (key, body), = m.items()
    if not isinstance(body, dict):
        raise ConfigError(f"margin {i + 1} body must be an object")
    if key == "kernel":
        _reject_unknown(body, {"id", "params"}, f"margin {i + 1} kernel")
        if not isinstance(body.get("id"), str):
            raise ConfigError(f"margin {i + 1} kernel needs a string 'id'")
        params = body.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError(f"margin {i + 1} kernel params must be an object")
        for name, val in params.items():
            _number(val, f"margin {i + 1} kernel parameter {name!r}")
        return body["id"], params
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
    return _interp_cdf(u, body["F0"]), _interp_cdf(u, body["F1"]), float(body["pi"])


def _is_kernel(margin: tuple) -> bool:
    return len(margin) == 2


def _bernoulli(bern, d: int) -> Callable[[list[CalibratedPair]], bn.BernoulliSpec]:
    """The law of a d >= 3 ``bernoulli`` section as a function of the
    margins: every rule the section alone decides is checked here, and no
    2^d table exists before the law is built."""
    if not isinstance(bern, dict) or "variant" not in bern:
        raise ConfigError("bernoulli section needs a 'variant'")
    variant = bern["variant"]
    if variant == "full_pmf":
        _reject_unknown(bern, {"variant", "pmf"}, "bernoulli")
        if not isinstance(bern.get("pmf"), dict):
            raise ConfigError("full_pmf needs a {bitstring: probability} object")
        if d > bn.MAX_FULL_PMF_D:
            raise DimensionTooLarge(f"full pmf supports d <= {bn.MAX_FULL_PMF_D}, got {d}")
        pmf = {}
        for bits, p in bern["pmf"].items():
            _number(p, f"pmf entry {bits!r}")
            if len(bits) != d or set(bits) - {"0", "1"}:
                raise ConfigError(f"bad state bitstring {bits!r}")
            pmf[int(bits[::-1], 2)] = float(p)  # margin 1 is the leftmost bit

        def full_pmf(pairs):
            table = np.zeros(1 << d)
            table[list(pmf)] = list(pmf.values())
            return bn.FullPmfSpec(table)

        return full_pmf
    if variant == "exchangeable_sum":
        _reject_unknown(bern, {"variant", "w"}, "bernoulli")
        w = _numbers(bern.get("w"), "exchangeable_sum w")
        if len(w) != d + 1:
            raise ConfigError(f"exchangeable_sum needs w of length d+1 = {d + 1}")
        return lambda pairs: bn.ExchangeableSumSpec(w)
    if variant != "named":
        raise ConfigError(f"unknown bernoulli variant {variant!r}")
    _reject_unknown(bern, {"variant", "name"}, "bernoulli")
    name = bern.get("name")
    if name not in ("independent", "comonotone", "end", "epd"):
        raise ConfigError("named variant must be independent/comonotone/end/epd")
    if name == "end" and d != 3:
        raise ConfigError("the end coupling is provided for d = 3 only")
    # end and epd have margins 1/2, which the copula checks against the kernels' pi
    named = {"independent": bn.independent, "comonotone": bn.comonotone,
             "end": lambda pis: bn.end3(), "epd": lambda pis: bn.epd(d)}[name]
    return lambda pairs: named([p.pi for p in pairs])


@dataclass
class CopulaConfig:
    """Parsed and validated configuration; ``build`` assembles the model.

    ``margins`` holds each margin as ``_margin`` returns it; ``law`` maps the
    calibrated margins to the latent Bernoulli law (at d = 2, the law of
    ``a`` or ``theta``); ``r`` is the power of a powered config, whose ``a``
    is kept too.
    """

    d: int
    margins: list[tuple]
    law: Callable[[list[CalibratedPair]], bn.BernoulliSpec]
    a: float | None
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
        margins = [_margin(i, m) for i, m in enumerate(margins)]
        kernels_only = all(_is_kernel(m) for m in margins)

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
            if a is not None and not kernels_only:
                raise ConfigError("'a' needs kernel margins; give 'theta' for explicit pairs")

            def law(pairs, a=a, theta=theta):
                if a is not None:
                    theta = a / (pairs[0].base_kernel.Lambda * pairs[1].base_kernel.Lambda)
                return bn.BivariateThetaSpec(pairs[0].pi, pairs[1].pi, float(theta))
        else:
            if a is not None or theta is not None:
                raise ConfigError("a/theta are bivariate parameters; use a bernoulli section")
            if bern is None:
                raise ConfigError("d >= 3 requires a bernoulli section")
            if r is not None:
                raise ConfigError("powers apply to bivariate copulas only")
            law = _bernoulli(bern, d)
        if r is not None:
            _integer(r, "r", low=1)
            if a is None:
                raise ConfigError("powered configurations take 'a' (the multiplicative scalar)")
            if not kernels_only:
                raise ConfigError("powered configurations need kernel margins")
        n = _integer(obj.get("n", 1000), "n", low=1)
        seed = _integer(obj.get("seed", 0), "seed", low=0)
        return cls(d=d, margins=margins, law=law, a=None if a is None else float(a),
                   r=r, n=n, seed=seed, raw=obj)

    @classmethod
    def from_json(cls, text: str) -> "CopulaConfig":
        try:
            obj = json.loads(text, parse_constant=_reject_constant)
        except json.JSONDecodeError as e:
            raise ConfigError(f"invalid JSON: {e}") from e
        return cls.from_dict(obj)

    # -- assembly ------------------------------------------------------------

    def margin_pairs(self) -> list[CalibratedPair]:
        return [calibrate_from_kernel(catalog_lookup(*m)) if _is_kernel(m) else explicit_pair(*m)
                for m in self.margins]

    def copula(self) -> SarmanovCopula:
        """The unpowered copula of the margins and the law: for a powered
        config, the one its base kernels give at r = 1."""
        pairs = self.margin_pairs()
        try:
            return SarmanovCopula(tuple(pairs), self.law(pairs))
        except SarmanovError:
            raise
        except ValueError as e:  # a law that does not sum to 1 or disagrees with its margins
            raise ConfigError(str(e)) from e

    def build(self) -> SarmanovCopula | PoweredCopula:
        if self.r is not None:
            k1, k2 = (catalog_lookup(*m) for m in self.margins)
            return build_powered(k1, k2, self.a, self.r)
        return self.copula()

    def canonical_hash(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]
