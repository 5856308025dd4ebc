"""Command-line surface.

Subcommands: catalog, validate, bounds, sample, measure, certify.
Exit codes: 0 valid/ok, 1 inadmissible or oracle violation, 2 usage or
parse error, 3 internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from . import __version__, measures
from .bernoulli import state_bitstrings, theta_range_bivariate
from .config import SCHEMA, CopulaConfig
from .copula import (
    PoweredCopula,
    SarmanovCopula,
    admissible_a_interval,
    d_increasing_oracle,
)
from .errors import ConfigError, NotAdmissible, SarmanovError
from .kernels import CATALOG_IDS, DEFAULT_PARAMS, catalog_lookup
from .sampling import SAMPLER_VERSION, sample, sample_powered


CSV_BLOCK_ROWS = 1 << 14  # values formatted per block: the rows of a block at d = 1

# "%.17g" of x in [1e-4, 1) is "0." then -E-1 zeros then the 17 digits of
# D = round(x 10^(16-E)) less their trailing zeros, E = floor(log10 x). A value
# is laid out in a _ROW-byte row: the leading zeros end at byte 6, the first
# digit is byte 7 and the other 16 are four aligned 4-byte groups from _DIGITS4.
_ROW = 28
_U64 = np.uint64
_POW5 = np.array([5 ** p for p in range(17, 21)], dtype=_U64)  # 5^(16-E), E = -1..-4
_QUAD = np.empty((10, 10, 10, 10, 4), np.uint8)  # "0000".."9999", axis k = digit k
for _k in range(4):
    _QUAD[..., _k] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - _k))
_DIGITS4 = _QUAD.view(np.uint32).reshape(-1)
# trailing zeros of abcd: [d = 0] (1 + [c = 0] (1 + [b = 0] (1 + [a = 0])))
_ZERO = np.arange(10) == 0
_TRAILING4 = (_ZERO * (1 + _ZERO[:, None] * (1 + _ZERO[:, None, None] * (
    1 + _ZERO[:, None, None, None])))).reshape(-1)


def _fmt12(x: float) -> str:
    return f"{x:.12g}"


@contextlib.contextmanager
def _opened(out_path: str | None):
    """The --out file opened for writing, or stdout when there is none. A
    file that this call creates is removed again when the block raises."""
    created = bool(out_path) and not os.path.exists(out_path)
    try:
        opened = open(out_path, "w") if out_path else contextlib.nullcontext(sys.stdout)
    except OSError as e:
        raise ConfigError(f"cannot write {out_path}: {e}") from e
    try:
        with opened as fh:
            yield fh
    except BaseException:
        if created:
            os.remove(out_path)
        raise


def _write(text: str, out_path: str | None) -> None:
    with _opened(out_path) as fh:
        fh.write(text)


def _decimal17(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(D, E) with D = round-half-even(x 10^(16-E)), 10^16 <= D < 10^17, for
    x in [1e-4, 1): the digits of ``"%.17g" % x``, computed exactly."""
    # E = floor(log10 x): each double 1e-k lies just above the real 10^-k
    E = (x >= 1e-3).astype(np.int64) + (x >= 1e-2) + (x >= 1e-1) - 4
    bits = x.view(_U64)
    M = (bits & _U64((1 << 52) - 1)) | _U64(1 << 52)
    b = (bits >> _U64(52)).astype(np.int64)  # x = M 2^(b - 1075)
    # x 10^(16-E) = M 5^(16-E) / 2^s with s in [36, 46]; the product has at
    # most 100 bits, so it is formed in two 64-bit limbs from 32-bit halves
    s = (E + 1059 - b).astype(_U64)
    F = _POW5[-1 - E]
    m0, m1 = M & _U64(0xFFFFFFFF), M >> _U64(32)
    f0, f1 = F & _U64(0xFFFFFFFF), F >> _U64(32)
    low = m0 * f0
    mid = (low >> _U64(32)) + m0 * f1 + m1 * f0
    lo = (mid << _U64(32)) | (low & _U64(0xFFFFFFFF))
    hi = m1 * f1 + (mid >> _U64(32))
    D = (hi << (_U64(64) - s)) | (lo >> s)
    half = _U64(1) << (s - _U64(1))
    rest = lo & (half + half - _U64(1))
    D += (rest > half) | ((rest == half) & (D & _U64(1) == 1))
    # no double in [1e-4, 1) lies within half a 17th digit below a power of
    # ten (they are at least an ulp, 1e-16 relative, away), so D < 10^17
    return D, E


def _csv_bytes(flat: np.ndarray, d: int) -> bytes:
    """``"%.17g" % x`` of every value, joined by "," and by "\\n" after every
    d-th: values in [1e-4, 1) from their exact digits, the rest (0, 1,
    anything below 1e-4 or above 1, negative or not finite) by ``%``."""
    n = flat.size
    fast = (flat >= 1e-4) & (flat < 1.0)
    D, E = _decimal17(np.where(fast, flat, 0.5))  # 0.5 holds the place of the rest
    buf = np.empty((n, _ROW), np.uint8)
    buf[:, :7] = ord("0")
    head, rest = np.divmod(D, _U64(10 ** 16))
    buf[:, 7] = head + ord("0")
    high, low = np.divmod(rest, _U64(10 ** 8))
    quads = np.divmod(high, _U64(10 ** 4)) + np.divmod(low, _U64(10 ** 4))  # 4 digits each
    words = buf.view(np.uint32)
    for k, q in enumerate(quads):
        words[:, 2 + k] = _DIGITS4[q]
    zeros, run = _TRAILING4[quads[3]], quads[3] == 0  # the first digit is never 0
    for q in quads[2::-1]:
        zeros += run * _TRAILING4[q]
        run &= q == 0
    rows = np.arange(n)
    start, end = E + 6, 24 - zeros  # the field is buf[row, start:end], then a separator
    buf[rows, start + 1] = ord(".")
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = ["%.17g" % v for v in flat[slow].tolist()]
        size = np.array([len(t) for t in text])
        at = slow * _ROW - np.cumsum(size) + size
        buf.reshape(-1)[np.repeat(at, size) + np.arange(size.sum())] = np.frombuffer(
            "".join(text).encode(), np.uint8)
        start[slow], end[slow] = 0, size
    sep = np.full(n, ord(","), np.uint8)
    sep[d - 1::d] = ord("\n")
    buf[rows, end] = sep
    size = end - start + 1
    index = np.repeat(rows * _ROW + start - np.cumsum(size) + size, size)
    index += np.arange(index.size)
    return buf.reshape(-1)[index].tobytes()


def _write_rows(out, rows) -> None:
    """Write an (n, d) float array as CSV rows of ``%.17g`` values to the
    binary stream ``out``, about CSV_BLOCK_ROWS values per block."""
    flat = np.ascontiguousarray(rows, dtype=np.float64).reshape(-1)
    d = rows.shape[1]
    step = max(1, CSV_BLOCK_ROWS // d) * d
    for start in range(0, flat.size, step):
        out.write(_csv_bytes(flat[start:start + step], d))


def _load_config(path: str) -> CopulaConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    return CopulaConfig.from_json(text)


# --- subcommands --------------------------------------------------------------


def cmd_catalog(args) -> int:
    rows = []
    for name in CATALOG_IDS:
        k = catalog_lookup(name, DEFAULT_PARAMS.get(name, {}))
        rows.append({
            "id": name,
            "params": ";".join(f"{key}={val:g}" for key, val in k.params.items()),
            "kappa": k.kappa, "Lambda": k.Lambda, "lambda": k.lam,
            "sign_constant": k.sign_constant,
        })
    if args.format == "json":
        _write(json.dumps(rows, indent=2) + "\n", args.out)
    else:
        lines = ["id,params,kappa,Lambda,lambda,sign_constant"]
        for r in rows:
            lines.append(
                f"{r['id']},{r['params']},{_fmt12(r['kappa'])},{_fmt12(r['Lambda'])},"
                f"{_fmt12(r['lambda'])},{str(r['sign_constant']).lower()}"
            )
        _write("\n".join(lines) + "\n", args.out)
    return 0


def _certificate_payload(cfg: CopulaConfig, model) -> tuple[dict, bool]:
    powered = isinstance(model, PoweredCopula)
    cert = (model.base if powered else model).bern.admissibility_check()  # the one gate
    if powered:
        payload = {
            "valid": bool(cert.passed), "kind": "powered", "r": model.r, "a": model.a,
            "sufficient_interval": list(model.sufficient_interval), "sufficient_only": True,
            "note": "interval from the transformed kernels; the true range may be wider"
            if cert.passed else f"base law fails nonnegativity: {cert.violations}",
            "pis": [p.pi for p in model.base.margins],
        }
        return payload, bool(cert.passed)
    payload = {
        "valid": bool(cert.passed),
        "kind": model.bern.kind,
        "pis": list(model.bern.pi),
        "violations": [[name, val] for name, val in cert.violations],
        "note": cert.note,
    }
    if cfg.d == 2:
        payload["theta"] = model.theta
        payload["theta_interval"] = list(cert.theta_interval) if cert.theta_interval else None
        ks = [p.base_kernel for p in model.margins]
        if all(k is not None for k in ks):
            payload["a"] = model.a if cfg.a is None else cfg.a  # as given, not via theta
            payload["a_interval"] = list(admissible_a_interval(ks[0], ks[1]))
    return payload, bool(cert.passed)


def _pmf_rows(pmf: np.ndarray, d: int, start: int = 0) -> list[tuple[str, float]]:
    """(state bitstring, probability) of the entries of ``pmf``, a slice of
    a law's table over {0,1}^d that begins at state ``start``."""
    return list(zip(state_bitstrings(np.arange(start, start + pmf.size), d), pmf.tolist()))


def cmd_validate(args) -> int:
    cfg = _load_config(args.config)
    model = cfg.build()
    payload, ok = _certificate_payload(cfg, model)
    if args.format == "csv":
        # pmf table export: one row per latent state, CSV_BLOCK_ROWS states at a time
        if isinstance(model, PoweredCopula):
            raise ConfigError("csv pmf export applies to unpowered laws")
        pmf = model.bern.pmf_table()
        with _opened(args.out) as fh:
            fh.write("state,probability\n")
            for start in range(0, pmf.size, CSV_BLOCK_ROWS):
                rows = _pmf_rows(pmf[start:start + CSV_BLOCK_ROWS], cfg.d, start)
                fh.write("".join(f"{bits},{p:.17g}\n" for bits, p in rows))
    else:
        if not isinstance(model, PoweredCopula) and cfg.d <= 8:
            payload["pmf"] = _pmf_rows(model.bern.pmf_table(), cfg.d)  # json writes each pair as an array
        _write(json.dumps(payload, indent=2) + "\n", args.out)
    return 0 if ok else 1


def cmd_bounds(args) -> int:
    cfg = _load_config(args.config)
    if cfg.d != 2:
        raise ConfigError("bounds reporting is bivariate; use validate for d >= 3")
    model = cfg.copula()  # refuses margins outside the floor, as validate does
    pairs = model.margins
    theta_interval = theta_range_bivariate(pairs[0].pi, pairs[1].pi)
    rho_ends = [measures.spearman_analytic(model, th) for th in theta_interval]
    payload = {
        "pis": [pairs[0].pi, pairs[1].pi],
        "theta_interval": list(theta_interval),
        "rho_interval": [min(rho_ends), max(rho_ends)],
        "rho_global": list(measures.rho_global_bounds().interval),
        "rho_global_attained_by": measures.rho_global_bounds().attained_by,
    }
    ks = [p.base_kernel for p in pairs]
    if all(k is not None for k in ks):
        payload["a_interval"] = list(admissible_a_interval(ks[0], ks[1]))
    _write(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _draw(args):
    """(config, model, batch) with --n/--seed overriding the config's n and seed."""
    cfg = _load_config(args.config)
    for flag, value, low in (("--n", args.n, 1), ("--seed", args.seed, 0)):
        if value is not None and value < low:  # the bounds the config puts on n and seed
            raise ConfigError(f"{flag} must be an integer >= {low}, got {value}")
    model = cfg.build()
    n = args.n if args.n is not None else cfg.n
    seed = args.seed if args.seed is not None else cfg.seed
    draw = sample_powered if isinstance(model, PoweredCopula) else sample
    return cfg, model, draw(model, n, seed)


def cmd_sample(args) -> int:
    # both files are opened before the draw, and removed if it is refused
    sidecar = _opened(args.out + ".meta.json") if args.out else contextlib.nullcontext()
    with _opened(args.out) as fh, sidecar as side:
        cfg, model, batch = _draw(args)
        margins = (model.base if isinstance(model, PoweredCopula) else model).margins
        columns = [f"u{m + 1}" for m in range(batch.d)]
        fh.write(",".join(columns) + "\n")
        fh.flush()  # the header leaves the text layer before the rows
        _write_rows(fh.buffer, batch.rows)
        if side is not None:
            json.dump({
                "schema": SCHEMA,
                "config_hash": cfg.canonical_hash(),
                "n": batch.n, "seed": batch.seed, "d": batch.d,
                "columns": columns,
                # byte identity holds for equal (config, n, seed, sampler, numpy version)
                "sampler": SAMPLER_VERSION,
                "sarmanov_version": __version__, "numpy_version": np.__version__,
                # per margin, [F0, F1]: a closed-form inverse or invert_cdf
                "quantile_routes": [pair.quantile_routes for pair in margins],
            }, side, indent=2)
    return 0


def cmd_measure(args) -> int:
    with _opened(args.out) as fh:  # opened before the draw, and removed if it is refused
        cfg, model, batch = _draw(args)
        analytic_model = model if isinstance(model, SarmanovCopula) else None
        rep = measures.empirical_measures(batch, analytic_model)
        rep.copula_id = cfg.canonical_hash()
        if args.format == "csv":
            lines = ["measure,analytic,empirical,se,z"]
            for key in sorted(set(rep.analytic) | set(rep.empirical)):
                cells = [key] + [
                    "" if src.get(key) is None else f"{src[key]:.12g}"
                    for src in (rep.analytic, rep.empirical, rep.se, rep.z)
                ]
                lines.append(",".join(cells))
            fh.write("\n".join(lines) + "\n")
        else:
            fh.write(json.dumps(rep.to_dict(), indent=2) + "\n")
    return 0


def cmd_certify(args) -> int:
    cfg = _load_config(args.config)
    grid_n = args.grid if args.grid is not None else (50 if cfg.d == 2 else 20)
    if grid_n < 1:
        raise ConfigError(f"--grid must be an integer >= 1, got {grid_n}")
    model = cfg.build()
    if isinstance(model, PoweredCopula):
        evaluator, d = model.cdf_points, 2
    else:
        evaluator, d = model.cdf, cfg.d
    report = d_increasing_oracle(evaluator, d, grid_n)
    lines = [
        f"# d={report.d} grid_n={report.grid_n} min_increment={report.min_increment:.17g} "
        f"min_cell={'|'.join(map(str, report.min_cell))} "
        f"groundedness_err={report.groundedness_err:.3g} margin_err={report.margin_err:.3g} "
        f"passed={str(report.passed).lower()}",
        "cell,increment",
    ]
    for cell, val in report.worst_cells:
        lines.append(f"{'|'.join(map(str, cell))},{val:.17g}")
    _write("\n".join(lines) + "\n", args.out)
    return 0 if report.passed else 1


# --- driver --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sarmanov",
        description="Construct, validate, simulate and measure Sarmanov copulas "
                    "via their latent-Bernoulli mixture representation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help_text, config=True):
        p = sub.add_parser(name, help=help_text)
        if config:
            p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.set_defaults(fn=fn)
        return p

    p = command("catalog", cmd_catalog, "list the kernel catalog", config=False)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p = command("validate", cmd_validate, "admissibility certificate for a configuration")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="csv exports the latent pmf as (state bitstring, probability)")
    command("bounds", cmd_bounds, "admissible parameter and rho ranges (d = 2)")
    for name, fn, help_text in (
        ("sample", cmd_sample, "draw samples to CSV (plus .meta.json sidecar)"),
        ("measure", cmd_measure, "analytic vs empirical dependence report"),
    ):
        p = command(name, fn, help_text)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
    # measure (the last of the two) also renders csv
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="csv renders the comparison table (analytic|empirical|se|z)")
    p = command("certify", cmd_certify, "brute-force rectangle-increment oracle report")
    p.add_argument("--grid", type=int, default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        return args.fn(args)
    except (ConfigError, SarmanovError) as e:
        if isinstance(e, NotAdmissible):
            print(f"inadmissible: {e}", file=sys.stderr)
            return 1
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # pragma: no cover - defensive
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
