"""Command-line surface.

Subcommands: catalog, validate, bounds, sample, measure, certify.
Exit codes: 0 valid/ok, 1 inadmissible or oracle violation, 2 usage or
parse error, 3 internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

import numpy as np

from . import __version__, measures
from .bernoulli import state_bitstring
from .config import SCHEMA, CopulaConfig
from .copula import (
    PoweredCopula,
    SarmanovCopula,
    admissible_a_interval,
    d_increasing_oracle,
)
from .errors import ConfigError, NotAdmissible, NotAdmissibleForTransformed, SarmanovError
from .kernels import CATALOG_IDS, DEFAULT_PARAMS, catalog_lookup
from .sampling import SAMPLER_VERSION, sample, sample_powered


CSV_BLOCK_ROWS = 1 << 14  # sample rows formatted per write


def _fmt12(x: float) -> str:
    return f"{x:.12g}"


@contextlib.contextmanager
def _opened(out_path: str | None):
    """The --out file opened for writing, or stdout when there is none."""
    if out_path:
        with open(out_path, "w") as fh:
            yield fh
    else:
        yield sys.stdout


def _write(text: str, out_path: str | None) -> None:
    with _opened(out_path) as fh:
        fh.write(text)


def _write_rows(fh, rows) -> None:
    """Write an (n, d) float array as CSV rows of ``%.17g`` values (the same
    digits as ``f"{x:.17g}"``), one format operation per block of rows."""
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    for start in range(0, rows.shape[0], CSV_BLOCK_ROWS):
        block = rows[start:start + CSV_BLOCK_ROWS]
        fh.write(line * len(block) % tuple(block.ravel().tolist()))


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


def _powered_payload(valid: bool, a: float, interval, note: str, r=None, pis=None) -> dict:
    """Certificate of a powered configuration; ``r`` and ``pis`` only when it was built."""
    payload = {
        "valid": valid, "kind": "powered", "r": r, "a": a,
        "sufficient_interval": list(interval), "sufficient_only": True,
        "note": note, "pis": pis,
    }
    return {key: val for key, val in payload.items() if val is not None}


def _certificate_payload(cfg: CopulaConfig, model) -> tuple[dict, bool]:
    if isinstance(model, PoweredCopula):
        payload = _powered_payload(
            True, model.a, model.sufficient_interval,
            "interval from the transformed kernels; the true range may be wider",
            r=model.r, pis=[p.pi for p in model.base.margins],
        )
        return payload, True
    cert = model.bern.admissibility_check()
    payload = {
        "valid": bool(cert.passed),
        "kind": cert.kind,
        "pis": list(cert.pis),
        "violations": [[name, val] for name, val in cert.violations],
        "note": cert.note,
    }
    if cfg.d == 2:
        payload["theta"] = model.theta
        payload["theta_interval"] = list(cert.theta_interval) if cert.theta_interval else None
        ks = [p.base_kernel for p in model.margins]
        if all(k is not None for k in ks):
            payload["a"] = model.a
            payload["a_interval"] = list(admissible_a_interval(ks[0], ks[1]))
    if cert.pmf is not None and cfg.d <= 8:
        payload["pmf"] = [
            [state_bitstring(s, cfg.d), float(p)] for s, p in enumerate(cert.pmf)
        ]
    return payload, bool(cert.passed)


def cmd_validate(args) -> int:
    cfg = _load_config(args.config)
    try:
        model = cfg.build()
    except NotAdmissibleForTransformed as e:
        payload = _powered_payload(False, e.a, e.interval, str(e))
        _write(json.dumps(payload, indent=2) + "\n", args.out)
        return 1
    payload, ok = _certificate_payload(cfg, model)
    if args.format == "csv":
        # pmf table export: one row per latent state
        if isinstance(model, PoweredCopula):
            raise ConfigError("csv pmf export applies to unpowered laws")
        pmf = model.bern.pmf_table()
        lines = ["state,probability"]
        lines += [f"{state_bitstring(s, cfg.d)},{p:.17g}" for s, p in enumerate(pmf)]
        _write("\n".join(lines) + "\n", args.out)
    else:
        _write(json.dumps(payload, indent=2) + "\n", args.out)
    return 0 if ok else 1


def cmd_bounds(args) -> int:
    cfg = _load_config(args.config)
    if cfg.d != 2:
        raise ConfigError("bounds reporting is bivariate; use validate for d >= 3")
    pairs = cfg.margin_pairs()
    from .bernoulli import theta_range_bivariate

    th_lo, th_hi = theta_range_bivariate(pairs[0].pi, pairs[1].pi)
    k1h, k2h = pairs[0].induced.kappa, pairs[1].induced.kappa
    rho_ends = (12.0 * th_lo * k1h * k2h, 12.0 * th_hi * k1h * k2h)
    payload = {
        "pis": [pairs[0].pi, pairs[1].pi],
        "theta_interval": [th_lo, th_hi],
        "rho_interval": [min(rho_ends), max(rho_ends)],
        "rho_global": [-0.75, 0.75],
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
    return cfg, model, draw(model, n, seed, copula_id=cfg.canonical_hash())


def cmd_sample(args) -> int:
    cfg, _, batch = _draw(args)
    columns = [f"u{m + 1}" for m in range(batch.d)]
    with _opened(args.out) as fh:
        fh.write(",".join(columns) + "\n")
        _write_rows(fh, batch.rows)
    meta = {
        "schema": SCHEMA,
        "config_hash": cfg.canonical_hash(),
        "n": batch.n, "seed": batch.seed, "d": batch.d,
        "columns": columns,
        # byte identity holds for equal (config, n, seed, sampler, numpy version)
        "sampler": SAMPLER_VERSION,
        "sarmanov_version": __version__, "numpy_version": np.__version__,
    }
    if args.out:
        with open(args.out + ".meta.json", "w") as fh:
            json.dump(meta, fh, indent=2)
    return 0


def cmd_measure(args) -> int:
    _, model, batch = _draw(args)
    analytic_model = model if isinstance(model, SarmanovCopula) else None
    rep = measures.empirical_measures(batch, analytic_model)
    if args.format == "csv":
        lines = ["measure,analytic,empirical,se,z"]
        for key in sorted(set(rep.analytic) | set(rep.empirical)):
            cells = [key] + [
                "" if src.get(key) is None else f"{src[key]:.12g}"
                for src in (rep.analytic, rep.empirical, rep.se, rep.z)
            ]
            lines.append(",".join(cells))
        _write("\n".join(lines) + "\n", args.out)
    else:
        _write(json.dumps(rep.to_dict(), indent=2) + "\n", args.out)
    return 0


def cmd_certify(args) -> int:
    cfg = _load_config(args.config)
    model = cfg.build()
    grid_n = args.grid if args.grid is not None else (50 if cfg.d == 2 else 20)
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
        if isinstance(e, (NotAdmissible, NotAdmissibleForTransformed)):
            print(f"inadmissible: {e}", file=sys.stderr)
            return 1
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # pragma: no cover - defensive
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
