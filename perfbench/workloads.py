"""Seeded inputs and the operation of each benchmark workload.

Every input is derived from the workload seed, so the same seed gives the
same configs and the same per-op seeds. The program only ever receives the
generated configs (as JSON objects or files) and the op seeds.

Workloads (one client, closed loop, run sequentially):

* ``cli-sample-csv``: ``python -m sarmanov sample`` on a d=2 fgm x
  checkerboard model (a=1, n=250000), output CSV in a temporary directory.
* ``lib-sample-numeric``: in-process ``sample``/``sample_powered`` at
  n=200000 rows per op, rotating over five models that all invert their
  margins by numeric bisection.
* ``lib-study-sweep``: one small study per op on a fresh config; a cycle is
  the fixed slot list ``SWEEP_SLOTS`` with seeded parameters.

Import this module only after ``sarmanov`` is importable: the generator
reads slope bounds and admissible intervals from the library.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

import checks

SCHEMA = "sarmanov-config/1"
CLI_N = 250_000
NUMERIC_N = 200_000
STUDY_N = 20_000
TAB_POINTS = 257  # grid of the tabulated explicit pairs
ORACLE_GRID = {2: 50, 3: 20, 4: 12}

# one cycle of lib-study-sweep; 2 of 20 slots (10%) are inadmissible. The two
# d=10 slots are the costliest studies: with 8 to 11 cycles in a run they hold
# the tail rank (eleventh op from the top) inside one group of similar ops
SWEEP_SLOTS = (
    ("pair_a", 2), ("pair_theta", 2), ("powered", 2), ("explicit", 2), ("exchangeable", 4),
    ("pair_a", 2), ("bad_pair", 2), ("full_pmf", 3), ("powered", 2), ("epd", 10),
    ("pair_theta", 2), ("explicit", 2), ("end", 3), ("exchangeable", 10), ("pair_a", 2),
    ("powered", 2), ("comonotone", 5), ("bad_exchangeable", 3), ("full_pmf", 8),
    ("independent", 4),
)
POWERED_KERNELS = ("fgm", "hki", "hkii", "bkb", "sin", "sin_squared", "fgm_damped")


def kernel_margin(kid: str, params: dict | None = None) -> dict:
    body = {"id": kid}
    if params:
        body["params"] = dict(params)
    return {"kernel": body}


def op_seeds(seed: int, stream_id: int):
    """Endless per-op seeds for one workload seed."""
    rng = np.random.default_rng([int(seed), int(stream_id)])
    while True:
        yield int(rng.integers(0, 2**31 - 1))


class Catalog:
    """Slope bounds and pi of each catalog row at its default parameters."""

    def __init__(self, sm):
        self.sm = sm
        self.ids = tuple(sm.CATALOG_IDS)
        self.params = {i: dict(sm.DEFAULT_PARAMS.get(i, {})) for i in self.ids}
        self.kernels = {i: sm.catalog_lookup(i, self.params[i]) for i in self.ids}
        self.pi = {i: k.Lambda / (k.Lambda - k.lam) for i, k in self.kernels.items()}
        self.half = tuple(i for i in self.ids if abs(self.pi[i] - 0.5) < 1e-12)

    def margin(self, kid: str) -> dict:
        return kernel_margin(kid, self.params[kid])

    def tabulated_pair(self, kid: str) -> dict:
        """Explicit pair F0 = u - Lambda g, F1 = u - lam g, tabulated on a grid."""
        k = self.kernels[kid]
        u = np.linspace(0.0, 1.0, TAB_POINTS)
        g = np.asarray(k.g(u), dtype=float)
        return {"pair": {"pi": self.pi[kid], "u": u.tolist(),
                         "F0": (u - k.Lambda * g).tolist(), "F1": (u - k.lam * g).tolist()}}


def _inside(rng, lo: float, hi: float, margin: float = 0.05) -> float:
    """A point strictly inside [lo, hi], away from both ends."""
    return float(lo + (hi - lo) * rng.uniform(margin, 1.0 - margin))


class Deck:
    """Seeded picks that deal every member of a pool once before repeating it,
    so that each run sees nearly the same mix of kernels whatever its seed."""

    def __init__(self, rng):
        self.rng = rng
        self._left: dict[tuple, list] = {}

    def __call__(self, pool: tuple):
        left = self._left.setdefault(pool, [])
        if not left:
            left.extend(pool[j] for j in self.rng.permutation(len(pool)))
        return left.pop()


def sweep_config(cat: Catalog, kind: str, d: int, rng, pick: Deck) -> dict:
    """One generated config for a sweep slot (without n and seed)."""
    sm = cat.sm
    cfg: dict = {"schema": SCHEMA, "d": d}
    if kind in ("pair_a", "pair_theta", "bad_pair"):
        k1, k2 = pick(cat.ids), pick(cat.ids)
        cfg["margins"] = [cat.margin(k1), cat.margin(k2)]
        lo, hi = sm.admissible_a_interval(cat.kernels[k1], cat.kernels[k2])
        if kind == "pair_theta":
            cfg["theta"] = _inside(rng, *sm.theta_range_bivariate(cat.pi[k1], cat.pi[k2]))
        elif kind == "pair_a":
            cfg["a"] = _inside(rng, lo, hi)
        else:  # far enough outside that the grid-50 oracle resolves it
            cfg["a"] = 1.6 * (hi if rng.random() < 0.5 else lo)
    elif kind == "powered":
        k1, k2 = pick(POWERED_KERNELS), pick(POWERED_KERNELS)
        r = int(pick((2, 3)))
        t1 = sm.transform_kernel(cat.kernels[k1], r)
        t2 = sm.transform_kernel(cat.kernels[k2], r)
        lo, hi = sm.admissible_a_interval(t1, t2)
        cfg.update(margins=[cat.margin(k1), cat.margin(k2)], a=_inside(rng, lo, hi), r=r)
    elif kind == "explicit":
        k1, k2 = pick(cat.ids), pick(cat.ids)
        cfg["margins"] = [cat.tabulated_pair(k1), cat.margin(k2)]
        cfg["theta"] = _inside(rng, *sm.theta_range_bivariate(cat.pi[k1], cat.pi[k2]))
    elif kind == "exchangeable":
        w = rng.uniform(0.0, 1.0, d + 1)
        w = (w + w[::-1]) / 2.0  # palindromic weights keep every margin at pi = 1/2
        cfg["margins"] = [cat.margin(pick(cat.half)) for _ in range(d)]
        cfg["bernoulli"] = {"variant": "exchangeable_sum", "w": (w / w.sum()).tolist()}
    elif kind == "bad_exchangeable":
        # sum law with a negative w_1 and mean 3/2; checkerboard margins make
        # the violation visible to the grid-20 oracle
        e, c = rng.uniform(0.06, 0.10), rng.uniform(0.30, 0.35)
        b = (1.5 + e - 3.0 * c) / 2.0
        cfg["margins"] = [cat.margin("checkerboard")] * 3
        cfg["bernoulli"] = {"variant": "exchangeable_sum", "w": [1.0 + e - b - c, -e, b, c]}
    elif kind == "full_pmf":
        p = rng.uniform(0.0, 1.0, 1 << d)
        p = (p + p[::-1]) / 2.0  # state s and its complement share mass: margins 1/2
        p = p / p.sum()
        states = {"".join(str((s >> m) & 1) for m in range(d)): float(v) for s, v in enumerate(p)}
        cfg["margins"] = [cat.margin(pick(cat.half)) for _ in range(d)]
        cfg["bernoulli"] = {"variant": "full_pmf", "pmf": states}
    elif kind in ("epd", "end", "comonotone", "independent"):
        pool = cat.half if kind in ("epd", "end") else cat.ids
        cfg["margins"] = [cat.margin(pick(pool)) for _ in range(d)]
        cfg["bernoulli"] = {"variant": "named", "name": kind}
    else:
        raise ValueError(f"unknown sweep slot {kind!r}")
    return cfg


def numeric_configs(cat: Catalog) -> list[dict]:
    """The five bisection-route models of lib-sample-numeric."""
    sin = cat.margin("sin")
    return [
        {"schema": SCHEMA, "d": 2, "margins": [kernel_margin("hkii", {"q": 2}), sin], "a": 1.0},
        {"schema": SCHEMA, "d": 2, "theta": 0.3,
         "margins": [cat.margin("norm_lee"), cat.margin("lee_exponential")]},
        {"schema": SCHEMA, "d": 2, "margins": [sin, sin], "a": 0.1, "r": 2},
        {"schema": SCHEMA, "d": 2, "margins": [cat.tabulated_pair("fgm_damped"),
                                               cat.margin("fgm")], "theta": 0.5},
        {"schema": SCHEMA, "d": 10, "margins": [sin] * 10,
         "bernoulli": {"variant": "named", "name": "epd"}},
    ]


def cli_config() -> dict:
    return {"schema": SCHEMA, "d": 2, "a": 1.0, "n": CLI_N, "seed": 0,
            "margins": [kernel_margin("fgm"), kernel_margin("checkerboard")]}


def build(sm, cfg: dict):
    """Parse a config from its JSON text and build the model."""
    return sm.CopulaConfig.from_json(json.dumps(cfg)).build()


def draw(sm, model, n: int, seed: int):
    if isinstance(model, sm.PoweredCopula):
        return sm.sample_powered(model, n, seed)
    return sm.sample(model, n, seed)


# --- workloads ---------------------------------------------------------------


class Workload:
    """One op kind. ``cycle`` ops form a rotation; runs stop on whole cycles."""

    name = ""
    cycle = 1
    trace_cycle = 1  # ops in one cycle of a traced run
    min_ops = 11  # the tail percentile needs ten ops beyond it
    works_in_child = False  # untraced ops run in child processes (peak RSS is theirs)

    def __init__(self, sm, seed: int, root: str):
        self.sm, self.seed, self.root = sm, int(seed), root
        self.cat = Catalog(sm)
        self._seeds = op_seeds(seed, 1)
        self.next_cycle()

    def configs(self) -> list[dict]:
        """The configs the first cycle starts from (parsed and built in setup)."""
        raise NotImplementedError

    def setup(self) -> None:
        """Parse and build every model the ops start from."""
        self.models = [build(self.sm, c) for c in self.configs()]

    def next_cycle(self) -> None:
        """Fresh seeds (and inputs) for the next rotation of an untraced run."""
        self.op_seed = [next(self._seeds) for _ in range(max(self.cycle, self.trace_cycle))]

    def run(self, i: int, in_process: bool = False):
        raise NotImplementedError

    def check(self, i: int, out) -> None:
        raise NotImplementedError

    def rows(self, out) -> int:
        raise NotImplementedError

    def bytes_written(self, out) -> int:
        return 0

    def cleanup(self, out) -> None:
        pass

    def close(self) -> None:
        pass


class CliSampleCsv(Workload):
    name = "cli-sample-csv"
    trace_cycle = 3
    works_in_child = True

    def __init__(self, sm, seed, root):
        super().__init__(sm, seed, root)
        self.cfg = cli_config()
        self.workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, "perfbench", ".tmp"))
        self.cfg_path = os.path.join(self.workdir, "cfg.json")
        with open(self.cfg_path, "w") as fh:
            json.dump(self.cfg, fh)

    def configs(self):
        return [self.cfg]

    def run(self, i, in_process=False):
        out_dir = tempfile.mkdtemp(prefix="op-", dir=self.workdir)
        out = os.path.join(out_dir, "rows.csv")
        argv = ["sample", "--config", self.cfg_path, "--out", out, "--seed", str(self.op_seed[i])]
        if in_process:
            code = self.sm.cli.main(argv)
        else:
            code = subprocess.run([sys.executable, "-m", "sarmanov", *argv],
                                  stdin=subprocess.DEVNULL).returncode
        return {"dir": out_dir, "csv": out, "code": code, "seed": self.op_seed[i]}

    def check(self, i, out):
        if out["code"] != 0:
            raise checks.CheckFailed(f"sample exited {out['code']}")
        rows = checks.csv_output(out["csv"], self.cfg, out["seed"])
        checks.quantile_residuals(self.sm, self.models[0], rows, out["seed"])

    def rows(self, out):
        return CLI_N

    def bytes_written(self, out) -> int:
        return sum(os.path.getsize(os.path.join(out["dir"], f)) for f in os.listdir(out["dir"]))

    def cleanup(self, out):
        if out is not None:
            shutil.rmtree(out["dir"], ignore_errors=True)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


class LibSampleNumeric(Workload):
    name = "lib-sample-numeric"
    cycle = trace_cycle = 5
    # four rotations: with whole rotations of five models the median and the
    # tail rank (eleventh op from the top) fall on the same model in every run
    # that completes four or five rotations
    min_ops = 20

    def configs(self):
        return numeric_configs(self.cat)

    def run(self, i, in_process=True):
        return draw(self.sm, self.models[i], NUMERIC_N, self.op_seed[i])

    def check(self, i, out):
        checks.rows_shape(out.rows, NUMERIC_N, self.models[i])
        checks.quantile_residuals(self.sm, self.models[i], out.rows, out.seed)

    def rows(self, out):
        return out.n


class LibStudySweep(Workload):
    name = "lib-study-sweep"
    cycle = trace_cycle = len(SWEEP_SLOTS)

    def __init__(self, sm, seed, root):
        self._cfg_rng = np.random.default_rng([int(seed), 2])
        self._deck = Deck(np.random.default_rng([int(seed), 3]))
        super().__init__(sm, seed, root)

    def _generate(self):
        return [sweep_config(self.cat, kind, d, self._cfg_rng, self._deck)
                for kind, d in SWEEP_SLOTS]

    def configs(self):
        return self.cycle_configs

    def setup(self):
        self.models = []
        for c in self.configs():
            try:
                self.models.append(build(self.sm, c))
            except self.sm.errors.NotAdmissibleForTransformed:
                self.models.append(None)

    def next_cycle(self):
        super().next_cycle()
        self.cycle_configs = self._generate()

    def run(self, i, in_process=True):
        return study(self.sm, dict(self.cycle_configs[i], n=STUDY_N, seed=self.op_seed[i]))

    def check(self, i, out):
        checks.study(self.sm, SWEEP_SLOTS[i][0].startswith("bad_"), out)

    def rows(self, out):
        return 0 if out["batch"] is None else out["batch"].n


def study(sm, cfg: dict) -> dict:
    """Build, certify, sample, measure, evaluate the cdf and (d <= 4) run the
    rectangle oracle. A refused config stops after the certificate and oracle."""
    out = {"cfg": cfg, "model": None, "cert": None, "batch": None, "report": None,
           "cdf": None, "oracle": None, "refused": None}
    parsed = sm.CopulaConfig.from_dict(cfg)
    try:
        model = parsed.build()
    except sm.errors.NotAdmissibleForTransformed:
        out["refused"] = "build"
        return out
    out["model"] = model
    powered = isinstance(model, sm.PoweredCopula)
    if not powered:
        out["cert"] = sm.admissibility_check(model.bern)
    try:
        batch = draw(sm, model, cfg["n"], cfg["seed"])
    except sm.errors.NotAdmissible:
        out["refused"] = "sample"
        batch = None
    evaluator = model.cdf_points if powered else model.cdf
    if batch is not None:
        out["batch"] = batch
        out["report"] = sm.empirical_measures(batch, None if powered else model)
        out["cdf"] = evaluator(batch.rows)
    d = parsed.d
    if d in ORACLE_GRID:
        out["oracle"] = sm.d_increasing_oracle(evaluator, d, ORACLE_GRID[d])
    return out


WORKLOADS = {w.name: w for w in (CliSampleCsv, LibSampleNumeric, LibStudySweep)}
