"""Benchmark entry point for the sarmanov package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli-sample-csv, lib-sample-numeric, lib-study-sweep (see
perfbench/workloads.py and perfbench/NOTES.md). The program is used from
``src/`` of the checkout as it is; nothing is installed.

Each run first times the set-up in SETUP_PROBES fresh interpreters, then
starts one worker process that runs the workload's closed loop and checks
every op's output. The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. A full record, with the
environment, is written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# the names of workloads.WORKLOADS; that module needs numpy and sarmanov,
# which this process does not import
WORKLOADS = ("cli-sample-csv", "lib-sample-numeric", "lib-study-sweep")
SETUP_PROBES = 4
DEADLINE_S = 170  # a run must end within 180 s
TAIL_BEYOND = 10  # the tail percentile keeps at least this many ops beyond it

END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s", "rows_per_s": "rows/s",
                    "studies_per_s": "1/s", "peak_rss_mb": "MB"}
# per-layer metrics on the result line; the full table is in the record
PER_LAYER_UNITS = {
    "import.sarmanov_s": "s", "import.modules": "count",
    "config.from_json_s": "s", "config.build_s": "s", "kernels.catalog_lookup_s": "s",
    "calibration.calibrate_s": "s", "calibration.quantile_s": "s",
    "calibration.draws_numeric": "count", "calibration.F_evals_per_draw": "evals/draw",
    "calibration.draws_analytic": "count",
    "bernoulli.admissibility_s": "s", "bernoulli.index_draw_s": "s",
    "sampling.sample_self_s": "s",
    "copula.cdf_points": "count", "copula.oracle_cells": "count", "measures.rows": "count",
    "cli.bytes_written": "count", "trace.overhead_s": "s",
}


class BenchError(Exception):
    pass


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("SARMANOV_THREADS", None)
    return env


def run_json(cmd: list[str], env: dict, timeout: float) -> dict:
    """Run a child to completion and parse its last line of output as JSON.

    The child gets its own process group, so that on a timeout the CLI
    processes a worker started are stopped with it.
    """
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{cmd[1]} exceeded {timeout:.0f} s") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{cmd[1]} exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(lines[-1])


# --- environment record -------------------------------------------------------


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def filesystem_of(path: str) -> str | None:
    best, fstype = "", None
    for line in (_read("/proc/mounts") or "").splitlines():
        parts = line.split()
        if len(parts) >= 3 and os.path.abspath(path).startswith(parts[1]) \
                and len(parts[1]) > len(best):
            best, fstype = parts[1], f"{parts[2]} on {parts[1]}"
    return fstype


def cpu_caches() -> dict:
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(os.path.join(base, entry, "level"))
        kind = _read(os.path.join(base, entry, "type"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            out[f"L{level}"] = _read(os.path.join(base, entry, "size"))
    return out


def cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def source_commit(root: str) -> dict:
    """Git commit when the checkout is a repository, and a hash of src/ always."""
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    h = hashlib.sha256()
    src = os.path.join(root, "src", "sarmanov")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return {"git_commit": commit, "src_sha256": h.hexdigest()[:16]}


def environment(root: str, tmp_dir: str, worker_versions: dict) -> dict:
    return {
        **worker_versions,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model(),
        "caches": cpu_caches(),
        "output_filesystem": filesystem_of(tmp_dir),
        **source_commit(root),
        "threads_env": "OMP/OPENBLAS/MKL_NUM_THREADS=1",
    }


# --- metrics ------------------------------------------------------------------


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, op count) of the highest percentile that still has
    TAIL_BEYOND ops beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise BenchError(f"{n} ops are too few for a tail with {TAIL_BEYOND} ops beyond it")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def end_to_end(probes: list[dict], res: dict) -> tuple[dict, dict]:
    times = res["op_times"]
    timed = sum(times)
    tail_s, pct, n = tail(times)
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s,
        "rows_per_s": res["rows"] / timed,
        "studies_per_s": len(times) / timed,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    extra = {"op_tail_percentile": pct, "ops": n, "timed_s": timed}
    return metrics, extra


def per_layer(probes: list[dict], res: dict) -> dict:
    layers = dict(res["layers"])
    layers["import.sarmanov_s"] = statistics.median(p["import_s"] for p in probes)
    layers["import.modules"] = probes[0]["modules"]
    return layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sarmanov", "__init__.py")):
        print("error: run from the root of a sarmanov checkout (src/sarmanov is missing)",
              file=sys.stderr)
        return 2
    results_dir = os.path.join(HERE, "results")
    tmp_dir = os.path.join(HERE, ".tmp")
    os.makedirs(results_dir, exist_ok=True)
    os.makedirs(tmp_dir, exist_ok=True)
    env = child_env(root)
    py = sys.executable
    common = ["--workload", args.workload, "--seed", str(args.seed), "--root", root]
    started = time.time()
    left = lambda: DEADLINE_S - (time.time() - started)  # noqa: E731
    probe = lambda: run_json([py, os.path.join(HERE, "probe.py"), *common], env, left())  # noqa: E731
    try:
        # half of the set-up probes run before the worker and half after it,
        # so that their median spans the run's time, not one noisy moment
        probes = [probe() for _ in range(SETUP_PROBES // 2)]
        res = run_json([py, os.path.join(HERE, "worker.py"), *common,
                        "--seconds", str(args.seconds), "--trace", str(args.trace)],
                       env, left())
        probes += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        if args.trace:
            metrics, units = per_layer(probes, res), PER_LAYER_UNITS
            extra = {"counts_repeat": res["counts_repeat"]}
        else:
            (metrics, extra), units = end_to_end(probes, res), END_TO_END_UNITS
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    failed = len(res["failures"])
    extra["error_rate"] = failed / res["attempted"]
    correct = failed == 0 and extra.get("counts_repeat", True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "started": started, "wall_s": time.time() - started,
        "correct": correct, "attempted": res["attempted"], "failed": failed,
        "failures": res["failures"][:20], "metrics": metrics, **extra,
        "op_times": res.get("op_times"),
        "setup_probes": probes, "environment": environment(root, tmp_dir, res["versions"]),
    }
    with open(os.path.join(results_dir, tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(os.path.join(results_dir, tag + ".spans.json"), "w") as fh:
            json.dump(res["spans"], fh)

    for failure in res["failures"][:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, value in sorted(metrics.items()):
        print(f"{name:34s} {value:.6g} {units.get(name, 's' if name.endswith('_s') else 'count')}")
    for name, value in sorted(extra.items()):
        print(f"{name:34s} {value}")
    print(json.dumps({
        "correct": bool(correct), "attempted": res["attempted"], "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
