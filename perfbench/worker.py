"""One benchmark run of one workload in a single worker process.

Usage (from the root of a checkout; run.py starts it):

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

Prints one JSON object as its last line of standard output. With --trace 0
it runs whole cycles of ops, untraced, until the summed op time reaches S
seconds and at least ``min_ops`` ops ran. With --trace 1 it traces the
set-up once and then alternates untraced and traced cycles that repeat the
same inputs, so that counts repeat exactly and the untraced cycles give the
tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
WALL_LIMIT = 120.0  # stop early rather than miss the run's 180 s deadline

LAYER_TIMES = {  # metric -> span name
    "config.from_json_s": "config.from_json",
    "config.build_s": "config.build",
    "kernels.catalog_lookup_s": "kernels.catalog_lookup",
    "kernels.custom_kernel_s": "kernels.custom_kernel",
    "calibration.calibrate_s": "calibration.calibrate",
    "calibration.explicit_pair_s": "calibration.explicit_pair",
    "calibration.quantile_numeric_s": "calibration.quantile_numeric",
    "calibration.quantile_analytic_s": "calibration.quantile_analytic",
    "bernoulli.admissibility_s": "bernoulli.admissibility",
    "bernoulli.thetas_s": "bernoulli.thetas",
    "bernoulli.index_draw_s": "bernoulli.index_draw",
    "sampling.sample_self_s": "sampling.sample",
    "sampling.powered_self_s": "sampling.powered",
    "copula.cdf_s": "copula.cdf",
    "copula.oracle_s": "copula.oracle",
    "measures.empirical_s": "measures.empirical",
    "measures.spearman_s": "measures.spearman",
    "measures.kendall_s": "measures.kendall",
    "measures.analytic_s": "measures.analytic",
    "cli.self_s": "cli",
    "bench.glue_s": "op",
}
LAYER_COUNTS = ("calibration.draws_numeric", "calibration.draws_analytic",
                "copula.cdf_points", "copula.oracle_cells", "measures.rows", "cli.bytes_written")


def import_sarmanov(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import sarmanov
    import sarmanov.cli  # noqa: F401  (the package does not import its CLI)

    if not os.path.abspath(sarmanov.__file__).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"imported sarmanov from {sarmanov.__file__}, not from {src}")
    return sarmanov


class Runner:
    def __init__(self, wl):
        self.wl = wl
        self.failures: list[str] = []
        self.attempted = 0

    def op(self, i: int, in_process: bool, tracer=None, trace_id=None):
        """Run op i, then check it. Returns (seconds, rows, bytes written)."""
        wl = self.wl
        self.attempted += 1
        out, err = None, None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.run(i, in_process=in_process)
            else:
                tracer.trace_id, tracer.enabled = trace_id, True
                try:
                    out = tracer.call("op", wl.run, (i,), {"in_process": in_process})
                finally:
                    tracer.enabled = False
        except Exception:
            err = traceback.format_exc(limit=3)
        seconds = time.perf_counter() - t0
        rows = nbytes = 0
        if err is None:
            try:
                wl.check(i, out)
                rows = wl.rows(out)
                nbytes = wl.bytes_written(out)
            except Exception:
                err = traceback.format_exc(limit=3)
        wl.cleanup(out)
        if err is not None:
            self.failures.append(f"op {self.attempted - 1} ({wl.name} #{i}): {err}")
        return seconds, rows, nbytes


def run_untraced(wl, seconds: float) -> dict:
    wl.setup()
    runner = Runner(wl)
    times, rows = [], 0
    start = time.perf_counter()
    while True:
        for i in range(wl.cycle):
            dt, r, _ = runner.op(i, in_process=False)
            times.append(dt)
            rows += r
        if (sum(times) >= seconds and len(times) >= wl.min_ops) \
                or time.perf_counter() - start > WALL_LIMIT:
            break
        wl.next_cycle()
    who = resource.RUSAGE_CHILDREN if wl.works_in_child else resource.RUSAGE_SELF
    rss = resource.getrusage(who).ru_maxrss  # KiB on Linux
    return {"op_times": times, "rows": rows, "peak_rss_mb": rss / 1024.0,
            "attempted": runner.attempted, "failures": runner.failures}


def run_traced(wl, sm, seconds: float) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install(sm)
    try:
        tracer.trace_id, tracer.enabled = "setup", True
        tracer.call("op", wl.setup, (), {})
        tracer.enabled = False
        setup_counts = dict(tracer.counters)
        runner = Runner(wl)
        runner.op(0, in_process=True)  # warm-up, so that first-call costs hit neither side
        plain, traced, cycles = [], [], []
        start, k = time.perf_counter(), 0
        while True:
            is_traced = k % 2 == 1
            tracer.counters.clear()
            ids, nbytes = [], 0
            for i in range(wl.trace_cycle):
                tid = f"c{k}.{i}"
                dt, _, b = runner.op(i, in_process=True, tracer=tracer if is_traced else None,
                                     trace_id=tid)
                (traced if is_traced else plain).append(dt)
                ids.append(tid)
                nbytes += b
            if is_traced:
                counts = dict(tracer.counters)
                counts["cli.bytes_written"] = nbytes
                cycles.append((tracer.self_times(ids), counts))
            k += 1
            if (k >= 2 and k % 2 == 0 and sum(plain) + sum(traced) >= seconds) \
                    or time.perf_counter() - start > WALL_LIMIT:
                break
    finally:
        tracer.uninstall()

    setup_self = tracer.self_times(["setup"])
    layers: dict[str, float] = {}
    for metric, span in LAYER_TIMES.items():
        per_cycle = [c[0].get(span, 0.0) for c in cycles]
        layers[metric] = setup_self.get(span, 0.0) + statistics.median(per_cycle)
    counts0 = cycles[0][1]
    counts_repeat = all(c[1] == counts0 for c in cycles)

    def total(key):
        return setup_counts.get(key, 0) + counts0.get(key, 0)

    for key in LAYER_COUNTS:
        layers[key] = total(key)
    draws = total("calibration.draws_numeric")
    layers["calibration.F_evals_per_draw"] = total("calibration.F_points") / draws if draws else 0.0
    layers["calibration.quantile_s"] = (layers["calibration.quantile_numeric_s"]
                                        + layers["calibration.quantile_analytic_s"])
    layers["trace.op_p50_untraced_s"] = statistics.median(plain)
    layers["trace.op_p50_traced_s"] = statistics.median(traced)
    # each traced op is paired with the same op of the untraced cycle before it
    layers["trace.overhead_s"] = statistics.median(t - p for p, t in zip(plain, traced))
    return {"layers": layers, "counts_repeat": counts_repeat, "traced_cycles": len(cycles),
            "attempted": runner.attempted, "failures": runner.failures, "spans": tracer.dump()}


def versions(sm) -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "sarmanov": sm.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", default=os.getcwd())
    args = ap.parse_args(argv)

    sm = import_sarmanov(args.root)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](sm, args.seed, args.root)
    try:
        if args.trace:
            result = run_traced(wl, sm, args.seconds)
        else:
            result = run_untraced(wl, args.seconds)
    finally:
        wl.close()
    result["versions"] = versions(sm)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
