"""Repeat benchmark runs over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/repeat.py --workload NAME --seeds 1-10 [--seconds 20] [--trace 0]
        [--out FILE]

Spread is the distance between the first and third quartile of the runs'
values (statistics.quantiles(values, n=4)) as a share of their median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_of(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    runs = []
    for seed in seeds_of(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: run exited {proc.returncode}", file=sys.stderr)
            return 1
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **last})
        print(f"seed {seed}: correct={last['correct']} attempted={last['attempted']} "
              f"failed={last['failed']}", file=sys.stderr)
    names = list(runs[0]["metrics"])
    summary = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "seeds": [r["seed"] for r in runs],
        "all_correct": all(r["correct"] for r in runs),
        "metrics": {n: {"unit": runs[0]["metrics"][n]["unit"],
                        **summarize([r["metrics"][n]["value"] for r in runs])} for n in names},
    }
    for n, s in summary["metrics"].items():
        print(f"{n:34s} median {s['median']:<12.6g} spread {s['spread']:.4f} {s['unit']}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
