"""Set-up probe: one fresh interpreter imports sarmanov, then parses and
builds every model the workload's ops start from.

Usage: python3 perfbench/probe.py --workload NAME --seed N
Prints {"import_s", "modules", "build_s", "setup_s"} as JSON. Generating
the inputs is benchmark work and is not timed.
"""

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--root", default=os.getcwd())
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(args.root, "src"))
    before = len(sys.modules)
    t0 = time.perf_counter()
    import sarmanov  # noqa: F401

    import_s = time.perf_counter() - t0
    modules = len(sys.modules) - before

    sys.path.insert(0, HERE)
    from worker import import_sarmanov
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](import_sarmanov(args.root), args.seed, args.root)
    try:
        t1 = time.perf_counter()
        wl.setup()
        build_s = time.perf_counter() - t1
    finally:
        wl.close()
    print(json.dumps({"import_s": import_s, "modules": modules, "build_s": build_s,
                      "setup_s": import_s + build_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
