"""Run one coalgkit benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 coalgbench/run.py --workload truncation --seed 1 --seconds 15 --trace 0

The benchmark imports coalgkit from the checkout's ``src`` directory and
from nowhere else; without it, it exits with code 2 and prints no result.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Scratch files go to ``.bench_work/`` in the checkout and are removed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "coalgkit", "__init__.py")):
        print(f"error: no coalgkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import coalgkit
    from harness import run_benchmark
    from workloads import WORKLOADS

    if not os.path.abspath(coalgkit.__file__).startswith(SRC + os.sep):
        print(f"error: coalgkit was imported from {coalgkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result = run_benchmark(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        os.path.join(ROOT, ".bench_work"),
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
