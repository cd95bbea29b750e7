"""Repeat benchmark runs: the seed-to-seed spread check and the baseline file.

    python3 coalgbench/collect.py spread --workload decide --seeds 1-10
    python3 coalgbench/collect.py baseline --seed 1 -o coalgbench/baseline.json

``spread`` runs one workload once per seed, each in a fresh process, and
prints, for every end-to-end metric, the distance between the first and
third quartile of its values as a share of their median, next to the
metric's bound from BENCHMARK.json.  ``baseline`` records, for every
workload, one untraced and one traced run of the same seed: the totals
next to the per-layer split, so that a later change can show which layer
moved.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_once(workload: str, seed: int, trace: int, seconds: float) -> dict:
    args = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(args) -> int:
    values = {m["name"]: [] for m in SPEC["end_to_end"]}
    for seed in _seeds(args.seeds):
        result = run_once(args.workload, seed, 0, args.seconds)
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} tasks failed")
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    worst = 0.0
    for m in SPEC["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        share = (q3 - q1) / med
        if m["name"] != "setup_s":
            worst = max(worst, share / m["bound"])
        print(f"{m['name']:>14}: median {med:.6g} {m['unit']}, spread {share:.3f} (bound {m['bound']})")
    print(f"largest spread as a share of its bound, setup_s aside: {worst:.2f}")
    return 0


def baseline(args) -> int:
    doc = {
        "made_by": f"python3 coalgbench/collect.py baseline --seed {args.seed} --seconds {args.seconds}",
        "hardware": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "note": "per-layer values are medians over the traced passes of one run; "
        "end-to-end values come from one untraced run of the same seed",
        "workloads": {},
    }
    for w in SPEC["workloads"]:
        name = w["name"]
        totals = run_once(name, args.seed, 0, args.seconds)
        layers = run_once(name, args.seed, 1, args.seconds)
        doc["workloads"][name] = {
            "end_to_end": {k: v["value"] for k, v in totals["metrics"].items()},
            "per_layer": {k: v["value"] for k, v in layers["metrics"].items()},
        }
        print(f"{name}: done", file=sys.stderr, flush=True)
    text = json.dumps(doc, indent=1, sort_keys=False) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("spread")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.set_defaults(fn=spread)
    p = sub.add_parser("baseline")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("-o", "--output")
    p.set_defaults(fn=baseline)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
