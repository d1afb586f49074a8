#!/usr/bin/env python3
"""Run the benchmark several times with different seeds and print, per
metric, the median and the spread (third minus first quartile over the
median) of the values, next to the bound BENCHMARK.json gives it.

    python3 perfbench/spread.py --workload sweep --runs 10 [--first-seed 1] [--trace 0]

Run it from the root of the repository. A metric is steady enough when
its spread is below a third of its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            print("seed %d: exit %d" % (seed, out.returncode), file=sys.stderr)
            return 1
        res = json.loads(out.stdout.strip().splitlines()[-1])
        print("seed %d: correct=%s attempted=%d failed=%d" % (seed, res["correct"], res["attempted"], res["failed"]))
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None else ("  ok" if spread < bound / 3 else "  WIDE (bound %.3g)" % bound)
        print("%-36s median %-12.6g spread %.4f%s" % (name, med, spread, flag))
        print("    " + " ".join("%.6g" % v for v in vs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
