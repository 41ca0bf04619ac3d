#!/usr/bin/env python3
"""A/B the simulator microbenchmarks of two builds, in alternating pairs.

    bench/ab.py PARENT_BUILD CHANGE_BUILD --filter RE --pairs N

Each build directory must hold bench/bench_sim_speed. A pair runs both
binaries once, one after the other; odd pairs run the parent first, even
pairs the change, so a drift of the host hits both sides alike. Every run
is pinned to one CPU (os.sched_setaffinity, applied in the child only).
One binary's medians can move by a third between sessions on a shared
host, so only the two sides' runs in one session compare.

Prints every run, then per benchmark the median and interquartile range
of each side, the speedup (parent median / change median) and how many
pairs the change won, for wall time and for the thread's CPU time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return q[0], q[2]


def run_once(binary, args, cpu):
    cmd = [binary, f"--benchmark_filter={args.filter}",
           f"--benchmark_min_time={args.min_time}", "--benchmark_format=json"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                         preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    runs = {}
    for b in json.loads(out.stdout)["benchmarks"]:
        if b.get("run_type", "iteration") != "iteration":
            continue
        runs[b["name"]] = (b["real_time"], b["cpu_time"], b["time_unit"])
    return runs


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="parent build directory")
    ap.add_argument("change", help="change build directory")
    ap.add_argument("--filter", default=".", help="google-benchmark filter regex")
    ap.add_argument("--pairs", type=int, default=8)
    ap.add_argument("--min-time", default="0.5",
                    help="seconds per benchmark per run (plain seconds)")
    ap.add_argument("--cpu", type=int, default=max(os.sched_getaffinity(0)),
                    help="CPU every run is pinned to")
    args = ap.parse_args()

    sides = {}
    for side in ("parent", "change"):
        binary = os.path.join(getattr(args, side), "bench", "bench_sim_speed")
        if not os.access(binary, os.X_OK):
            sys.exit(f"ab.py: no benchmark binary at {binary}")
        sides[side] = binary

    # times[name][side] = list of (real, cpu) per pair, in pair order.
    times = {}
    units = {}
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            for name, (real, cpu, unit) in run_once(sides[side], args, args.cpu).items():
                times.setdefault(name, {"parent": [], "change": []})[side].append((real, cpu))
                units[name] = unit
                print(f"pair {pair:2d} {side:6s} {name:32s} real {real:10.4f} "
                      f"cpu {cpu:10.4f} {unit}", flush=True)

    print()
    for name, by_side in times.items():
        n = min(len(by_side["parent"]), len(by_side["change"]))
        if n == 0:
            continue
        for k, what in ((0, "real"), (1, "cpu")):
            p = [t[k] for t in by_side["parent"][:n]]
            c = [t[k] for t in by_side["change"][:n]]
            pm, cm = statistics.median(p), statistics.median(c)
            p25, p75 = quartiles(p)
            c25, c75 = quartiles(c)
            wins = sum(1 for a, b in zip(p, c) if b < a)
            print(f"{name:32s} {what:4s} parent {pm:9.4f} (IQR {p75 - p25:.4f}) "
                  f"change {cm:9.4f} (IQR {c75 - c25:.4f}) {units[name]}  "
                  f"speedup {pm / cm:5.3f}x  change won {wins}/{n}")


if __name__ == "__main__":
    main()
