#!/usr/bin/env python3
"""Steadiness check for the pinned benchmark.

Runs the benchmark command from BENCHMARK.json once per seed for each
chosen workload, keeps every result line, and reports for each metric the
median, the first and third quartiles (statistics.quantiles, n=4) and the
quartile spread as a share of the median, next to the metric's bound.

    python3 perfbench/steady.py --workloads fig7a_grid --seeds 1-5
    python3 perfbench/steady.py --seeds 1-10 --out perfbench/steadiness

Run it from the repository root. With --out, one JSON file per workload
(and trace mode) is written there holding the raw runs and the summary.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    t = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True)
    elapsed = time.monotonic() - t
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["seed"] = seed
    result["elapsed_s"] = round(elapsed, 3)
    return result


def summarize(runs, bounds):
    names = list(runs[0]["metrics"])
    out = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else None
        entry = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        if name in bounds:
            entry["bound"] = bounds[name]
        out[name] = entry
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    workloads = [w for w in args.workloads.split(",") if w] or [
        w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    for w in workloads:
        runs = [run_once(bench["command"], w, s, bench["run_seconds"], args.trace)
                for s in seeds]
        summary = summarize(runs, bounds)
        print(f"== {w} ({len(runs)} runs, trace {args.trace}, "
              f"all correct: {all(r['correct'] for r in runs)})")
        for name, e in summary.items():
            if args.trace == 0 or e["spread"] is not None:
                flag = ""
                if "bound" in e and e["spread"] is not None and name != "setup_s":
                    flag = "  ok" if e["spread"] < e["bound"] / 3 else "  WIDE"
                spread = "n/a" if e["spread"] is None else f"{e['spread']:.4f}"
                print(f"  {name:36s} median {e['median']:.6g}  spread {spread}{flag}")
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, f"{w}.trace{args.trace}.json")
            with open(path, "w") as f:
                json.dump({"workload": w, "trace": args.trace, "seeds": seeds,
                           "run_seconds": bench["run_seconds"], "summary": summary,
                           "runs": runs}, f, indent=1)
                f.write("\n")


if __name__ == "__main__":
    main()
