#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --seeds 1-10 --seconds 34 --trace-seed 1 \\
        --out perfbench/BENCH_1.json

Run it from the repository root. For every workload and seed it runs
``perfbench/run.py`` once untraced, one run at a time, and reports for each
end-to-end metric the median, the quartiles and the spread (interquartile
distance over the median). With ``--trace-seed`` it adds one traced run per
workload for the per-layer metrics. ``--out`` writes the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    with open(os.path.join(".perfbench_out", f"{workload}-seed{seed}-trace{trace}.json"), encoding="utf-8") as fh:
        result["report"] = json.load(fh)
    return result


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else float("inf"), "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="verify,search,simulate")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=34)
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    summary = {"seconds": args.seconds, "seeds": seed_list(args.seeds), "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run(workload, seed, args.seconds, 0) for seed in summary["seeds"]]
        entry = {
            "runs": [{"seed": s, "correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"],
                      "rounds": r["report"]["rounds"], "wall_s": r["report"]["wall_s"],
                      "job_tail": r["report"]["notes"]["job_tail_ms"],
                      "failed_share": r["report"]["notes"]["failed_share"]}
                     for s, r in zip(summary["seeds"], runs)],
            "end_to_end": {},
        }
        for name in runs[0]["metrics"]:
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = stats
            flag = "" if name == "setup_s" or stats["spread"] < bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"{workload:9s} {name:14s} median {stats['median']:12.6g} {stats['unit']:6s} "
                  f"spread {stats['spread']:.4f} (bound {bounds[name]}){flag}", flush=True)
        if args.trace_seed is not None:
            traced = run(workload, args.trace_seed, args.seconds, 1)
            entry["per_layer"] = {k: v for k, v in traced["metrics"].items()}
            entry["trace_seed"] = args.trace_seed
        entry["environment"] = runs[0]["report"]["environment"]
        summary["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
