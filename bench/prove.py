"""Repeat the benchmark over seeds and summarize its spread.

    python3 bench/prove.py --workloads census pipeline search --runs 10
    python3 bench/prove.py --workloads search --runs 5 --first-seed 101

Runs `bench/run.py` once per (workload, seed), one after another, each in
its own process, and reports per end-to-end metric the median, the first
and third quartiles (statistics.quantiles, n=4) and the spread: the
interquartile distance as a share of the median, next to a third of the
metric's bound from BENCHMARK.json.  `--out FILE` also writes the summary
and every run's result as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    result["seed"] = seed
    return result


def summarize(results: list[dict], bounds: dict) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "bound": bounds[name],
            "values": values,
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {}
    for workload in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            r = run_once(workload, seed, args.seconds)
            results.append(r)
            print(f"{workload} seed {seed}: {r['attempted']} jobs, "
                  f"{r['failed']} failed, correct {r['correct']}, "
                  f"wall {r['wall_s']:.1f} s", flush=True)
        table = summarize(results, bounds) if args.runs >= 2 else {}
        for name, row in table.items():
            print(f"  {name:26s} median {row['median']:.6g} {row['unit']}, "
                  f"q1 {row['q1']:.6g}, q3 {row['q3']:.6g}, spread "
                  f"{row['spread']:.4f} (bound/3 {row['bound'] / 3:.3f})",
                  flush=True)
        summary[workload] = {"runs": results, "metrics": table}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
