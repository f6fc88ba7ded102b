"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 bench/collect.py [--workloads large-m,cli] [--seeds 1-10] [--seconds N] [--out FILE]

For each workload of BENCHMARK.json it runs bench/run.py once per seed,
one run at a time, with --trace 0.  Per metric it prints the median, the
quartiles (statistics.quantiles with n=4) and the spread (q3 - q1) /
median next to the metric's bound, flagging spreads at or above a third
of the bound.  --out writes the summary as JSON; bench/baseline.json is
the one recorded for the repository's current commit.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import src_lines

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(command, workload, seed, seconds):
    argv = [sys.executable if command[0] == "python3" else command[0], *command[1:],
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    child = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if child.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {child.returncode}\n{child.stderr}")
    return json.loads(child.stdout.strip().splitlines()[-1])


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", type=seed_list)
    parser.add_argument("--seconds", default=spec["run_seconds"], type=int)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(), "numpy": importlib.metadata.version("numpy")},
        "src_lines": src_lines(),
        "seconds": args.seconds,
        "seeds": args.seeds,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        results = [run_once(spec["command"], workload, seed, args.seconds) for seed in args.seeds]
        entry = {"correct": [r["correct"] for r in results], "attempted": [r["attempted"] for r in results],
                 "failed": [r["failed"] for r in results], "metrics": {}}
        print(f"{workload}: correct {entry['correct'].count(True)}/{len(results)}, "
              f"attempted {entry['attempted']}, failed {entry['failed']}")
        for name, bound in bounds.items():
            stats = summarise([r["metrics"][name]["value"] for r in results])
            stats["unit"] = results[0]["metrics"][name]["unit"]
            entry["metrics"][name] = stats
            flag = "" if name == "setup_s" or stats["spread"] < bound / 3 else "  <-- spread >= bound/3"
            print(f"  {name:<12} median {stats['median']:.6g} {stats['unit']:<4} q1 {stats['q1']:.6g} "
                  f"q3 {stats['q3']:.6g} spread {stats['spread']:.4f} bound {bound}{flag}")
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
