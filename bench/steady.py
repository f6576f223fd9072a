"""Steadiness check for the csmod benchmark.

    python3 bench/steady.py [--workloads count,sigma,series] [--runs 10]
                            [--first-seed 1]

Runs bench/run.py --trace 0 once per seed (first-seed, first-seed + 1, ...)
on each workload, one run at a time, and prints for every end-to-end
metric its median, quartiles and interquartile spread as a share of the
median, next to the metric's bound in BENCHMARK.json, and the same
spread of the uncalibrated times.  A spread above a third of its bound
is marked; setup_s is only judged by its median.  It also prints the
share of failed operations per workload, which must not depend on the
seed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n"
                 f"{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    for line in done.stderr.splitlines():
        if line.startswith("uncalibrated "):
            result["uncalibrated"] = json.loads(line.split(" ", 1)[1])
    return result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in args.workloads.split(","):
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            results.append(one_run(workload, seed, spec["run_seconds"]))
            print(f"  {workload} seed {seed}: "
                  + json.dumps({k: round(v["value"], 4) for k, v
                                in results[-1]["metrics"].items()}),
                  flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: correct {all(r['correct'] for r in results)}, "
              f"failed share {sorted(shares)}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            judged = name != "setup_s"
            flag = " <-- above bound/3" if judged and spread > bound / 3 else ""
            print(f"  {name:12s} median {med:12.5f}  q1 {q1:12.5f}  "
                  f"q3 {q3:12.5f}  spread {spread:7.2%}  bound {bound:.0%}"
                  f"{flag}")
            if name in results[0].get("uncalibrated", {}):
                raw = [r["uncalibrated"][name] for r in results]
                q1, med, q3 = statistics.quantiles(raw, n=4)
                print(f"  {'':12s} uncalibrated median {med:12.5f}  "
                      f"spread {(q3 - q1) / med:7.2%}")


if __name__ == "__main__":
    main()
