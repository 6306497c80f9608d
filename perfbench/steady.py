"""Steadiness of the benchmark: one workload run N times, summarised.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload live_serving --runs 10 --seed 1
    python3 perfbench/steady.py --workload live_serving --runs 10 --seed 1 --vary-seed

The first form repeats one seed, so the spread is the machine's alone;
``--vary-seed`` uses seeds ``seed .. seed+N-1``, as a regression check
does, so the spread also holds the inputs' variation. For every
end-to-end metric it prints the median, quartiles, minimum, maximum and
the quartile spread (Q3 - Q1) / median, drift-corrected and raw, plus
the share of failed operations. Runs are made one after another, each
in its own process. ``--json PATH`` also writes every run's values.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    started = time.perf_counter()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run failed (seed {seed}):\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    raw = next(json.loads(line.split(" ", 1)[1]) for line in lines
               if line.startswith("raw-metrics "))
    return {
        "seed": seed,
        "wall_s": time.perf_counter() - started,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "corrected": {name: entry["value"] for name, entry in result["metrics"].items()},
        "raw": raw,
    }


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return middle, q1, q3, min(values), max(values), (q3 - q1) / middle if middle else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--vary-seed", action="store_true")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--json", default=None, help="write every run's values here")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        contract = json.load(handle)
    seconds = args.seconds or contract["run_seconds"]
    bounds = {entry["name"]: entry["bound"] for entry in contract["end_to_end"]}

    runs = []
    for index in range(args.runs):
        seed = args.seed + index if args.vary_seed else args.seed
        runs.append(one_run(args.workload, seed, seconds))
        print(f"run {index + 1}/{args.runs} seed {seed}: {runs[-1]['wall_s']:.1f}s",
              file=sys.stderr)

    shares = sorted({run["failed"] / run["attempted"] for run in runs})
    print(f"{args.workload}: {args.runs} runs, "
          f"{'seeds ' + str(args.seed) + '..' + str(args.seed + args.runs - 1) if args.vary_seed else 'seed ' + str(args.seed)}, "
          f"{seconds} s each; failed share(s) {shares}; "
          f"wall median {statistics.median(run['wall_s'] for run in runs):.1f}s")
    header = f"{'metric':<20} {'kind':<9} {'median':>12} {'q1':>12} {'q3':>12} " \
             f"{'min':>12} {'max':>12} {'spread':>7} {'bound':>6}"
    print(header)
    for name in bounds:
        for kind in ("corrected", "raw"):
            middle, q1, q3, low, high, spread = summarise([run[kind][name] for run in runs])
            print(f"{name:<20} {kind:<9} {middle:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{low:12.6g} {high:12.6g} {spread:7.3f} {bounds[name]:6.2f}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "seconds": seconds, "runs": runs},
                      handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
