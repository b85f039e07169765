"""Run the benchmark once per seed and report each metric's median and spread.

    python3 perfbench/spread.py --workload quad_1m --seeds 1 2 3 4 5 [--out FILE]

Spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median. With
``--out`` the raw values and the summary are written as JSON.
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


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    runs = []
    for seed in args.seeds:
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True)
        wall = time.monotonic() - started
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "wall_s": wall, **result})
        for name, metric in result["metrics"].items():
            if metric["value"] is not None:
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        print(f"seed {seed}: correct={result['correct']} wall {wall:.1f} s", flush=True)

    summary = {name: dict(summarize(v), unit=units[name]) for name, v in values.items()
               if len(v) >= 2}
    for name, s in summary.items():
        print(f"{name:40s} median {s['median']:.6g} {s['unit']}  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seconds": seconds, "runs": runs,
                       "summary": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
