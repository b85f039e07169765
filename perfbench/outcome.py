"""Outcome sweep: ``mlp_small`` in gravac mode against dense, over several seeds.

    python3 perfbench/outcome.py --seeds 1 2 3 4 5 [--out FILE]

For each seed it runs the workload twice, adaptive and dense, and reports
three numbers: the accuracy gap (dense minus gravac), the float-volume
ratio (dense floats sent over gravac's) and the modeled speedup (dense
modeled time over gravac's), then their median, quartiles and range. This
is measurement only; the acceptance tests keep their own seed and bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD = "mlp_small"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("need at least two seeds for a spread")
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    from gravac.harness import parse_config, run_experiment
    from spread import summarize
    from workloads import WORKLOADS

    workload = WORKLOADS[WORKLOAD]
    build = os.path.join(ROOT, ".bench_build")
    os.makedirs(build, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="outcome-", dir=build)
    rows = []
    try:
        for seed in args.seeds:
            runs = {}
            for mode in ("gravac", "dense"):
                cfg = parse_config(os.path.join(ROOT, workload.config),
                                   dict(workload.settings(seed), mode=mode))
                runs[mode] = run_experiment(cfg, os.path.join(scratch, f"{mode}-{seed}"))
            g, d = runs["gravac"], runs["dense"]
            rows.append({
                "seed": seed,
                "accuracy_gravac": g["metric_value"],
                "accuracy_dense": d["metric_value"],
                "accuracy_gap": d["metric_value"] - g["metric_value"],
                "float_volume_ratio": d["floats_sent_total"] / g["floats_sent_total"],
                "modeled_speedup": d["sim_time_total"] / g["sim_time_total"],
            })
            print(json.dumps(rows[-1]), flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    spread = {}
    for key in ("accuracy_gap", "float_volume_ratio", "modeled_speedup"):
        values = [r[key] for r in rows]
        s = spread[key] = dict(summarize(values), min=min(values), max=max(values))
        print(f"{key:20s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
              f"min {s['min']:.6g}  max {s['max']:.6g}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": WORKLOAD, "seeds": args.seeds, "runs": rows,
                       "spread": spread}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
