"""Run the benchmark over several seeds and report medians and spreads.

    python3 perfbench/spread.py --seeds 1-10 [--workloads picard3d ...]
                                [--trace] [--out perfbench/baseline.json]

For each workload and seed it runs run.py as BENCHMARK.json's command does,
then prints per metric the median of the per-run values and the spread:
the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median.  It also
pools the item samples of all runs and gives their median, the highest
percentile with at least ten samples above it, and the sample count.
--out writes all of it, with the machine record, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import ROOT, tail

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    start = time.perf_counter()
    done = subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = done.stdout.splitlines()
    detail = next(json.loads(line[7:]) for line in lines
                  if line.startswith("detail "))
    machine = next(json.loads(line[10:]) for line in lines
                   if line.startswith("# machine "))
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - start
    return result, detail, machine


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    metrics = SPEC["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    out = {"seconds": args.seconds, "seeds": args.seeds,
           "trace": args.trace, "workloads": {}}
    runs = {workload: [] for workload in args.workloads}
    items = {workload: [] for workload in args.workloads}
    setup = {workload: [] for workload in args.workloads}
    # Seed by seed through all workloads, so that a slow drift of the
    # machine's speed is shared by every workload instead of landing on one.
    for seed in args.seeds:
        for workload in args.workloads:
            result, detail, out["machine"] = run_once(
                workload, seed, args.seconds, int(args.trace))
            runs[workload].append(result)
            items[workload] += [i for i in detail["items"] if not i["traced"]]
            setup[workload] += detail["setup"]
            print(f"{workload} seed {seed}: {result['wall_s']:.1f} s wall, "
                  f"attempted {result['attempted']} "
                  f"failed {result['failed']} " + " ".join(
                      f"{k}={v['value']:.6g}"
                      for k, v in result["metrics"].items()), flush=True)
    for workload in args.workloads:
        print(workload)
        runs_w, items_w = runs[workload], items[workload]
        summary = {"wall_s": [r["wall_s"] for r in runs_w],
                   "attempted": sum(r["attempted"] for r in runs_w),
                   "failed": sum(r["failed"] for r in runs_w),
                   "metrics": {}, "pooled": {}}
        for metric in metrics:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs_w]
            row = {"median": statistics.median(values), "unit": metric["unit"],
                   "values": values}
            if len(values) >= 2 and row["median"]:
                row["spread"] = spread(values)
            summary["metrics"][name] = row
            text = f"  {name}: median {row['median']:.6g} {metric['unit']}"
            if "spread" in row:
                text += f", spread {row['spread']:.4f}"
            if bounds[name] is not None and "spread" in row:
                flag = "ok" if row["spread"] < bounds[name] / 3 else "WIDE"
                text += f" (bound {bounds[name]}, {flag})"
            print(text)
        pools = {"run_s": [i["run_s"] for i in items_w],
                 "cpu_s": [i["cpu_s"] for i in items_w],
                 "setup_s": setup[workload]}
        for name, values in pools.items():
            if not values:
                continue
            high = tail(values)
            summary["pooled"][name] = {
                "median": statistics.median(values), "samples": len(values),
                "tail": None if high is None else
                {"percentile": high[0], "value": high[1]}}
            print(f"  pooled {name}: median {statistics.median(values):.6g} s,"
                  f" {len(values)} samples, tail "
                  + ("none" if high is None
                     else f"p{high[0]:.0f} {high[1]:.6g} s"))
        out["workloads"][workload] = summary
    if args.out:
        args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
