"""fbns benchmark: drive one workload through `fbns.cli.main` and report.

    python3 perfbench/run.py --workload picard3d --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
With --trace 0 the run imports fbns.cli and then, until --seconds have
passed, runs items one after another with set-up samples (fresh
interpreters importing fbns.cli) spread between them; it reports the
end-to-end metrics, `run_s` and `cpu_s` as seconds per item over the whole
run.  With --trace 1 it runs pairs of items on the same
program seed, the first untraced and the second under the outside-in
tracer (tracer.py), and reports the per-layer metrics and the tracing
overhead.  Every item is checked against the acceptance
thresholds and against reference.json; a nonzero exit code, an exception
or a failed check makes the item fail.

Lines starting with '#' are the human-readable report; the line starting
with 'detail ' carries every sample for spread.py; the last line is the
JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import machine
import tracer
from workloads import WORKLOADS, compare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"
SETUP_SAMPLES = 5

END_TO_END = {"run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "setup_s": "s"}
LAYERS = ("cli", "checkpoint", "spectral", "lp", "semigroup", "solver3d",
          "solver2d", "lab", "trajectory")
PER_LAYER = dict(
    [(f"{layer}.{kind}", unit) for layer in LAYERS
     for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [("spectral.fft_calls", "count"), ("spectral.fft_s", "s"),
       ("spectral.fft_bytes", "B"), ("lp.norm_calls", "count"),
       ("solver3d.picard_iterations", "count"),
       ("solver3d.pair_forcing_calls", "count"),
       ("trajectory.difference_bytes", "B"), ("solver2d.rk4_steps", "count"),
       ("checkpoint.bytes_written", "B"), ("checkpoint.bytes_read", "B"),
       ("lab.members", "count"), ("trace.overhead_s", "s"),
       ("trace.unattributed_s", "s")])
# Counts read from the item's own outputs rather than from spans.
FROM_OUTPUTS = {"solver3d.picard_iterations": "iterations",
                "lab.members": "members"}


def tail(values):
    """(percent, value) of the highest percentile with at least ten samples
    above it, or None when there are fewer than eleven samples."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    rank = len(ordered) - 11
    return 100.0 * (rank + 1) / len(ordered), ordered[rank]


def describe(name, unit, values):
    text = (f"# {name}: mean {statistics.fmean(values):.6g} {unit}, median "
            f"{statistics.median(values):.6g} {unit} over {len(values)} samples")
    high = tail(values)
    if high is None:
        return text + "; no tail percentile (needs >= 11 samples)"
    return text + f"; p{high[0]:.0f} {high[1]:.6g} {unit}"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["FBNS_THREADS"] = "1"
    return env


def setup_sample() -> float:
    """Wall seconds from starting a fresh interpreter to `import fbns.cli`
    done.  time.perf_counter is the system-wide monotonic clock on Linux, so
    the child's reading can be compared with the parent's."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c",
         "import time, fbns.cli; print(repr(time.perf_counter()))"],
        env=child_env(), check=True, capture_output=True, text=True,
        timeout=120)
    return float(done.stdout.split()[-1]) - start


def import_cli():
    sys.path.insert(0, str(SRC))
    import fbns.cli
    if Path(fbns.cli.__file__).resolve().parent != SRC / "fbns":
        raise ImportError(f"fbns imported from {fbns.cli.__file__}, "
                          f"not from {SRC}")
    return fbns.cli


def run_item(cli, workload, seed, parent_dir, reference, trace=None):
    """Run one item in a fresh workdir; return its timings and verdict."""
    workdir = tempfile.mkdtemp(dir=parent_dir)
    item = {"seed": seed, "run_s": 0.0, "cpu_s": 0.0, "failures": [],
            "key": {}, "traced": trace is not None}
    stdouts = []
    first = len(trace.spans) if trace else 0
    before = Counter(trace.counters) if trace else Counter()
    try:
        with trace or contextlib.nullcontext():
            for argv in workload.calls(seed):
                argv = [argv[0], "--workdir", workdir] + argv[1:]
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    cpu0, wall0 = time.process_time(), time.perf_counter()
                    try:
                        code = cli.main(argv)
                    except Exception as exc:  # an item fails, the run goes on
                        code = f"{type(exc).__name__}: {exc}"
                    wall1, cpu1 = time.perf_counter(), time.process_time()
                item["run_s"] += wall1 - wall0
                item["cpu_s"] += cpu1 - cpu0
                stdouts.append(buf.getvalue())
                if code != 0:
                    item["failures"].append(f"{argv[0]} exited with {code}")
        if not item["failures"]:
            try:
                failures, key = workload.check(workdir, stdouts)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                failures, key = [f"outputs unreadable: {exc!r}"], {}
            item["key"] = key
            item["failures"] += failures
            item["failures"] += compare(key, reference[str(seed)])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace is not None:
        layers = tracer.summarize(trace.spans, first, len(trace.spans))
        layers.update(trace.counters - before)
        for metric, key in FROM_OUTPUTS.items():
            layers[metric] = item["key"].get(key, 0)
        layers["trace.unattributed_s"] = item["run_s"] - sum(
            v for k, v in layers.items() if k.endswith(".self_s"))
        item["layers"] = dict(layers)
        item["missing_hooks"] = trace.missing_hooks()
    return item


def run_items(cli, workload, args, reference, setup_samples) -> tuple:
    """Run items until --seconds have passed, and take `setup_samples`
    set-up samples spread evenly over the same window, so that the set-up
    median sees the same machine as the items.  At least one item runs; after
    it, no item starts that would end past the window if it took as long as
    the one before."""
    seeds = workload.seeds(args.seed)
    trace = tracer.Tracer()  # one for the run: spans are kept until it ends
    items, setup = [], []
    WORK.mkdir(exist_ok=True)
    parent_dir = tempfile.mkdtemp(dir=WORK)
    try:
        start = time.perf_counter()
        while True:
            seed = next(seeds)
            began = time.perf_counter()
            items.append(run_item(cli, workload, seed, parent_dir, reference))
            if args.trace:
                items.append(run_item(cli, workload, seed, parent_dir,
                                      reference, trace))
            step = time.perf_counter() - began
            share = min(1.0, (time.perf_counter() - start) / args.seconds)
            while len(setup) < math.ceil(setup_samples * share):
                setup.append(setup_sample())
            if time.perf_counter() - start + step > args.seconds:
                break
        while len(setup) < setup_samples:
            setup.append(setup_sample())
    finally:
        shutil.rmtree(parent_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    return items, setup


def end_to_end(items, setup) -> dict:
    """run_s and cpu_s are seconds per item over the whole run, the inverse
    of its throughput: on a shared host whose speed wanders over tens of
    seconds the mean uses every item, where the median of a few long items
    follows whichever stretch they fell in."""
    return {
        "run_s": statistics.fmean(i["run_s"] for i in items),
        "cpu_s": statistics.fmean(i["cpu_s"] for i in items),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "setup_s": statistics.median(setup),
    }


def per_layer(items) -> dict:
    traced = [i for i in items if i["traced"]]
    plain = [i for i in items if not i["traced"]]
    out = {name: statistics.median(i["layers"].get(name, 0) for i in traced)
           for name in PER_LAYER}
    out["trace.overhead_s"] = (statistics.median(i["run_s"] for i in traced)
                               - statistics.median(i["run_s"] for i in plain))
    return out


def report(workload, args, items, setup, record):
    failed = sum(1 for i in items if i["failures"])
    print(f"# workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(items)} items, {failed} failed, fail_frac "
          f"{failed / len(items):.6g}")
    for i in items:
        for failure in i["failures"]:
            print(f"# FAIL seed {i['seed']}: {failure}")
    plain = [i for i in items if not i["traced"]]
    print(describe("run_s", "s", [i["run_s"] for i in plain]))
    print(describe("cpu_s", "s", [i["cpu_s"] for i in plain]))
    if setup:
        print(describe("setup_s", "s", setup))
    caches = record["caches"]
    print(f"# working set (computed): {workload.working_set_bytes() / 1e6:.3g}"
          f" MB, {workload.working_set}; L2 {caches.get('L2', '?')}, "
          f"L3 {caches.get('L3', '?')} per cache instance")
    print(f"# machine {json.dumps(record, sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fbns" / "cli.py").is_file():
        print(f"error: no fbns sources under {SRC}", file=sys.stderr)
        return 2
    os.environ["FBNS_THREADS"] = "1"
    workload = WORKLOADS[args.workload]
    with open(REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)["workloads"][workload.name]

    # Importing here also fills the bytecode cache of a fresh checkout, so
    # no set-up sample (all are taken later) pays for compiling.
    cli = import_cli()
    record = machine.record(ROOT)
    items, setup = run_items(cli, workload, args, reference,
                             0 if args.trace else SETUP_SAMPLES)

    report(workload, args, items, setup, record)
    metrics = per_layer(items) if args.trace else end_to_end(items, setup)
    units = PER_LAYER if args.trace else END_TO_END
    if args.trace:
        missing = sorted({h for i in items for h in i.get("missing_hooks", ())})
        print(f"# counter hooks whose function is gone: {missing or 'none'}")
    for name, value in metrics.items():
        computed = " (computed)" if units[name] == "B" else ""
        print(f"# {name} = {value!r} {units[name]}{computed}")
    print("detail " + json.dumps({"items": items, "setup": setup}))
    failed = sum(1 for i in items if i["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(items),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
