"""Record reference.json: the key outputs of one item per pool seed.

    python3 perfbench/reference.py [workload ...]

Run at the commit whose results are the reference.  Every item must pass
its acceptance thresholds; the key outputs it produced become the values
later runs are compared with (workloads.RTOL).
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import run
from workloads import POOL, RTOL, WORKLOADS


def main(names) -> int:
    os.environ["FBNS_THREADS"] = "1"
    cli = run.import_cli()
    try:
        with open(run.REFERENCE, encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError:
        data = {"workloads": {}}
    data["rtol"] = RTOL
    data["git_rev"] = run.machine.git_rev(run.ROOT)
    run.WORK.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        table = {}
        with tempfile.TemporaryDirectory(dir=run.WORK) as parent:
            for seed in POOL:
                item = run.run_item(cli, workload, seed, parent,
                                    {str(seed): {}})
                if item["failures"]:
                    print(f"{name} seed {seed}: {item['failures']}",
                          file=sys.stderr)
                    return 1
                table[str(seed)] = item["key"]
                print(f"{name} seed {seed}: {item['run_s']:.3f} s "
                      f"{item['key']}", flush=True)
        data["workloads"][name] = table
    run.WORK.rmdir()
    with open(run.REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
