"""The three benchmark workloads: the CLI calls of one item, its gate, its size.

An item is the unit that gets timed: the `fbns` CLI calls a user would make
for one result.  Program seeds come from a fixed pool, so every item's key
outputs can be compared with values recorded from the baseline commit in
reference.json.  The benchmark seed only picks the order in which a run
walks through the pool.
"""

from __future__ import annotations

import json
import math
import os
import random

POOL = tuple(range(16))

# Relative tolerance on key outputs against reference.json.  Loose enough
# for a refactor that moves results at rounding level (500 IF-RK4 steps
# amplify rounding somewhat), tight enough to catch a wrong result.
RTOL = 1e-6
ATOL = 1e-12

COMPLEX_BYTES = 16
CHECKPOINT_HEADER_BYTES = 22


def field_bytes(dim: int, n: int, ncomp: int) -> int:
    return ncomp * n ** dim * COMPLEX_BYTES


def _load(workdir: str, name: str) -> dict:
    with open(os.path.join(workdir, name), encoding="utf-8") as handle:
        return json.load(handle)


class Workload:
    """One workload: `calls(seed)` lists the CLI argument vectors of an item
    (without --workdir); `check(workdir, stdouts)` returns (failures, key
    outputs) for the item just run."""

    name = ""
    why = ""
    working_set = ""

    def working_set_bytes(self) -> int:
        raise NotImplementedError

    def calls(self, seed: int) -> list:
        raise NotImplementedError

    def check(self, workdir: str, stdouts: list) -> tuple:
        raise NotImplementedError

    def seeds(self, bench_seed: int):
        """Program seeds for consecutive items: a seeded shuffle of the pool,
        repeated as often as the run needs."""
        order = random.Random(bench_seed).sample(POOL, len(POOL))
        k = 0
        while True:
            yield order[k % len(order)]
            k += 1


class Picard3D(Workload):
    name = "picard3d"
    why = ("c07 Picard solve of the 3d rotating equations, 32^3 x 65 samples, "
           "then a read-back of its final checkpoint: memory-bound, five "
           "~100 MB trajectories against the L3")
    working_set = "five live trajectories of 65 x 3 x 32^3 complex128"

    def working_set_bytes(self) -> int:
        return 5 * 65 * field_bytes(3, 32, 3)

    def calls(self, seed: int) -> list:
        return [["solve3d", "--set", "n=32", "--set", "period_l=1",
                 "--set", "omega=10", "--set", "horizon=1",
                 "--set", "dt=0.015625", "--set", "amplitude=0.028125",
                 "--set", f"seed={seed}"],
                ["checkpoint", "--input", "solve3d_final.fbns"]]

    def check(self, workdir: str, stdouts: list) -> tuple:
        diag = _load(workdir, "solve3d_manifest.json")["diagnostics"]
        roundtrip = json.loads(stdouts[1])
        failures = []
        if not diag["converged"] or diag["aborted"]:
            failures.append(f"not converged: {diag['message']}")
        if not diag["gate"]["passed"]:
            failures.append("smallness gate failed")
        if not all(r <= 0.5 for r in diag["ratios"]):
            failures.append(f"contraction ratio above 0.5: {diag['ratios']}")
        if not diag["residual_estimate"] <= 1e-8:
            failures.append(f"residual {diag['residual_estimate']} > 1e-8")
        if not roundtrip["roundtrip_identical"]:
            failures.append("final checkpoint round trip not identical")
        final = roundtrip["bytes"]
        if final != CHECKPOINT_HEADER_BYTES + field_bytes(3, 32, 3):
            failures.append(f"final checkpoint has {final} bytes")
        key = {"iterations": diag["iterations"],
               "linear_norm": diag["linear_norm"],
               "solution_norm": diag["iterate_norms"][-1],
               "gate_norm": diag["gate"]["norm"]}
        return failures, key


class Vortex2D(Workload):
    name = "vortex2d"
    why = ("c10 vorticity run, 128^2, 500 IF-RK4 steps: FFT-bound on an "
           "L2-resident field, never calls semigroup or lp")
    working_set = "one 128^2 complex128 vorticity field plus RK4 stages"

    def working_set_bytes(self) -> int:
        return field_bytes(2, 128, 1)

    def calls(self, seed: int) -> list:
        return [["solve2d", "--set", "initial=random", "--set", "n=128",
                 "--set", "dt=0.002", "--set", "n_steps=500",
                 "--set", "sample_every=50", "--set", f"seed={seed}"]]

    def check(self, workdir: str, stdouts: list) -> tuple:
        summary = _load(workdir, "solve2d_manifest.json")["summary"]
        failures = []
        key = {}
        for p in ("2.0", "4.0"):
            for margin in ("vorticity_margin", "cz_margin"):
                value = summary[p][margin]
                if not (isinstance(value, float) and value >= -1e-10):
                    failures.append(f"p={p} {margin} = {value} < -1e-10")
                key[f"p{p}_{margin}"] = value
            key[f"p{p}_gronwall_constant"] = summary[p]["gronwall_constant"]
        return failures, key


class LabEnsemble(Workload):
    name = "lab_ensemble"
    inequalities = ("duhamel", "product", "semigroup")
    why = ("c12 estimate lab, three inequalities x 40 members on 16^3: many "
           "small trajectories, lp and semigroup dominate")
    working_set = "one 17 x 3 x 16^3 complex128 member trajectory"

    def working_set_bytes(self) -> int:
        return 17 * field_bytes(3, 16, 3)

    def calls(self, seed: int) -> list:
        return [["lab", "--set", f"inequality={ineq}", "--set", "ensemble=20",
                 "--set", "n=16", "--set", "n_samples=17",
                 "--set", f"seed={seed}", "--set", f"output=lab_{ineq}.json"]
                for ineq in self.inequalities]

    def check(self, workdir: str, stdouts: list) -> tuple:
        failures = []
        key = {"members": 0}
        for ineq in self.inequalities:
            report = _load(workdir, f"lab_{ineq}.json")["report"]
            stability = report["stability"]
            if not report["passed"] or stability is None or not stability < 0.2:
                failures.append(f"{ineq}: passed={report['passed']} "
                                f"stability={stability}")
            key[f"{ineq}_max_ratio"] = report["max_ratio"]
            key[f"{ineq}_median_ratio"] = report["median_ratio"]
            key["members"] += len(report["ratios"])
        return failures, key


WORKLOADS = {w.name: w for w in (Picard3D(), Vortex2D(), LabEnsemble())}


def compare(key: dict, reference: dict) -> list:
    """Failures where a key output leaves the reference tolerance."""
    failures = []
    for name, want in reference.items():
        got = key.get(name)
        if isinstance(want, float):
            ok = (isinstance(got, (int, float)) and
                  math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL))
        else:
            ok = got == want
        if not ok:
            failures.append(f"{name} = {got!r}, reference {want!r}")
    return failures
