"""Batch command line front end.

Subcommands read an INI config file with one section per subcommand,
merge --set key=value overrides and a few direct flags on top, validate
the result, and run the corresponding library routine.  Outputs are
JSON/CSV/FBNS files written atomically under --workdir; every manifest
echoes the fully resolved configuration so a run can be reproduced bit
for bit from its own artifacts.

Exit codes: 0 success, 1 validation or usage error, 2 numerical failure
(diagnostics are still written in that case).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import math
import os
import sys

import numpy as np

from . import lab as lab_mod
from .checkpoint import (CheckpointError, atomic_write_json,
                         atomic_write_text, json_text, read_field,
                         roundtrip_report, write_field)
from .lp import critical_index, fb_norm, fb_norm_value
from .semigroup import apply_semigroup
from .solver2d import (SupportError, gaussian_vortex, gronwall_diagnostic,
                       rotating_frame_residual, run_vorticity)
from .solver3d import SolverConfig3D, picard_solve
from .spectral import (Grid, SpectralField, curl, divergence_defect,
                       random_divfree_field, random_scalar_field,
                       taylor_green_2d, taylor_green_3d)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2

_REQUIRED = object()


class UsageError(Exception):
    pass


def _to_bool(raw: str) -> bool:
    lowered = str(raw).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _to_floats(raw: str) -> list:
    text = str(raw).strip()
    if not text:
        return []
    return [float(part) for part in text.split(",")]


# A domain is (description, test): resolve_config refuses, before any runner
# starts, a value whose test fails or cannot read it.
ANY = ("any value", lambda v: True)
FINITE = ("finite", math.isfinite)
POSITIVE = ("positive", lambda v: v > 0)
POSITIVE_FINITE = ("positive and finite", lambda v: 0 < v < math.inf)
NON_NEGATIVE = ("non-negative", lambda v: v >= 0)
NON_NEGATIVE_FINITE = ("non-negative and finite", lambda v: 0 <= v < math.inf)
AT_LEAST_ONE = (">= 1", lambda v: v >= 1)
AT_LEAST_TWO = (">= 2", lambda v: v >= 2)
ABOVE_ONE = ("> 1", lambda v: v > 1)
GRID_N = ("even and >= 8", lambda v: v >= 8 and v % 2 == 0)
LEBESGUE_LIST = ("non-empty, with every element >= 1", lambda v: v and all(x >= 1 for x in v))
FINITE_LIST = ("non-empty, with every element finite", lambda v: v and all(map(math.isfinite, v)))
FINITE_VALUES = ("a list of finite values", lambda v: all(map(math.isfinite, v)))
AUTO_OR_FINITE = ("auto or finite", lambda v: v == "auto" or math.isfinite(float(v)))


def _one_of(*choices) -> tuple:
    return ("one of " + ", ".join(choices), lambda v: v in choices)


# key -> (converter, default, domain); _REQUIRED means the key must be supplied
SCHEMAS = {
    "fbnorm": {
        "input": (str, _REQUIRED, ANY),
        "s": (float, _REQUIRED, FINITE),
        "p": (float, 2.0, AT_LEAST_ONE),
        "r": (float, 2.0, AT_LEAST_ONE),
    },
    "semigroup": {
        "input": (str, "", ANY),
        "seed": (int, 0, NON_NEGATIVE),
        "n": (int, 16, GRID_N),
        "period_l": (float, 4.0, POSITIVE_FINITE),
        "t": (float, 0.1, NON_NEGATIVE_FINITE),
        "omega": (float, 0.0, FINITE),
        "output": (str, "semigroup_out.fbns", ANY),
        "manifest": (str, "semigroup_manifest.json", ANY),
    },
    "solve3d": {
        "n": (int, 32, GRID_N),
        "period_l": (float, 4.0, POSITIVE_FINITE),
        "omega": (float, 0.0, FINITE),
        "p": (float, 2.0, ABOVE_ONE),
        "r": (float, 2.0, AT_LEAST_ONE),
        "horizon": (float, 1.0, POSITIVE_FINITE),
        "dt": (float, 1.0 / 64.0, POSITIVE_FINITE),
        "max_iterations": (int, 25, AT_LEAST_ONE),
        "tolerance": (float, 1e-9, POSITIVE),
        "nonlinearity": (_to_bool, True, ANY),
        "initial": (str, "random", _one_of("taylor-green", "random")),
        "seed": (int, 0, NON_NEGATIVE),
        "amplitude": (float, 0.05, FINITE),
        "save_trajectory": (_to_bool, False, ANY),
        "output_prefix": (str, "solve3d", ANY),
    },
    "solve2d": {
        "n": (int, 64, GRID_N),
        "period_l": (float, 1.0, POSITIVE_FINITE),
        "dt": (float, 1e-3, POSITIVE_FINITE),
        "n_steps": (int, 500, NON_NEGATIVE),
        "sample_every": (int, 100, AT_LEAST_ONE),
        "initial": (str, "taylor-green", _one_of("taylor-green", "gaussian", "random")),
        "amplitude": (float, 1.0, FINITE),
        "width_sq": (float, 0.1, POSITIVE_FINITE),
        "seed": (int, 0, NON_NEGATIVE),
        "omega": (float, 0.0, FINITE),
        "p_values": (_to_floats, [2.0, 4.0], LEBESGUE_LIST),
        "t1_index": (int, 0, ANY),  # its range depends on the sample count
        "residual": (_to_bool, False, ANY),
        "mask_radius": (float, 1.5, POSITIVE_FINITE),
        "output_prefix": (str, "solve2d", ANY),
    },
    "lab": {
        "inequality": (str, "semigroup",
                       _one_of("duhamel", "product", "semigroup", "omega-scan")),
        "s": (str, "auto", AUTO_OR_FINITE),
        "p": (float, 2.0, AT_LEAST_ONE),
        "r": (float, 2.0, AT_LEAST_ONE),
        "q": (float, 1.0, AT_LEAST_ONE),
        "a": (float, 1.0, AT_LEAST_ONE),
        "omega": (float, 0.0, FINITE),
        "ensemble": (int, 20, AT_LEAST_ONE),
        "seed": (int, 0, NON_NEGATIVE),
        "n": (int, 16, GRID_N),
        "period_l": (float, 4.0, POSITIVE_FINITE),
        "horizon": (float, 1.0, POSITIVE_FINITE),
        "n_samples": (int, 17, AT_LEAST_TWO),
        "s_values": (_to_floats, [], FINITE_VALUES),
        "omegas": (_to_floats, [0.0, 10.0, 100.0], FINITE_LIST),
        "experiment": (str, "linear", _one_of("linear", "contraction")),
        "output": (str, "lab_report.json", ANY),
        "csv": (str, "", ANY),
    },
    "checkpoint": {
        "input": (str, _REQUIRED, ANY),
    },
}

_DIRECT_FLAGS = {
    "fbnorm": ("input", "s", "p", "r"),
    "checkpoint": ("input",),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage().rstrip()}")


def build_parser() -> _Parser:
    parser = _Parser(prog="fbns",
                     description="pseudo-spectral rotating Navier-Stokes toolkit")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    for name in SCHEMAS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="INI config file with a [%s] section" % name)
        p.add_argument("--workdir", default=".",
                       help="directory for inputs/outputs (created if missing)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       dest="overrides", help="override a config key")
        for flag in _DIRECT_FLAGS.get(name, ()):
            p.add_argument(f"--{flag}", default=None)
    return parser


def _convert(name: str, key: str, raw):
    converter, _, _ = SCHEMAS[name][key]
    try:
        return converter(raw)
    except ValueError as exc:
        raise UsageError(f"bad value for {name}.{key}: {exc}")


def resolve_config(name: str, args) -> dict:
    schema = SCHEMAS[name]
    values = {key: default for key, (_, default, _) in schema.items()}

    if args.config is not None:
        path = os.path.join(args.workdir, args.config) \
            if not os.path.isabs(args.config) else args.config
        if not os.path.exists(path):
            raise UsageError(f"config file not found: {path}")
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read(path)
        except configparser.Error as exc:
            raise UsageError(f"malformed config file: {exc}")
        for section in parser.sections():
            if section not in SCHEMAS:
                raise UsageError(f"unknown config section [{section}]")
        if parser.has_section(name):
            for key, raw in parser.items(name):
                if key not in schema:
                    raise UsageError(f"unknown config key {name}.{key}")
                values[key] = _convert(name, key, raw)

    for item in args.overrides:
        if "=" not in item:
            raise UsageError(f"--set expects KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        key = key.strip()
        if key not in schema:
            raise UsageError(f"unknown config key {name}.{key}")
        values[key] = _convert(name, key, raw)

    for flag in _DIRECT_FLAGS.get(name, ()):
        raw = getattr(args, flag, None)
        if raw is not None:
            values[flag] = _convert(name, flag, raw)

    missing = [key for key, val in values.items() if val is _REQUIRED]
    if missing:
        raise UsageError(f"missing required config key(s) for {name}: "
                         + ", ".join(sorted(missing)))
    for key, (_, _, (description, test)) in schema.items():
        try:
            valid = test(values[key])
        except ValueError:
            valid = False
        if not valid:
            raise UsageError(f"{key} must be {description}, got {values[key]}")
    return values


def _resolve_path(workdir: str, path: str) -> str:
    return path if os.path.isabs(path) else os.path.join(workdir, path)


def _write_csv(path: str, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(path, buf.getvalue())


def _print_json(obj):
    print(json_text(obj))


def _write_finite(workdir: str, name: str, field: SpectralField) -> str | None:
    """Write field as workdir/name and return name, or write nothing and return
    None when a coefficient is not finite, as no checkpoint reader accepts it."""
    if not np.isfinite(field.coeffs).all():
        return None
    write_field(_resolve_path(workdir, name), field)
    return name


# ---------------------------------------------------------------------------
# subcommand runners

def run_fbnorm(cfg: dict, workdir: str) -> int:
    field = read_field(_resolve_path(workdir, cfg["input"]))
    report = fb_norm(field, cfg["s"], cfg["p"], cfg["r"])
    _print_json({"norm_report": report.as_dict(), "config": cfg})
    return EXIT_OK


def run_semigroup(cfg: dict, workdir: str) -> int:
    if cfg["input"]:
        field = read_field(_resolve_path(workdir, cfg["input"]))
    else:
        grid = Grid(dim=3, n=cfg["n"], period_l=cfg["period_l"])
        field = random_divfree_field(grid, seed=(cfg["seed"],))
    out = apply_semigroup(field, cfg["t"], cfg["omega"])
    out_path = _resolve_path(workdir, cfg["output"])
    write_field(out_path, out)
    manifest = {
        "config": cfg,
        "input_l2": field.l2(),
        "output_l2": out.l2(),
        "output_divergence_defect": divergence_defect(out),
        "output_file": cfg["output"],
    }
    atomic_write_json(_resolve_path(workdir, cfg["manifest"]), manifest)
    _print_json(manifest)
    return EXIT_OK


def _solve3d_initial(cfg: dict, grid: Grid) -> SpectralField:
    if cfg["initial"] == "taylor-green":
        return taylor_green_3d(grid, amplitude=cfg["amplitude"])
    u0 = random_divfree_field(grid, seed=(cfg["seed"],))
    norm = fb_norm_value(u0, critical_index(cfg["p"]), cfg["p"], cfg["r"])
    if norm <= 0:
        raise ValueError("degenerate random initial field")
    return SpectralField(grid, u0.coeffs * (cfg["amplitude"] / norm))


def run_solve3d(cfg: dict, workdir: str) -> int:
    grid = Grid(dim=3, n=cfg["n"], period_l=cfg["period_l"])
    config = SolverConfig3D(
        grid=grid, omega=cfg["omega"], p=cfg["p"], r=cfg["r"],
        horizon=cfg["horizon"], dt=cfg["dt"],
        max_iterations=cfg["max_iterations"], tolerance=cfg["tolerance"],
        nonlinearity=cfg["nonlinearity"])
    need = config.memory_bytes
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise UsageError(f"solve3d needs about {need:.3g} bytes, more than the "
                         f"{have:.3g} bytes of physical memory; lower n or horizon/dt")
    traj, diag = picard_solve(_solve3d_initial(cfg, grid), config)

    prefix = cfg["output_prefix"]
    ok = diag.converged and not diag.aborted
    final = _write_finite(workdir, f"{prefix}_final.fbns", traj.field(traj.n_samples - 1))
    manifest = {
        "config": cfg,
        "diagnostics": diag.as_dict(),
        "final_field": final,
        "exit_code": EXIT_OK if ok else EXIT_NUMERICAL,
    }
    atomic_write_json(_resolve_path(workdir, f"{prefix}_manifest.json"), manifest)
    if traj.fb_norms is not None:
        _write_csv(_resolve_path(workdir, f"{prefix}_norms.csv"),
                   ("t", "critical_fb_norm"), zip(traj.times, traj.fb_norms))
    if cfg["save_trajectory"]:
        for k in range(traj.n_samples):
            _write_finite(workdir, f"{prefix}_t{k:04d}.fbns", traj.field(k))
    _print_json({"converged": diag.converged, "aborted": diag.aborted,
                 "iterations": diag.iterations,
                 "message": diag.message,
                 "manifest": f"{prefix}_manifest.json"})
    return EXIT_OK if ok else EXIT_NUMERICAL


def _solve2d_initial(cfg: dict, grid: Grid) -> SpectralField:
    if cfg["initial"] == "taylor-green":
        return curl(taylor_green_2d(grid, amplitude=cfg["amplitude"]))
    if cfg["initial"] == "gaussian":
        return gaussian_vortex(grid, width_sq=cfg["width_sq"],
                               amplitude=cfg["amplitude"])
    return random_scalar_field(grid, seed=(cfg["seed"],),
                               amplitude=cfg["amplitude"])


def run_solve2d(cfg: dict, workdir: str) -> int:
    grid = Grid(dim=2, n=cfg["n"], period_l=cfg["period_l"])
    # refuse key combinations the run's diagnostics cannot use before any stepping
    samples = 1 + -(-cfg["n_steps"] // cfg["sample_every"])
    if cfg["residual"] and samples < 3:
        raise UsageError(f"residual check needs at least three samples, got {samples}")
    if not 0 <= cfg["t1_index"] <= samples - 2:
        raise UsageError("t1_index must name a sample before the last of the run's "
                         f"{samples} samples, got {cfg['t1_index']}")
    w0 = _solve2d_initial(cfg, grid)
    times, states = run_vorticity(w0, cfg["dt"], cfg["n_steps"],
                                  cfg["sample_every"])
    report = gronwall_diagnostic(times, states, cfg["p_values"],
                                 t1_index=cfg["t1_index"])
    prefix = cfg["output_prefix"]
    rows = [(row.t, row.p, row.v_lp, row.w_lp, row.gradv_lp,
             row.cz_margin, row.gronwall_margin) for row in report["rows"]]
    _write_csv(_resolve_path(workdir, f"{prefix}_gronwall.csv"),
               ("t", "p", "v_lp", "w_lp", "gradv_lp", "cz_margin",
                "gronwall_margin"), rows)

    finite = all(math.isfinite(row.v_lp) and math.isfinite(row.w_lp)
                 for row in report["rows"])
    code = EXIT_OK if finite else EXIT_NUMERICAL
    manifest = {
        "config": cfg,
        "summary": {str(p): stats for p, stats in report["summary"].items()},
        "final_field": _write_finite(workdir, f"{prefix}_final.fbns", states[-1].w),
        "gronwall_csv": f"{prefix}_gronwall.csv",
    }
    if cfg["residual"]:
        tail = slice(len(states) - 3, len(states))
        try:
            res = rotating_frame_residual(times[tail],
                                          [st.w for st in states[tail]],
                                          cfg["omega"], cfg["mask_radius"])
        except SupportError as exc:
            print(f"error: {exc}", file=sys.stderr)
            res = {"error": str(exc)}
            code = EXIT_NUMERICAL
        manifest["rotating_frame_residual"] = res
    manifest["exit_code"] = code
    atomic_write_json(_resolve_path(workdir, f"{prefix}_manifest.json"), manifest)
    _print_json({"final_time": float(times[-1]),
                 "manifest": f"{prefix}_manifest.json",
                 "finite": finite})
    return code


def run_lab(cfg: dict, workdir: str) -> int:
    grid = Grid(dim=3, n=cfg["n"], period_l=cfg["period_l"])
    common = dict(p=cfg["p"], r=cfg["r"], ensemble=cfg["ensemble"],
                  grid=grid, horizon=cfg["horizon"],
                  n_samples=cfg["n_samples"], seed=cfg["seed"])
    s_value = None if cfg["s"] == "auto" else float(cfg["s"])
    inequality = cfg["inequality"]
    csv_rows = report = None

    if inequality == "duhamel":
        report = lab_mod.verify_duhamel_smoothing(
            s=s_value, q=cfg["q"], a=cfg["a"], omega=cfg["omega"], **common)
    elif inequality == "product" and cfg["s_values"]:
        reports = [lab_mod.verify_product_estimate(s=s, **common)
                   for s in cfg["s_values"]]
        payload = [rep.as_dict() for rep in reports]
        csv_rows = [(rep.params["s"], rep.max_ratio, rep.median_ratio,
                     rep.stability, rep.passed) for rep in reports]
        failed = any(not math.isfinite(rep.max_ratio) for rep in reports)
    elif inequality == "product":
        report = lab_mod.verify_product_estimate(
            s=0.5 if s_value is None else s_value, **common)
    elif inequality == "semigroup":
        report = lab_mod.verify_semigroup_bounds(omega=cfg["omega"], **common)
    else:  # omega-scan
        kwargs = {}
        if cfg["experiment"] == "linear":
            kwargs = dict(p=cfg["p"], r=cfg["r"], ensemble=cfg["ensemble"],
                          horizon=cfg["horizon"], n_samples=cfg["n_samples"])
        payload = lab_mod.omega_independence_scan(
            cfg["experiment"], cfg["omegas"], grid=grid, seed=cfg["seed"],
            **kwargs)
        failed = any(not math.isfinite(c) for c in payload["constants"])
        csv_rows = list(zip(payload["omegas"], payload["constants"]))
    if report is not None:
        payload = report.as_dict()
        failed = not math.isfinite(report.max_ratio)

    out = {"config": cfg, "report": payload}
    atomic_write_json(_resolve_path(workdir, cfg["output"]), out)
    if cfg["csv"] and csv_rows is not None:
        header = ("omega", "constant") if inequality == "omega-scan" \
            else ("s", "max_ratio", "median_ratio", "stability", "passed")
        _write_csv(_resolve_path(workdir, cfg["csv"]), header, csv_rows)
    _print_json({"output": cfg["output"], "failed": failed})
    return EXIT_NUMERICAL if failed else EXIT_OK


def run_checkpoint(cfg: dict, workdir: str) -> int:
    report = roundtrip_report(_resolve_path(workdir, cfg["input"]))
    _print_json(report)
    return EXIT_OK


RUNNERS = {
    "fbnorm": run_fbnorm,
    "semigroup": run_semigroup,
    "solve3d": run_solve3d,
    "solve2d": run_solve2d,
    "lab": run_lab,
    "checkpoint": run_checkpoint,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        os.makedirs(args.workdir, exist_ok=True)
        cfg = resolve_config(args.command, args)
        return RUNNERS[args.command](cfg, args.workdir)
    except (UsageError, ValueError, CheckpointError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OverflowError, FloatingPointError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
