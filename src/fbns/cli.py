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
import json
import math
import os
import sys

from . import lab as lab_mod
from .checkpoint import (CheckpointError, atomic_write_json,
                         atomic_write_text, read_field, roundtrip_report,
                         write_field)
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


_CONVERTERS = {
    "str": str,
    "int": int,
    "float": float,
    "bool": _to_bool,
    "floats": _to_floats,
}

# key -> (kind, default); _REQUIRED means the key must be supplied
SCHEMAS = {
    "fbnorm": {
        "input": ("str", _REQUIRED),
        "s": ("float", _REQUIRED),
        "p": ("float", 2.0),
        "r": ("float", 2.0),
    },
    "semigroup": {
        "input": ("str", ""),
        "seed": ("int", 0),
        "n": ("int", 16),
        "period_l": ("float", 4.0),
        "t": ("float", 0.1),
        "omega": ("float", 0.0),
        "output": ("str", "semigroup_out.fbns"),
        "manifest": ("str", "semigroup_manifest.json"),
    },
    "solve3d": {
        "n": ("int", 32),
        "period_l": ("float", 4.0),
        "omega": ("float", 0.0),
        "p": ("float", 2.0),
        "r": ("float", 2.0),
        "horizon": ("float", 1.0),
        "dt": ("float", 1.0 / 64.0),
        "max_iterations": ("int", 25),
        "tolerance": ("float", 1e-9),
        "nonlinearity": ("bool", True),
        "initial": ("str", "random"),
        "seed": ("int", 0),
        "amplitude": ("float", 0.05),
        "save_trajectory": ("bool", False),
        "output_prefix": ("str", "solve3d"),
    },
    "solve2d": {
        "n": ("int", 64),
        "period_l": ("float", 1.0),
        "dt": ("float", 1e-3),
        "n_steps": ("int", 500),
        "sample_every": ("int", 100),
        "initial": ("str", "taylor-green"),
        "amplitude": ("float", 1.0),
        "width_sq": ("float", 0.1),
        "seed": ("int", 0),
        "omega": ("float", 0.0),
        "p_values": ("floats", [2.0, 4.0]),
        "t1_index": ("int", 0),
        "residual": ("bool", False),
        "mask_radius": ("float", 1.5),
        "output_prefix": ("str", "solve2d"),
    },
    "lab": {
        "inequality": ("str", "semigroup"),
        "s": ("str", "auto"),
        "p": ("float", 2.0),
        "r": ("float", 2.0),
        "q": ("float", 1.0),
        "a": ("float", 1.0),
        "omega": ("float", 0.0),
        "ensemble": ("int", 20),
        "seed": ("int", 0),
        "n": ("int", 16),
        "period_l": ("float", 4.0),
        "horizon": ("float", 1.0),
        "n_samples": ("int", 17),
        "s_values": ("floats", []),
        "omegas": ("floats", [0.0, 10.0, 100.0]),
        "experiment": ("str", "linear"),
        "output": ("str", "lab_report.json"),
        "csv": ("str", ""),
    },
    "checkpoint": {
        "input": ("str", _REQUIRED),
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
    kind, _ = SCHEMAS[name][key]
    try:
        return _CONVERTERS[kind](raw)
    except ValueError as exc:
        raise UsageError(f"bad value for {name}.{key}: {exc}")


def resolve_config(name: str, args) -> dict:
    schema = SCHEMAS[name]
    values = {key: default for key, (_, default) in schema.items()}

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
    return values


def _config_echo(cfg: dict) -> dict:
    """JSON-safe copy of the resolved config for manifest embedding."""
    out = {}
    for key, val in cfg.items():
        if isinstance(val, float) and not math.isfinite(val):
            out[key] = repr(val)
        elif isinstance(val, list):
            out[key] = [repr(v) if isinstance(v, float) and not math.isfinite(v)
                        else v for v in val]
        else:
            out[key] = val
    return out


def _resolve_path(workdir: str, path: str) -> str:
    return path if os.path.isabs(path) else os.path.join(workdir, path)


def _write_csv(path: str, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    atomic_write_text(path, buf.getvalue())


def _print_json(obj):
    print(json.dumps(obj, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# subcommand runners

def run_fbnorm(cfg: dict, workdir: str) -> int:
    field = read_field(_resolve_path(workdir, cfg["input"]))
    report = fb_norm(field, cfg["s"], cfg["p"], cfg["r"])
    _print_json({"norm_report": report.as_dict(), "config": _config_echo(cfg)})
    return EXIT_OK


def run_semigroup(cfg: dict, workdir: str) -> int:
    if cfg["input"]:
        field = read_field(_resolve_path(workdir, cfg["input"]))
        if field.grid.dim != 3 or field.ncomp != 3:
            raise ValueError("semigroup input must be a 3-component 3d field")
    else:
        grid = Grid(dim=3, n=cfg["n"], period_l=cfg["period_l"])
        field = random_divfree_field(grid, seed=(cfg["seed"],))
    out = apply_semigroup(field, cfg["t"], cfg["omega"])
    out_path = _resolve_path(workdir, cfg["output"])
    write_field(out_path, out)
    manifest = {
        "config": _config_echo(cfg),
        "input_l2": field.l2(),
        "output_l2": out.l2(),
        "output_divergence_defect": divergence_defect(out),
        "output_file": cfg["output"],
    }
    atomic_write_json(_resolve_path(workdir, cfg["manifest"]), manifest)
    _print_json(manifest)
    return EXIT_OK


def _check_amplitude(cfg: dict):
    if not math.isfinite(cfg["amplitude"]):
        raise UsageError(f"amplitude must be finite, got {cfg['amplitude']}")


def _solve3d_initial(cfg: dict, grid: Grid) -> SpectralField:
    _check_amplitude(cfg)
    if cfg["initial"] == "taylor-green":
        return taylor_green_3d(grid, amplitude=cfg["amplitude"])
    if cfg["initial"] == "random":
        u0 = random_divfree_field(grid, seed=(cfg["seed"],))
        norm = fb_norm_value(u0, critical_index(cfg["p"]), cfg["p"], cfg["r"])
        if norm <= 0:
            raise ValueError("degenerate random initial field")
        return SpectralField(grid, u0.coeffs * (cfg["amplitude"] / norm))
    raise UsageError(f"unknown initial condition {cfg['initial']!r}")


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
    manifest = {
        "config": _config_echo(cfg),
        "diagnostics": diag.as_dict(),
        "final_field": f"{prefix}_final.fbns",
        "exit_code": EXIT_OK if ok else EXIT_NUMERICAL,
    }
    atomic_write_json(_resolve_path(workdir, f"{prefix}_manifest.json"), manifest)
    write_field(_resolve_path(workdir, f"{prefix}_final.fbns"),
                traj.field(traj.n_samples - 1))
    if traj.fb_norms is not None:
        rows = [(t, v) for t, v in zip(traj.times, traj.fb_norms)]
        _write_csv(_resolve_path(workdir, f"{prefix}_norms.csv"),
                   ("t", "critical_fb_norm"), rows)
    if cfg["save_trajectory"]:
        for k in range(traj.n_samples):
            write_field(_resolve_path(workdir, f"{prefix}_t{k:04d}.fbns"),
                        traj.field(k))
    _print_json({"converged": diag.converged, "aborted": diag.aborted,
                 "iterations": diag.iterations,
                 "message": diag.message,
                 "manifest": f"{prefix}_manifest.json"})
    return EXIT_OK if ok else EXIT_NUMERICAL


def _solve2d_initial(cfg: dict, grid: Grid) -> SpectralField:
    _check_amplitude(cfg)
    if cfg["initial"] == "taylor-green":
        w0 = curl(taylor_green_2d(grid, amplitude=cfg["amplitude"]))
        return w0
    if cfg["initial"] == "gaussian":
        return gaussian_vortex(grid, width_sq=cfg["width_sq"],
                               amplitude=cfg["amplitude"])
    if cfg["initial"] == "random":
        return random_scalar_field(grid, seed=(cfg["seed"],),
                                   amplitude=cfg["amplitude"])
    raise UsageError(f"unknown initial condition {cfg['initial']!r}")


def run_solve2d(cfg: dict, workdir: str) -> int:
    grid = Grid(dim=2, n=cfg["n"], period_l=cfg["period_l"])
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
    write_field(_resolve_path(workdir, f"{prefix}_final.fbns"), states[-1].w)

    finite = all(math.isfinite(row.v_lp) and math.isfinite(row.w_lp)
                 for row in report["rows"])
    code = EXIT_OK if finite else EXIT_NUMERICAL
    manifest = {
        "config": _config_echo(cfg),
        "summary": {str(p): {k: (v if math.isfinite(v) else repr(v))
                             for k, v in stats.items()}
                    for p, stats in report["summary"].items()},
        "final_field": f"{prefix}_final.fbns",
        "gronwall_csv": f"{prefix}_gronwall.csv",
    }
    if cfg["residual"]:
        if len(states) < 3:
            raise ValueError("residual check needs at least three samples")
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
    elif inequality == "omega-scan":
        kwargs = {}
        if cfg["experiment"] == "linear":
            kwargs = dict(p=cfg["p"], r=cfg["r"], ensemble=cfg["ensemble"],
                          horizon=cfg["horizon"], n_samples=cfg["n_samples"])
        payload = lab_mod.omega_independence_scan(
            cfg["experiment"], cfg["omegas"], grid=grid, seed=cfg["seed"],
            **kwargs)
        failed = any(not math.isfinite(c) for c in payload["constants"])
        csv_rows = list(zip(payload["omegas"], payload["constants"]))
    else:
        raise UsageError(f"unknown inequality {inequality!r}")
    if report is not None:
        payload = report.as_dict()
        failed = not math.isfinite(report.max_ratio)

    out = {"config": _config_echo(cfg), "report": payload}
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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, CheckpointError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OverflowError, FloatingPointError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
