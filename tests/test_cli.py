import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import fbns
from fbns.checkpoint import read_field, write_field
from fbns.cli import main
from fbns.lp import fb_norm_value
from fbns.semigroup import apply_semigroup
from fbns.solver2d import run_vorticity
from fbns.solver3d import SolverConfig3D
from fbns.spectral import Grid, SpectralField, forward_transform, random_divfree_field
from test_checkpoint import strict_json


def run_cli(*argv):
    return main(list(argv))


def read_json(capsys):
    out = capsys.readouterr().out
    return json.loads(out)


@pytest.fixture()
def field_file(tmp_path):
    grid = Grid(dim=3, n=8, period_l=2.0)
    field = random_divfree_field(grid, seed=3)
    path = tmp_path / "field.fbns"
    write_field(path, field)
    return path, field


# ---------------------------------------------------------------------------
# argument handling

def test_no_command_is_usage_error(capsys):
    assert run_cli() == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert run_cli("frobnicate") == 1
    assert "error" in capsys.readouterr().err


def test_missing_required_key(tmp_path, capsys):
    code = run_cli("fbnorm", "--workdir", str(tmp_path))
    assert code == 1
    err = capsys.readouterr().err
    assert "missing required config key" in err and "input" in err


def test_unknown_set_key_and_malformed_set(tmp_path, field_file, capsys):
    path, _ = field_file
    base = ("fbnorm", "--workdir", str(tmp_path), "--input", str(path),
            "--set", "s=0.5")
    assert run_cli(*base, "--set", "banana=1") == 1
    assert "unknown config key" in capsys.readouterr().err
    assert run_cli(*base, "--set", "nonsense") == 1
    assert "KEY=VALUE" in capsys.readouterr().err
    assert run_cli(*base, "--set", "p=warm") == 1
    assert "bad value" in capsys.readouterr().err


def test_config_file_rejects_unknown_sections_and_keys(tmp_path, capsys):
    cfg = tmp_path / "bad_section.ini"
    cfg.write_text("[mystery]\nn = 8\n")
    assert run_cli("solve3d", "--workdir", str(tmp_path),
                   "--config", "bad_section.ini") == 1
    assert "unknown config section" in capsys.readouterr().err
    cfg2 = tmp_path / "bad_key.ini"
    cfg2.write_text("[solve3d]\nbananas = 3\n")
    assert run_cli("solve3d", "--workdir", str(tmp_path),
                   "--config", "bad_key.ini") == 1
    assert "unknown config key" in capsys.readouterr().err
    # the Duhamel scheme and the gate constant are fixed, not configurable
    for setting in ("scheme=trapezoid", "gate_constant=3"):
        assert run_cli("solve3d", "--workdir", str(tmp_path),
                       "--set", setting) == 1
        key = setting.split("=")[0]
        assert f"unknown config key solve3d.{key}" in capsys.readouterr().err
    assert run_cli("solve3d", "--workdir", str(tmp_path),
                   "--config", "missing.ini") == 1
    assert "config file not found" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# schema domains

REQUIRED = {"fbnorm": ("--set", "input=field.fbns", "--set", "s=0"),
            "checkpoint": ("--set", "input=field.fbns")}
# one value outside each domain, by description; choice sets get "bogus"
OUTSIDE = {"finite": "nan", "positive": "0", "positive and finite": "inf",
           "non-negative": "-1", "non-negative and finite": "-1", ">= 1": "0",
           ">= 2": "1", "> 1": "1", "even and >= 8": "6",
           "non-empty, with every element >= 1": "2,0.5",
           "non-empty, with every element finite": "0,nan",
           "a list of finite values": "0,inf", "auto or finite": "-inf"}
DOMAIN_CASES = [(command, key, domain[0])
                for command, schema in fbns.cli.SCHEMAS.items()
                for key, (_, _, domain) in schema.items() if domain is not fbns.cli.ANY]


def calls_of_runner(monkeypatch, command):
    calls = []
    monkeypatch.setitem(fbns.cli.RUNNERS, command,
                        lambda cfg, workdir: calls.append(cfg) or 0)
    return calls


@pytest.mark.parametrize("command", sorted(fbns.cli.SCHEMAS))
def test_defaults_lie_in_their_domains(tmp_path, monkeypatch, command):
    calls = calls_of_runner(monkeypatch, command)
    assert run_cli(command, "--workdir", str(tmp_path), *REQUIRED.get(command, ())) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command, key, description", DOMAIN_CASES,
                         ids=[f"{command}-{key}" for command, key, _ in DOMAIN_CASES])
def test_value_outside_its_domain_is_refused_before_the_runner(
        tmp_path, capsys, monkeypatch, command, key, description):
    value = "bogus" if description.startswith("one of ") else OUTSIDE[description]
    calls = calls_of_runner(monkeypatch, command)
    code = run_cli(command, "--workdir", str(tmp_path), *REQUIRED.get(command, ()),
                   "--set", f"{key}={value}")
    assert code == 1
    assert calls == [] and list(tmp_path.iterdir()) == []
    assert f"error: {key} must be {description}, got " in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (("fbnorm", "--input", "field.fbns", "--s", "nan"), "s must be finite, got nan"),
    (("lab", "--set", "inequality=duhamel", "--set", "s=nan"),
     "s must be auto or finite, got nan"),
    (("lab", "--set", "inequality=duhamel", "--set", "s=inf"),
     "s must be auto or finite, got inf"),
    (("lab", "--set", "inequality=omega-scan", "--set", "omegas="),
     "omegas must be non-empty, with every element finite, got []"),
    (("solve2d", "--set", "p_values="),
     "p_values must be non-empty, with every element >= 1, got []"),
], ids=["fbnorm-s-nan", "lab-s-nan", "lab-s-inf", "lab-omegas-empty",
        "solve2d-p_values-empty"])
def test_values_that_once_ran_to_a_wrong_answer_are_refused(
        tmp_path, capsys, monkeypatch, argv, message):
    calls = calls_of_runner(monkeypatch, argv[0])
    assert run_cli(argv[0], "--workdir", str(tmp_path), *argv[1:]) == 1
    assert calls == [] and list(tmp_path.iterdir()) == []
    assert message in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fbnorm / checkpoint

def test_fbnorm_reports_norm(tmp_path, field_file, capsys):
    path, field = field_file
    code = run_cli("fbnorm", "--workdir", str(tmp_path),
                   "--input", str(path), "--set", "s=0.5")
    assert code == 0
    payload = read_json(capsys)
    direct = fb_norm_value(field, 0.5, 2.0, 2.0)
    assert payload["norm_report"]["total"] == pytest.approx(direct, rel=1e-14)
    assert payload["config"]["s"] == 0.5
    assert payload["config"]["p"] == 2.0


def test_fbnorm_infinite_p_echoes_as_string(tmp_path, field_file, capsys):
    path, field = field_file
    code = run_cli("fbnorm", "--workdir", str(tmp_path), "--input", str(path),
                   "--set", "s=0", "--set", "p=inf")
    assert code == 0
    payload = read_json(capsys)
    assert payload["config"]["p"] == "inf"
    assert payload["norm_report"]["total"] == pytest.approx(
        fb_norm_value(field, 0.0, math.inf, 2.0), rel=1e-14)


def test_fbnorm_infinite_r_prints_strict_json(tmp_path, field_file, capsys):
    path, _ = field_file
    code = run_cli("fbnorm", "--workdir", str(tmp_path), "--input", str(path),
                   "--set", "s=0", "--set", "r=inf")
    assert code == 0
    payload = strict_json(capsys.readouterr().out)
    assert payload["config"]["r"] == payload["norm_report"]["params"]["r"] == "inf"


def test_solve3d_overflow_manifest_is_strict_json(tmp_path):
    # in subprocesses, because the overflow raises RuntimeWarnings on the way;
    # a blown-up solve2d run is the second case, and neither writes a field
    # that no checkpoint reader accepts
    def blow_up(command, *settings):
        workdir = tmp_path / command
        done = subprocess.run(
            [sys.executable, "-m", "fbns.cli", command, "--workdir", str(workdir),
             *(arg for item in settings for arg in ("--set", item))],
            env=fresh_env(), capture_output=True, text=True)
        assert done.returncode == 2
        for path in workdir.glob("*.fbns"):
            read_field(path)
        manifest = strict_json((workdir / f"{command}_manifest.json").read_text())
        assert manifest["final_field"] is None
        return manifest

    diag = blow_up("solve3d", "n=8", "amplitude=1e200", "horizon=0.25", "dt=0.0625",
                   "save_trajectory=true")["diagnostics"]
    assert diag["aborted"] and diag["iterate_norms"] == ["nan", "nan"]
    assert [path.name for path in (tmp_path / "solve3d").glob("*.fbns")] == ["solve3d_t0000.fbns"]
    summary = blow_up("solve2d", "n=16", "amplitude=1e300", "n_steps=4")["summary"]
    for stats in summary.values():
        for key in ("gronwall_constant", "vorticity_margin", "cz_margin"):
            assert stats[key] == "nan"


def test_checkpoint_roundtrip_and_corruption(tmp_path, field_file, capsys):
    path, _ = field_file
    assert run_cli("checkpoint", "--input", str(path)) == 0
    payload = read_json(capsys)
    assert payload["roundtrip_identical"] is True
    clipped = tmp_path / "clipped.fbns"
    clipped.write_bytes(path.read_bytes()[:-4])
    assert run_cli("checkpoint", "--input", str(clipped)) == 1
    assert "truncated" in capsys.readouterr().err


def test_fbnorm_rejects_payload_of_non_real_field(tmp_path, field_file, capsys):
    path, _ = field_file
    data = bytearray(path.read_bytes())
    data[22 + 8:22 + 16] = np.float64(0.25).tobytes()  # imaginary mean
    bad = tmp_path / "complex.fbns"
    bad.write_bytes(bytes(data))
    assert run_cli("fbnorm", "--workdir", str(tmp_path), "--input", str(bad),
                   "--set", "s=0") == 1
    assert "not the spectrum of a real field" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# semigroup

def test_semigroup_random_field_run(tmp_path, capsys):
    code = run_cli("semigroup", "--workdir", str(tmp_path),
                   "--set", "n=8", "--set", "period_l=2", "--set", "t=0.05",
                   "--set", "omega=12", "--set", "seed=4")
    assert code == 0
    payload = read_json(capsys)
    assert payload["output_divergence_defect"] < 1e-12
    out = read_field(tmp_path / "semigroup_out.fbns")
    grid = Grid(dim=3, n=8, period_l=2.0)
    expected = apply_semigroup(random_divfree_field(grid, seed=(4,)), 0.05, 12.0)
    assert np.array_equal(out.coeffs, expected.coeffs)
    assert (tmp_path / "semigroup_manifest.json").exists()


def test_semigroup_rejects_scalar_input(tmp_path, capsys):
    grid = Grid(dim=2, n=8, period_l=1.0)
    from fbns.spectral import random_scalar_field
    write_field(tmp_path / "w.fbns", random_scalar_field(grid, seed=1))
    code = run_cli("semigroup", "--workdir", str(tmp_path),
                   "--set", "input=w.fbns")
    assert code == 1
    assert "3-component" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# solve3d

SOLVE3D_INI = """
[solve3d]
n = 12
period_l = 4
horizon = 0.25
dt = 0.0625
amplitude = 0.01
tolerance = 1e-10
seed = 1
output_prefix = run
"""


def test_solve3d_end_to_end(tmp_path, capsys):
    (tmp_path / "run.ini").write_text(SOLVE3D_INI)
    code = run_cli("solve3d", "--workdir", str(tmp_path), "--config", "run.ini")
    assert code == 0
    summary = read_json(capsys)
    assert summary["converged"] is True
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["exit_code"] == 0
    assert manifest["diagnostics"]["gate"]["passed"] is True
    assert manifest["diagnostics"]["error_estimate"] > 0
    assert manifest["config"]["n"] == 12
    final = read_field(tmp_path / "run_final.fbns")
    assert final.grid == Grid(dim=3, n=12, period_l=4.0)
    lines = (tmp_path / "run_norms.csv").read_text().splitlines()
    assert lines[0] == "t,critical_fb_norm"
    assert len(lines) == 1 + 4 + 1  # header + n_steps + initial sample


def test_solve3d_set_overrides_config(tmp_path):
    (tmp_path / "run.ini").write_text(SOLVE3D_INI)
    code = run_cli("solve3d", "--workdir", str(tmp_path),
                   "--config", "run.ini", "--set", "output_prefix=other",
                   "--set", "nonlinearity=false")
    assert code == 0
    manifest = json.loads((tmp_path / "other_manifest.json").read_text())
    assert manifest["config"]["nonlinearity"] is False
    assert "nonlinearity disabled" in manifest["diagnostics"]["message"]


def test_solve3d_rejects_p_one(tmp_path, capsys):
    (tmp_path / "run.ini").write_text(SOLVE3D_INI)
    code = run_cli("solve3d", "--workdir", str(tmp_path),
                   "--config", "run.ini", "--set", "p=1")
    assert code == 1
    assert "p must be > 1, got 1.0" in capsys.readouterr().err


def test_solve3d_deterministic_artifacts(tmp_path):
    for name in ("one", "two"):
        wd = tmp_path / name
        wd.mkdir()
        (wd / "run.ini").write_text(SOLVE3D_INI)
        assert run_cli("solve3d", "--workdir", str(wd),
                       "--config", "run.ini") == 0
    for artifact in ("run_manifest.json", "run_final.fbns", "run_norms.csv"):
        a = (tmp_path / "one" / artifact).read_bytes()
        b = (tmp_path / "two" / artifact).read_bytes()
        assert a == b, artifact


@pytest.mark.parametrize("command, key, value", [
    ("solve3d", "horizon", "inf"),
    ("solve3d", "amplitude", "inf"),
    ("solve3d", "amplitude", "nan"),
    ("solve2d", "dt", "inf"),
    ("solve2d", "dt", "nan"),
    ("solve2d", "amplitude", "inf"),
    ("solve2d", "amplitude", "nan"),
])
def test_non_finite_inputs_are_usage_errors(tmp_path, capsys, command, key,
                                            value):
    small = {"solve3d": ("--set", "n=8"),
             "solve2d": ("--set", "n=16", "--set", "n_steps=10",
                         "--set", "sample_every=5")}
    code = run_cli(command, "--workdir", str(tmp_path), *small[command],
                   "--set", f"{key}={value}")
    assert code == 1
    err = capsys.readouterr().err
    assert key in err and value in err


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_lab_non_finite_horizon_is_usage_error(tmp_path, capsys, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run_cli("lab", "--workdir", str(tmp_path), "--set",
                       "ensemble=2", "--set", f"horizon={value}")
    assert code == 1
    assert f"horizon must be positive and finite, got {value}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("inequality", ["duhamel", "product"])
def test_lab_horizon_beyond_the_member_envelope_is_usage_error(tmp_path, capsys,
                                                               inequality):
    # sin(5 t) of the odd members' envelope overflows past t = 3.6e307
    code = run_cli("lab", "--workdir", str(tmp_path), "--set", f"inequality={inequality}",
                   "--set", "horizon=1e308", "--set", "ensemble=1", "--set", "n=8")
    assert code == 1
    assert "horizon=1e+308" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("settings", [("inequality=semigroup",),
                                      ("inequality=omega-scan", "experiment=linear")])
def test_lab_samples_too_sparse_for_the_lowest_shell_are_a_usage_error(tmp_path, capsys,
                                                                       settings):
    # 17 samples 6.25e306 apart once reported a smoothing constant of 3.3e305
    # and passed: the sample spacing must resolve exp(-|xi|^2 t) on the lowest
    # shell, dt / L^2 <= 1/4 (the default is 1/256)
    argv = [arg for setting in settings + ("horizon=1e308", "ensemble=1", "n=8")
            for arg in ("--set", setting)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run_cli("lab", "--workdir", str(tmp_path), *argv)
    assert code == 1
    err = capsys.readouterr().err
    assert "horizon=1e+308 and n_samples=17" in err and "L^2/4 = 4" in err
    assert not list(tmp_path.iterdir())


def test_semigroup_of_a_field_on_the_nyquist_plane_reads_back(tmp_path, capsys):
    # k and -k stored as one row carry one xi: u_2 at k = (+-1, 0, n/2) on the last
    # axis's n/2 plane, and u_1 = cos(4 x_1) cos(x_2), whose k = (-4, +-1, 0) both
    # read xi_1 = -n/(2L); a frame or rotation that tells the two apart wrote a
    # checkpoint no read accepts
    grid = Grid(dim=3, n=8, period_l=1.0)
    plane = np.zeros((3,) + grid.spectral_shape, dtype=np.complex128)
    plane[1, 1, 0, -1], plane[1, -1, 0, -1] = 0.3 + 0.05j, 0.3 - 0.05j
    row = np.zeros((3,) + grid.shape)
    row[0] = np.cos(4 * grid.x_axis(0)) * np.cos(grid.x_axis(1))
    for coeffs in (plane, forward_transform(row, grid).coeffs):
        write_field(tmp_path / "nyquist.fbns", SpectralField(grid, coeffs))
        for omega in ("0", "5"):
            assert run_cli("semigroup", "--workdir", str(tmp_path), "--set", "input=nyquist.fbns",
                           "--set", f"omega={omega}", "--set", "t=0.01") == 0
            assert run_cli("checkpoint", "--input", str(tmp_path / "semigroup_out.fbns")) == 0
            capsys.readouterr()
            out = read_field(tmp_path / "semigroup_out.fbns")
            assert np.allclose(out.coeffs, np.exp(-0.01 * grid.xi_sq) * coeffs, rtol=0, atol=1e-15)


@pytest.mark.parametrize("command, setting", [
    ("semigroup", "t=nan"), ("semigroup", "t=inf"),
    ("semigroup", "omega=nan"), ("semigroup", "omega=inf"),
    ("solve3d", "omega=nan"), ("lab", "omega=nan"),
])
def test_non_finite_propagator_inputs_are_usage_errors(tmp_path, capsys, command,
                                                       setting):
    small = {"semigroup": ("--set", "n=8"),
             "solve3d": ("--set", "n=8", "--set", "horizon=0.25",
                         "--set", "dt=0.0625"),
             "lab": ("--set", "ensemble=2", "--set", "n=8")}
    assert run_cli(command, "--workdir", str(tmp_path), *small[command],
                   "--set", setting) == 1
    key, value = setting.split("=")
    err = capsys.readouterr().err
    assert key in err and f"got {value}" in err
    assert not list(tmp_path.iterdir())


def test_solve3d_memory_preflight_refuses_before_allocating(tmp_path, capsys):
    # the band-packed trajectory alone would take about 32 TB at n = 4096
    tracemalloc.start()
    try:
        code = run_cli("solve3d", "--workdir", str(tmp_path), "--set", "n=4096")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert peak < 2**20
    need = SolverConfig3D(grid=Grid(dim=3, n=4096)).memory_bytes
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    err = capsys.readouterr().err
    assert f"{need:.3g} bytes" in err and f"{have:.3g} bytes" in err
    assert not list(tmp_path.iterdir())


def test_solve3d_divergent_data_exits_numerical(tmp_path, capsys):
    # critical norm 1000 times the gate threshold 1/32
    code = run_cli("solve3d", "--workdir", str(tmp_path), "--set", "n=16",
                   "--set", "period_l=1", "--set", "horizon=0.25",
                   "--set", "dt=0.00390625", "--set", "amplitude=31.25",
                   "--set", "seed=0")
    assert code == 2
    assert read_json(capsys)["aborted"] is True
    manifest = json.loads((tmp_path / "solve3d_manifest.json").read_text())
    assert manifest["exit_code"] == 2
    diag = manifest["diagnostics"]
    assert not diag["gate"]["passed"]
    assert diag["iterations"] <= 4 and diag["ratios"][-1] > 1.0
    assert diag["error_estimate"] is None
    assert "diverging" in diag["message"]
    assert (tmp_path / "solve3d_final.fbns").is_file()


def test_solve3d_tolerance_below_rounding_exits_numerical_as_a_stall(tmp_path, capsys):
    # the increments fall from 2e-3 to 9e-19, under eps times the iterate norm
    # 0.051, at iteration 11; left to run, they wander with ratios near 1 and
    # were once reported as a divergence at iteration 16
    code = run_cli("solve3d", "--workdir", str(tmp_path), "--set", "n=8",
                   "--set", "horizon=0.25", "--set", "dt=0.0625", "--set", "tolerance=1e-300")
    assert code == 2
    out = read_json(capsys)
    assert not out["converged"] and not out["aborted"]
    assert out["message"].startswith("stalled at rounding level")
    assert "tolerance 1e-300 cannot be reached (iteration 11)" in out["message"]
    manifest = json.loads((tmp_path / "solve3d_manifest.json").read_text())
    assert manifest["exit_code"] == 2
    diag, eps = manifest["diagnostics"], np.finfo(float).eps
    assert diag["diff_norms"][-1] <= eps * diag["iterate_norms"][-1]
    assert all(d > eps * n for d, n in zip(diag["diff_norms"][:-1], diag["iterate_norms"][1:-1]))


def test_solve3d_save_trajectory(tmp_path):
    (tmp_path / "run.ini").write_text(SOLVE3D_INI)
    assert run_cli("solve3d", "--workdir", str(tmp_path), "--config", "run.ini",
                   "--set", "save_trajectory=true") == 0
    samples = sorted(p.name for p in tmp_path.glob("run_t*.fbns"))
    assert len(samples) == 5
    assert samples[0] == "run_t0000.fbns"


# ---------------------------------------------------------------------------
# solve2d

def test_solve2d_taylor_green_end_to_end(tmp_path, capsys):
    code = run_cli("solve2d", "--workdir", str(tmp_path),
                   "--set", "n=16", "--set", "n_steps=20",
                   "--set", "sample_every=10", "--set", "p_values=2,4")
    assert code == 0
    summary = read_json(capsys)
    assert summary["finite"] is True
    assert summary["final_time"] == pytest.approx(0.02)
    manifest = json.loads((tmp_path / "solve2d_manifest.json").read_text())
    assert manifest["exit_code"] == 0
    assert set(manifest["summary"]) == {"2.0", "4.0"}
    lines = (tmp_path / "solve2d_gronwall.csv").read_text().splitlines()
    assert lines[0].startswith("t,p,")
    assert len(lines) == 1 + 2 * 3  # two p values, three samples each
    assert (tmp_path / "solve2d_final.fbns").exists()


def test_solve2d_gaussian_residual_path(tmp_path):
    # run long enough that diffusion smooths the profile before the
    # three-sample residual window at the end of the trajectory
    code = run_cli("solve2d", "--workdir", str(tmp_path),
                   "--set", "initial=gaussian", "--set", "n=64",
                   "--set", "period_l=2", "--set", "width_sq=0.25",
                   "--set", "n_steps=150",
                   "--set", "sample_every=1", "--set", "residual=true",
                   "--set", "omega=5", "--set", "p_values=2")
    assert code == 0
    manifest = json.loads((tmp_path / "solve2d_manifest.json").read_text())
    res = manifest["rotating_frame_residual"]
    assert res["max_residual"] < 1e-4
    assert res["mask_points"] > 0


def test_solve2d_support_at_boundary_exits_numerical(tmp_path, capsys):
    args = ["--set", "initial=gaussian", "--set", "width_sq=5", "--set", "n=32",
            "--set", "sample_every=1", "--set", "residual=true",
            "--set", "p_values=2"]
    code = run_cli("solve2d", "--workdir", str(tmp_path / "wide"),
                   "--set", "n_steps=3", *args)
    assert code == 2
    assert "boundary annulus" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "wide" / "solve2d_manifest.json").read_text())
    assert manifest["exit_code"] == 2
    assert "boundary annulus" in manifest["rotating_frame_residual"]["error"]
    # too few samples for the residual is still a usage error
    code = run_cli("solve2d", "--workdir", str(tmp_path / "short"),
                   "--set", "n_steps=1", *args)
    assert code == 1
    assert "at least three samples" in capsys.readouterr().err
    assert not (tmp_path / "short" / "solve2d_manifest.json").exists()


def calls_of_run_vorticity(monkeypatch):
    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        return run_vorticity(*args, **kwargs)
    monkeypatch.setattr(fbns.cli, "run_vorticity", recording)
    return calls


def test_solve2d_residual_with_two_samples_fails_before_stepping(tmp_path, capsys,
                                                                 monkeypatch):
    # 100 steps sampled every 100 give two samples: the residual needs three
    calls = calls_of_run_vorticity(monkeypatch)
    code = run_cli("solve2d", "--workdir", str(tmp_path), "--set", "n=32",
                   "--set", "residual=true", "--set", "n_steps=100",
                   "--set", "sample_every=100")
    assert code == 1
    assert calls == [] and list(tmp_path.iterdir()) == []
    assert "at least three samples, got 2" in capsys.readouterr().err


def test_solve2d_t1_index_out_of_range_fails_before_stepping(tmp_path, capsys,
                                                             monkeypatch):
    # 20 steps sampled every 2 give 11 samples, so t1_index lies in [0, 9]
    calls = calls_of_run_vorticity(monkeypatch)
    code = run_cli("solve2d", "--workdir", str(tmp_path), "--set", "n=16",
                   "--set", "n_steps=20", "--set", "sample_every=2",
                   "--set", "t1_index=10")
    assert code == 1
    assert calls == [] and list(tmp_path.iterdir()) == []
    assert "before the last of the run's 11 samples, got 10" in capsys.readouterr().err


@pytest.mark.parametrize("settings, message", [
    (("residual=true", "omega=nan"), "omega must be finite, got nan"),
    (("residual=true", "omega=inf"), "omega must be finite, got inf"),
    (("initial=gaussian", "width_sq=0"), "width_sq must be positive and finite, got 0.0"),
    (("initial=gaussian", "width_sq=nan"), "width_sq must be positive and finite, got nan"),
    (("residual=true", "mask_radius=nan"), "mask_radius must be positive and finite, got nan"),
    (("p_values=2,nan",), "p_values must be non-empty, with every element >= 1, "
                          "got [2.0, nan]"),
    (("p_values=0.5",), "p_values must be non-empty, with every element >= 1, got [0.5]"),
], ids=["omega-nan", "omega-inf", "width_sq-0", "width_sq-nan", "mask_radius-nan",
        "p_values-nan", "p_values-0.5"])
def test_solve2d_bad_input_fails_before_stepping(tmp_path, capsys, monkeypatch,
                                                 settings, message):
    calls = calls_of_run_vorticity(monkeypatch)
    overrides = [arg for setting in settings for arg in ("--set", setting)]
    code = run_cli("solve2d", "--workdir", str(tmp_path), "--set", "n=16",
                   "--set", "n_steps=4", "--set", "sample_every=1", *overrides)
    assert code == 1
    assert calls == [] and list(tmp_path.iterdir()) == []
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, settings", [
    ("solve2d", ("n=16", "n_steps=10")),
    ("solve3d", ("initial=taylor-green", "n=8", "horizon=0.25", "dt=0.0625")),
])
def test_taylor_green_off_an_integer_period_is_usage_error(tmp_path, capsys, command,
                                                           settings):
    overrides = [arg for setting in settings for arg in ("--set", setting)]
    code = run_cli(command, "--workdir", str(tmp_path), *overrides, "--set", "period_l=2.5")
    assert code == 1
    assert "integer period_l, got 2.5" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_solve2d_gronwall_bound_overflow_is_inf(tmp_path):
    code = run_cli("solve2d", "--workdir", str(tmp_path), "--set", "n=16",
                   "--set", "initial=random", "--set", "amplitude=300",
                   "--set", "dt=0.0005", "--set", "n_steps=1000",
                   "--set", "sample_every=100")
    assert code == 0
    lines = (tmp_path / "solve2d_gronwall.csv").read_text().splitlines()
    margins = [line.rsplit(",", 1)[1] for line in lines[1:]]
    assert "inf" in margins
    assert all(m == "inf" or math.isfinite(float(m)) for m in margins)


@pytest.mark.parametrize("error", [OverflowError, FloatingPointError])
def test_arithmetic_error_in_a_runner_exits_numerical(monkeypatch, tmp_path,
                                                      capsys, error):
    def failing(cfg, workdir):
        raise error("math range error")

    monkeypatch.setitem(fbns.cli.RUNNERS, "solve2d", failing)
    code = run_cli("solve2d", "--workdir", str(tmp_path))
    assert code == 2
    assert "numerical failure: math range error" in capsys.readouterr().err


def test_solve2d_unknown_initial(tmp_path, capsys):
    code = run_cli("solve2d", "--workdir", str(tmp_path),
                   "--set", "initial=vortex-sheet")
    assert code == 1
    assert ("initial must be one of taylor-green, gaussian, random, got vortex-sheet"
            in capsys.readouterr().err)


def test_solve2d_blow_up_is_a_numerical_failure(tmp_path):
    # the vorticity overflows to nan within the first samples: the run still
    # writes its diagnostics and exits 2, and the Gronwall constant, which the
    # nan samples enter, reads nan; the nan final field is not written
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the overflow is the point
        code = run_cli("solve2d", "--workdir", str(tmp_path), "--set", "n=16",
                       "--set", "initial=random", "--set", "amplitude=1e150",
                       "--set", "n_steps=20", "--set", "sample_every=5", "--set", "dt=0.01")
    assert code == 2
    manifest = json.loads((tmp_path / "solve2d_manifest.json").read_text())
    assert manifest["exit_code"] == 2 and manifest["final_field"] is None
    assert manifest["summary"]["2.0"]["gronwall_constant"] == "nan"


FRESH_SOLVE2D = """
import json, sys
from fbns.cli import main
code = main(["solve2d", "--workdir", sys.argv[1], "--set", "n=16",
             "--set", "n_steps=4", "--set", "sample_every=2"])
print(json.dumps([code, sorted(name for name in sys.modules if name.split(".")[0] == "scipy")]))
"""


def fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this fbns."""
    src = str(Path(fbns.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


def test_solve2d_process_loads_no_scipy(tmp_path):
    # a fresh interpreter runs a whole solve2d, Gronwall diagnostic included,
    # on numpy alone: loading scipy.fft would double the start-up time
    done = subprocess.run([sys.executable, "-c", FRESH_SOLVE2D, str(tmp_path)],
                          env=fresh_env(), capture_output=True, text=True, check=True)
    assert json.loads(done.stdout.splitlines()[-1]) == [0, []]
    assert (tmp_path / "solve2d_gronwall.csv").is_file()


# ---------------------------------------------------------------------------
# lab

def test_lab_semigroup_report(tmp_path, capsys):
    code = run_cli("lab", "--workdir", str(tmp_path),
                   "--set", "inequality=semigroup", "--set", "ensemble=2",
                   "--set", "n_samples=5")
    assert code == 0
    payload = read_json(capsys)
    assert payload["failed"] is False
    report = json.loads((tmp_path / "lab_report.json").read_text())
    assert report["report"]["name"] == "semigroup_bounds"
    assert report["report"]["passed"] is True
    assert report["config"]["ensemble"] == 2


def test_lab_infinite_p_report_is_strict_json(tmp_path):
    code = run_cli("lab", "--workdir", str(tmp_path), "--set", "p=inf",
                   "--set", "ensemble=1")
    assert code == 0
    out = strict_json((tmp_path / "lab_report.json").read_text())
    assert out["config"]["p"] == out["report"]["params"]["p"] == "inf"


def test_lab_product_sweep_csv(tmp_path):
    code = run_cli("lab", "--workdir", str(tmp_path),
                   "--set", "inequality=product", "--set", "ensemble=2",
                   "--set", "n_samples=5", "--set", "s_values=0,0.5",
                   "--set", "csv=sweep.csv")
    assert code == 0
    report = json.loads((tmp_path / "lab_report.json").read_text())
    assert [entry["params"]["s"] for entry in report["report"]] == [0.0, 0.5]
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "s,max_ratio,median_ratio,stability,passed"
    assert len(lines) == 3


def test_lab_omega_scan_csv(tmp_path):
    code = run_cli("lab", "--workdir", str(tmp_path),
                   "--set", "inequality=omega-scan", "--set", "ensemble=2",
                   "--set", "n_samples=5", "--set", "omegas=0,10",
                   "--set", "csv=scan.csv")
    assert code == 0
    report = json.loads((tmp_path / "lab_report.json").read_text())
    assert report["report"]["flagged"] is False
    lines = (tmp_path / "scan.csv").read_text().splitlines()
    assert lines[0] == "omega,constant"
    assert len(lines) == 3


def test_lab_duhamel_rejects_bad_exponents(tmp_path, capsys):
    code = run_cli("lab", "--workdir", str(tmp_path),
                   "--set", "inequality=duhamel", "--set", "a=3")
    assert code == 1
    assert "a <= q" in capsys.readouterr().err


@pytest.mark.parametrize("ensemble", ["0", "-3"])
@pytest.mark.parametrize("inequality",
                         ["duhamel", "product", "semigroup", "omega-scan"])
def test_lab_empty_ensemble_is_usage_error(tmp_path, capsys, inequality,
                                           ensemble):
    code = run_cli("lab", "--workdir", str(tmp_path),
                   "--set", f"inequality={inequality}",
                   "--set", f"ensemble={ensemble}", "--set", "n_samples=5")
    assert code == 1
    assert f"ensemble must be >= 1, got {ensemble}" in capsys.readouterr().err
    assert not (tmp_path / "lab_report.json").exists()


def test_lab_unknown_inequality(tmp_path, capsys):
    code = run_cli("lab", "--workdir", str(tmp_path),
                   "--set", "inequality=trilinear")
    assert code == 1
    assert ("inequality must be one of duhamel, product, semigroup, omega-scan, "
            "got trilinear" in capsys.readouterr().err)


def test_workdir_is_created(tmp_path, field_file, capsys):
    path, _ = field_file
    nested = tmp_path / "a" / "b"
    code = run_cli("fbnorm", "--workdir", str(nested),
                   "--input", str(path), "--set", "s=0")
    assert code == 0
    assert nested.is_dir()
    capsys.readouterr()


@pytest.mark.parametrize("command, settings", [
    ("solve3d", ("n=8", "horizon=0.25", "dt=0.0625", "period_l=1e-300")),
    ("lab", ("n=8", "ensemble=2", "period_l=1e-300")),
    ("solve2d", ("n=16", "n_steps=4", "sample_every=1", "period_l=1e300")),
])
def test_period_out_of_floating_point_range_is_usage_error(tmp_path, capsys, command,
                                                           settings):
    # these exited 2 with an opaque "(34, 'Numerical result out of range')"
    overrides = [arg for setting in settings for arg in ("--set", setting)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run_cli(command, "--workdir", str(tmp_path), *overrides)
    assert code == 1
    assert "period_l=" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
