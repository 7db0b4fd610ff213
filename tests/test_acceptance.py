"""End-to-end acceptance checks.

Each test covers one headline guarantee of the package at a pinned
tolerance and prints a single PASS/FAIL line (run with -s to see them
while the suite is green).  The battery is sized for a laptop: the whole
module runs in a few minutes.
"""

import math
import time

import numpy as np

from fbns import cli
from fbns.lab import (verify_duhamel_smoothing, verify_product_estimate,
                      verify_semigroup_bounds)
from fbns.lp import (bernstein_slope, bony_decompose, critical_index,
                     dyadic_rescale, fb_norm_value, get_partition,
                     shell_product)
from fbns.semigroup import apply_semigroup
from fbns.solver2d import (VorticityState, advance_velocity,
                           advance_vorticity, coriolis_projection_identity,
                           gaussian_vortex, gronwall_diagnostic,
                           rotating_frame_residual, run_vorticity)
from fbns.solver3d import (DEFAULT_GATE_CONSTANT, SolverConfig3D,
                           picard_solve)
from fbns.spectral import (Grid, SpectralField, curl, dealias,
                           divergence_defect, random_divfree_field,
                           random_scalar_field, taylor_green_2d)

INF = float("inf")


def criterion(num: int, label: str, checks: dict):
    """Print one verdict line and fail the test if any sub-check is false."""
    bad = [name for name, ok in checks.items() if not ok]
    verdict = "PASS" if not bad else "FAIL"
    suffix = f"  (failed: {', '.join(bad)})" if bad else ""
    print(f"[{verdict}] {num:02d} {label}{suffix}", flush=True)
    assert not bad, f"criterion {num} failed: {bad}"


def rel_sup(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) / scale


# ---------------------------------------------------------------------------
# 1. dyadic partition of unity on the working band

def test_c01_partition_of_unity_64_cubed():
    start = time.perf_counter()
    part = get_partition(Grid(dim=3, n=64, period_l=1.0))
    defect = part.unity_defect()
    elapsed = time.perf_counter() - start
    criterion(1, f"partition of unity, 64^3 band (defect {defect:.2e}, "
              f"{elapsed:.2f} s)",
              {"defect <= 1e-12": defect <= 1e-12,
               "runtime < 5 s": elapsed < 5.0})


# ---------------------------------------------------------------------------
# 2. semigroup algebra on random divergence-free data

def test_c02_semigroup_law_and_structure():
    grid = Grid(dim=3, n=32, period_l=1.0)
    omega = 17.0
    law = heat = div = 0.0
    identity = True
    for i in range(20):
        u = random_divfree_field(grid, seed=(20, i))
        identity &= np.array_equal(apply_semigroup(u, 0.0, omega).coeffs,
                                   u.coeffs)
        one = apply_semigroup(apply_semigroup(u, 0.13, omega), 0.21, omega)
        both = apply_semigroup(u, 0.13 + 0.21, omega)
        law = max(law, rel_sup(one.coeffs, both.coeffs))
        div = max(div, divergence_defect(one))
        heat_ref = u.coeffs * np.exp(-grid.xi_sq * 0.2)
        heat = max(heat, rel_sup(apply_semigroup(u, 0.2, 0.0).coeffs,
                                 heat_ref))
    criterion(2, f"semigroup law on 20 fields, 32^3 (law {law:.2e}, "
              f"heat {heat:.2e}, div {div:.2e})",
              {"T(0) is the identity": identity,
               "composition <= 1e-12": law <= 1e-12,
               "omega=0 is the heat multiplier to 1e-13": heat <= 1e-13,
               "divergence preserved to 1e-12": div <= 1e-12})


# ---------------------------------------------------------------------------
# 3. closed-form single-mode rotation oracle

def test_c03_single_mode_rotation_oracle():
    # data a cos(x3) e1: unit vertical frequency rotates at the full rate,
    # so after time t the transverse pair is turned by omega t and the
    # amplitude decays like exp(-t); the conjugate mode k3 = -1 is not stored
    grid = Grid(dim=3, n=16, period_l=1.0)
    omega, t = 10.0, 0.1
    coeffs = np.zeros((3,) + grid.spectral_shape, dtype=np.complex128)
    coeffs[0, 0, 0, 1] = 0.5
    out = apply_semigroup(SpectralField(grid, coeffs), t, omega)
    expected = 0.5 * math.exp(-t) * np.array([math.cos(omega * t),
                                              -math.sin(omega * t), 0.0])
    err = float(np.max(np.abs(out.coeffs[:, 0, 0, 1] - expected)))
    rest = out.coeffs.copy()
    rest[:, 0, 0, 1] = 0.0
    criterion(3, f"single-mode rotation closed form (error {err:.2e})",
              {"mode matches to 1e-13": err <= 1e-13,
               "no other mode is excited": float(np.max(np.abs(rest))) == 0.0})


# ---------------------------------------------------------------------------
# 4. paraproduct reconstruction of localized products

def test_c04_paraproduct_reconstruction():
    grid = Grid(dim=3, n=32, period_l=4.0)
    u = dealias(random_scalar_field(grid, seed=(4, 1)))
    v = dealias(random_scalar_field(grid, seed=(4, 2)))
    part = get_partition(grid)
    worst = 0.0
    for j in part.js:
        one, two, rem = bony_decompose(u, v, j)
        ref = shell_product(u, v, j)
        err = np.linalg.norm(one.coeffs + two.coeffs + rem.coeffs
                             - ref.coeffs)
        scale = max(float(np.linalg.norm(ref.coeffs)), 1e-30)
        worst = max(worst, float(err) / scale)
    criterion(4, f"paraproduct reconstruction, 32^3, all shells "
              f"(worst {worst:.2e})",
              {"relative L2 error <= 1e-10": worst <= 1e-10})


# ---------------------------------------------------------------------------
# 5. band-limited derivative/integrability scaling slopes

def test_c05_bernstein_scaling_slopes():
    cases = [((1, 0, 0), 2.0, INF), ((1, 0, 0), 2.0, 2.0),
             ((0, 0, 0), 1.0, 2.0)]
    js = [2, 3, 4, 5]
    checks = {}
    observed = []
    for gamma, p, q in cases:
        rep = bernstein_slope(gamma, p, q, js, dim=3)
        ok = abs(rep["slope"] - rep["target"]) <= 0.05 * abs(rep["target"])
        checks[f"gamma={gamma} p={p} q={q} slope within 5%"] = ok
        observed.append(f"{rep['slope']:.3f}/{rep['target']:.1f}")
    criterion(5, "derivative scaling slopes across shells 2..5 "
              f"(got/want {', '.join(observed)})", checks)


# ---------------------------------------------------------------------------
# 6. scale invariance of the critical norm

def test_c06_critical_norm_scale_invariance():
    grid = Grid(dim=3, n=16, period_l=4.0)
    f = random_divfree_field(grid, seed=(6,))
    checks = {}
    for p in (2.0, 4.0):
        s = critical_index(p)
        for r in (1.0, 2.0, INF):
            base = fb_norm_value(f, s, p, r)
            ratio = fb_norm_value(dyadic_rescale(f, 2.0), s, p, r) / base
            checks[f"p={p} r={r} factor in [0.99, 1.01]"] = \
                0.99 <= ratio <= 1.01
    criterion(6, "dyadic rescale leaves the critical norm fixed", checks)


# ---------------------------------------------------------------------------
# 7. fixed-point iteration for small data

def test_c07_fixed_point_contraction():
    grid = Grid(dim=3, n=32, period_l=1.0)
    raw = random_divfree_field(grid, seed=(7,))
    threshold = 1.0 / (8.0 * DEFAULT_GATE_CONSTANT**2)
    norm = fb_norm_value(raw, critical_index(2.0), 2.0, 2.0)
    u0 = raw * (0.9 * threshold / norm)

    config = SolverConfig3D(grid=grid, horizon=1.0, dt=1.0 / 64.0,
                            tolerance=1e-9)
    traj, diag = picard_solve(u0, config)
    final_norm = diag.iterate_norms[-1]

    linear_cfg = SolverConfig3D(grid=grid, horizon=1.0, dt=1.0 / 64.0,
                                tolerance=1e-9, nonlinearity=False)
    lin_traj, _ = picard_solve(u0, linear_cfg)
    lin_err = 0.0
    for k in (0, 16, 32, 48, 64):
        ref = apply_semigroup(dealias(u0), float(lin_traj.times[k]), 0.0)
        lin_err = max(lin_err, rel_sup(lin_traj.field(k).coeffs, ref.coeffs))

    scan = {0.0: final_norm}
    for omega in (10.0, 100.0):
        cfg = SolverConfig3D(grid=grid, omega=omega, horizon=1.0,
                             dt=1.0 / 64.0, tolerance=1e-9)
        _, d = picard_solve(u0, cfg)
        assert d.converged
        scan[omega] = d.iterate_norms[-1]
    spread = max(scan.values()) / min(scan.values())

    criterion(7, "fixed-point contraction, 32^3, horizon 1 "
              f"(worst ratio {max(diag.ratios):.3f}, residual "
              f"{diag.residual_estimate:.1e}, rotation spread {spread:.3f})",
              {"smallness gate passed": diag.gate.passed,
               "converged": diag.converged,
               "all contraction ratios <= 0.5":
                   all(rr <= 0.5 for rr in diag.ratios),
               "solution norm <= twice the linear norm":
                   final_norm <= 2.0 * diag.linear_norm,
               "fixed-point residual <= 1e-8":
                   diag.residual_estimate <= 1e-8,
               "nonlinearity off reproduces the semigroup to 1e-12":
                   lin_err <= 1e-12,
               "norms across rotation rates within factor 1.5":
                   spread <= 1.5})


# ---------------------------------------------------------------------------
# 8. exact planar decay benchmark

def test_c08_taylor_green_decay():
    grid = Grid(dim=2, n=64, period_l=1.0)
    w0 = curl(taylor_green_2d(grid))
    start = time.perf_counter()
    times, states = run_vorticity(w0, dt=1e-3, n_steps=500, sample_every=500)
    elapsed = time.perf_counter() - start
    ref = dealias(w0) * math.exp(-2.0 * float(times[-1]))
    err = (states[-1].w - ref).l2() / ref.l2()
    criterion(8, f"planar cellular-flow decay, 64^2, 500 steps "
              f"(error {err:.2e}, {elapsed:.2f} s)",
              {"relative L2 error <= 1e-8": err <= 1e-8,
               "runtime < 30 s": elapsed < 30.0})


# ---------------------------------------------------------------------------
# 9. planar rotation is a pressure gradient

def test_c09_planar_rotation_is_pressure():
    grid = Grid(dim=2, n=32, period_l=1.0)
    worst = max(coriolis_projection_identity(
        random_divfree_field(grid, seed=(9, i))) for i in range(50))

    u = random_divfree_field(grid, seed=(9, 999))
    rot, plain = u, u
    agree = 0.0
    for _ in range(2):  # compare at t = 0.25 and t = 0.5
        rot = advance_velocity(rot, dt=1e-3, steps=250, omega=25.0)
        plain = advance_velocity(plain, dt=1e-3, steps=250, omega=0.0)
        agree = max(agree, rel_sup(rot.coeffs, plain.coeffs))
    criterion(9, "planar rotation projects away "
              f"(residual {worst:.2e}, trajectory gap {agree:.2e})",
              {"projected rotation term <= 1e-12 on 50 fields":
                   worst <= 1e-12,
               "rotating and plain trajectories agree to 1e-10":
                   agree <= 1e-10})


# ---------------------------------------------------------------------------
# 10. vorticity Lebesgue monotonicity and the gradient bound

def test_c10_vorticity_lp_and_gradient_bound():
    grid = Grid(dim=2, n=128, period_l=1.0)
    checks = {}
    for i in range(5):
        w0 = random_scalar_field(grid, seed=(10, i))
        times, states = run_vorticity(w0, dt=2e-3, n_steps=500,
                                      sample_every=50)
        report = gronwall_diagnostic(times, states, (2.0, 4.0))
        for p in (2.0, 4.0):
            summary = report["summary"][p]
            checks[f"trajectory {i} p={p} monotone"] = \
                summary["vorticity_margin"] >= -1e-10
            checks[f"trajectory {i} p={p} gradient bound"] = \
                summary["cz_margin"] >= -1e-10
    criterion(10, "vorticity L^p non-growth and gradient bound, "
              "5 random 128^2 trajectories to t=1", checks)


# ---------------------------------------------------------------------------
# 11. rotating-frame transport residual and its convergence order

def test_c11_rotating_frame_residual_order():
    grid = Grid(dim=2, n=128, period_l=2.0)
    center = np.array([2.0 * math.pi, 2.0 * math.pi])
    w0 = gaussian_vortex(grid, width_sq=0.1,
                         center=center + np.array([0.8, 0.0]))
    dt = 2.5e-4
    state = advance_vorticity(VorticityState(w0), dt, int(round(0.149 / dt)))
    samples = [state]
    for _ in range(8):
        samples.append(advance_vorticity(samples[-1], dt, 1, check_cfl=False))
    times = np.array([st.t for st in samples])
    fields = [st.w for st in samples]

    def window(idx):
        res = rotating_frame_residual(times[idx], [fields[k] for k in idx],
                                      5.0, mask_radius=1.5, center=center)
        return res["max_residual"]

    coarse = window([0, 4, 8])    # sample spacing 1e-3
    fine = window([3, 4, 5])      # sample spacing 2.5e-4
    order = math.log(coarse / fine) / math.log(4.0)
    criterion(11, "rotating-frame residual of a transported vortex "
              f"(residual {coarse:.2e}, order {order:.2f})",
              {"residual <= 1e-4 at window 1e-3": coarse <= 1e-4,
               "convergence order >= 1.8": order >= 1.8})


# ---------------------------------------------------------------------------
# 12. estimate lab: ensemble stability and rotation invariance

def test_c12_lab_stability_and_rotation_invariance():
    smoothing = verify_duhamel_smoothing(ensemble=20, seed=0)
    product = verify_product_estimate(ensemble=20, seed=0)
    linear = verify_semigroup_bounds(ensemble=20, seed=0)

    still = verify_semigroup_bounds(p=2.0, ensemble=20, seed=0, omega=0.0)
    spinning = verify_semigroup_bounds(p=2.0, ensemble=20, seed=0,
                                       omega=100.0)
    sup_gap = max(abs(a - b) / abs(a) for a, b in
                  zip(still.ratios, spinning.ratios))
    smooth_gap = max(abs(a - b) / abs(a) for a, b in
                     zip(still.details["smoothing_ratios"],
                         spinning.details["smoothing_ratios"]))

    criterion(12, "estimate lab: doubled ensembles stay within 20% "
              f"(stabilities {smoothing.stability:.3f}, "
              f"{product.stability:.3f}, {linear.stability:.3f}; "
              f"rotation gap {max(sup_gap, smooth_gap):.1e})",
              {"forced-smoothing ratios stable":
                   smoothing.passed and smoothing.stability < 0.2,
               "product-estimate ratios stable":
                   product.passed and product.stability < 0.2,
               "linear-bound ratios stable":
                   linear.passed and linear.stability < 0.2,
               "linear ratios rotation-invariant to 1e-10":
                   max(sup_gap, smooth_gap) <= 1e-10})


# ---------------------------------------------------------------------------
# 13. deterministic pipeline artifacts

def test_c13_pipeline_determinism(tmp_path):
    def run(sub):
        workdir = tmp_path / sub
        code = cli.main(["solve3d", "--workdir", str(workdir),
                         "--set", "n=12", "--set", "period_l=4",
                         "--set", "horizon=0.25", "--set", "dt=0.0625",
                         "--set", "amplitude=0.01", "--set", "seed=3",
                         "--set", "tolerance=1e-10"])
        assert code == 0
        code = cli.main(["lab", "--workdir", str(workdir),
                         "--set", "inequality=product", "--set", "ensemble=2",
                         "--set", "n_samples=5", "--set", "s_values=0,0.5",
                         "--set", "csv=sweep.csv"])
        assert code == 0
        return workdir

    first, second = run("one"), run("two")
    names = sorted(p.name for p in first.iterdir())
    checks = {"same artifact set": names ==
              sorted(p.name for p in second.iterdir())}
    for name in names:
        checks[f"{name} byte-identical"] = \
            (first / name).read_bytes() == (second / name).read_bytes()
    criterion(13, f"repeated runs produce byte-identical artifacts "
              f"({len(names)} files)", checks)
