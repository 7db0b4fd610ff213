import math
import tracemalloc
import warnings

import numpy as np
import pytest

from fbns import lp, solver3d
from fbns.semigroup import apply_semigroup
from fbns.solver3d import (DEFAULT_GATE_CONSTANT, SolverConfig3D, pair_forcing,
                           picard_solve, smallness_gate)
from fbns.spectral import (Grid, SpectralField, dealias, divergence_defect,
                           forward_transform, helmholtz_project,
                           inverse_transform, random_divfree_field,
                           taylor_green_3d)
from full_layout import (Samples, duhamel_bilinear, linear_samples, picard_map,
                         unpacked)

GRID = Grid(dim=3, n=16, period_l=4.0)


def mild_norm_of(traj, p=2.0, r=2.0):
    part = lp.get_partition(traj.grid)
    return lp.mild_norm(lp.shell_series(traj.coeffs, p, part), traj.times,
                        p, r, part)


def small_data(grid, seed, fraction=0.5, p=2.0, r=2.0):
    u0 = random_divfree_field(grid, seed=seed)
    norm = lp.fb_norm_value(u0, lp.critical_index(p), p, r)
    threshold = 1.0 / (8.0 * DEFAULT_GATE_CONSTANT**2)
    return u0 * (fraction * threshold / norm)


def component_mode(grid, comp, k, amplitude=1.0):
    # amplitude cos(k.x/L) e_comp: amplitude/2 at k and at -k, of which the
    # half spectrum stores those with a non-negative last index
    coeffs = np.zeros((3,) + grid.spectral_shape, dtype=np.complex128)
    for mode in (tuple(k), tuple(-ki for ki in k)):
        if mode[-1] >= 0:
            coeffs[(comp,) + mode] = amplitude / 2.0
    return SpectralField(grid, coeffs)


# ---------------------------------------------------------------------------
# quadratic forcing

def pair_forcing_on_stored_modes(u, v):
    # the divergence accumulated on every stored mode, then masked to the
    # band and projected: the formula before the band gather
    grid = u.grid
    up, vp = inverse_transform(u), inverse_transform(v)
    div = np.zeros((grid.dim,) + grid.spectral_shape, dtype=np.complex128)
    for jax in range(grid.dim):
        for iax in range(grid.dim):
            prod_hat = forward_transform(up[iax] * vp[jax], grid).coeffs[0]
            div[iax] += 1j * grid.xi_axis(jax) * prod_hat
    div *= grid.dealias_mask
    return helmholtz_project(SpectralField(grid, div))


@pytest.mark.parametrize("grid", [Grid(dim=2, n=32, period_l=1.0),
                                  Grid(dim=3, n=16, period_l=4.0)])
def test_pair_forcing_on_the_band_equals_stored_mode_formula(grid):
    u = random_divfree_field(grid, seed=71, cutoff=grid.band_max)
    v = random_divfree_field(grid, seed=72, cutoff=grid.band_max)
    for a, b in ((u, v), (u, u)):
        expected = pair_forcing_on_stored_modes(a, b).coeffs
        assert np.array_equal(pair_forcing(a, b).coeffs, expected)


def test_pair_forcing_hand_oracle():
    # u = (0, cos x1, 0), v = (cos x2, 0, 0) on a 2 pi box: the tensor
    # divergence is (0, -sin x1 cos x2, 0) and projection at xi = (1, 1, 0)
    # moves a quarter of the coefficient onto the first component
    grid = Grid(dim=3, n=16, period_l=1.0)
    u = component_mode(grid, 1, (1, 0, 0))
    v = component_mode(grid, 0, (0, 1, 0))
    out = pair_forcing(u, v)
    expected = np.array([-0.125j, 0.125j, 0.0])
    assert np.max(np.abs(out.coeffs[:, 1, 1, 0] - expected)) < 1e-14
    assert np.max(np.abs(out.coeffs[:, -1, -1, 0] - expected.conj())) < 1e-14
    # only the four modes (+-1, +-1, 0) are populated
    mask = np.zeros(grid.spectral_shape, dtype=bool)
    for k1 in (1, -1):
        for k2 in (1, -1):
            mask[k1, k2, 0] = True
    assert np.max(np.abs(out.coeffs[:, ~mask])) < 1e-15


def direct_forcing(u, v):
    """Slow oracle: lattice convolution by explicit shifts on the full
    spectrum, then the symbol-level divergence and projection, kept on the
    stored half and masked to the dealiased band."""
    grid = u.grid
    dims = range(grid.dim)
    uf, vf = grid.full_spectrum(u.coeffs), grid.full_spectrum(v.coeffs)
    conv = np.zeros((grid.dim, grid.dim) + grid.shape, dtype=np.complex128)
    # conv_{ij}(k) = sum_m u_i(m) v_j(k - m); rolling v by m realizes k - m
    support = np.argwhere(np.max(np.abs(uf), axis=0) > 0)
    for idx in support:
        m = tuple(int(i) for i in idx)
        um = uf[(slice(None),) + m]
        rolled = np.roll(vf, shift=m, axis=tuple(range(1, grid.dim + 1)))
        for i in dims:
            for j in dims:
                conv[i, j] += um[i] * rolled[j]
    k = np.fft.fftfreq(grid.n, d=1.0 / grid.n) * grid.dxi
    xi = np.meshgrid(*([k] * grid.dim), indexing="ij")
    div = np.zeros((grid.dim,) + grid.shape, dtype=np.complex128)
    for i in dims:
        for j in dims:
            div[i] += 1j * xi[j] * conv[i, j]
    xi_sq = sum(x**2 for x in xi)
    safe = np.where(xi_sq > 0, xi_sq, 1.0)
    dot = sum(xi[j] * div[j] for j in dims)
    proj = div - np.stack([xi[i] * dot / safe for i in dims])
    proj[(slice(None),) + (0,) * grid.dim] = 0.0
    return grid.half_spectrum(proj) * grid.dealias_mask


def test_pair_forcing_matches_direct_convolution():
    for grid in (Grid(dim=3, n=8, period_l=2.0), Grid(dim=2, n=16, period_l=2.0)):
        u = random_divfree_field(grid, seed=50)
        v = random_divfree_field(grid, seed=51)
        got = pair_forcing(u, v)
        expected = direct_forcing(u, v)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(got.coeffs - expected)) < 1e-13 * scale


def test_pair_forcing_bilinear_and_projected():
    for grid in (GRID, Grid(dim=2, n=16, period_l=4.0)):
        u = random_divfree_field(grid, seed=52)
        v = random_divfree_field(grid, seed=53)
        w = random_divfree_field(grid, seed=54)
        assert divergence_defect(pair_forcing(u, v)) < 1e-12
        left = pair_forcing(u + w, v).coeffs
        right = pair_forcing(u, v).coeffs + pair_forcing(w, v).coeffs
        assert np.max(np.abs(left - right)) < 1e-13
        scaled = pair_forcing(u * 2.5, v).coeffs
        assert np.max(np.abs(scaled - 2.5 * pair_forcing(u, v).coeffs)) < 1e-13


def test_nonlinear_term_transforms_its_field_once(monkeypatch):
    calls = {"inverse_transform": 0, "forward_transform": 0}
    for name in calls:
        def counting(*args, _name=name, _original=getattr(solver3d, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(solver3d, name, counting)
    # u (x) u is symmetric: dim (dim + 1) / 2 products instead of dim^2
    for grid, products, full in ((GRID, 6, 9), (Grid(dim=2, n=16, period_l=1.0), 3, 4)):
        u = random_divfree_field(grid, seed=55)
        calls.update(inverse_transform=0, forward_transform=0)
        expected = pair_forcing(u, u.copy()).coeffs
        assert calls == {"inverse_transform": 2, "forward_transform": full}
        calls.update(inverse_transform=0, forward_transform=0)
        got = pair_forcing(u, u).coeffs
        assert calls == {"inverse_transform": 1, "forward_transform": products}
        assert np.array_equal(got, expected)


def test_nonlinear_term_validation():
    grid2 = Grid(dim=2, n=8, period_l=1.0)
    f2 = SpectralField(grid2, np.zeros((3,) + grid2.spectral_shape, dtype=np.complex128))
    with pytest.raises(ValueError, match="2-component fields"):
        pair_forcing(f2, f2)
    other = random_divfree_field(Grid(dim=3, n=8, period_l=1.0), seed=1)
    with pytest.raises(ValueError, match="different grids"):
        pair_forcing(random_divfree_field(GRID, seed=2), other)


# ---------------------------------------------------------------------------
# smallness gate

def test_gate_threshold_and_boundary():
    u0 = random_divfree_field(GRID, seed=60)
    norm = lp.fb_norm_value(u0, lp.critical_index(2.0), 2.0, 2.0)
    threshold = 1.0 / (8.0 * DEFAULT_GATE_CONSTANT**2)
    at_boundary = u0 * (threshold / norm)
    rep = smallness_gate(at_boundary, 2.0, 2.0)
    assert rep.passed and math.isclose(rep.norm, threshold, rel_tol=1e-12)
    assert rep.threshold == threshold
    assert rep.epsilon == 1.0 / (8.0 * DEFAULT_GATE_CONSTANT)
    above = u0 * (threshold * 1.001 / norm)
    assert not smallness_gate(above, 2.0, 2.0).passed
    with pytest.raises(ValueError):
        smallness_gate(u0, 2.0, 2.0, constant=0.0)
    # stricter constant shrinks the admissible ball
    assert smallness_gate(at_boundary, 2.0, 2.0, constant=4.0).threshold < threshold


# ---------------------------------------------------------------------------
# Picard iteration

def solver_config(**kwargs):
    defaults = dict(grid=GRID, horizon=1.0, dt=1.0 / 16.0, tolerance=1e-11)
    defaults.update(kwargs)
    return SolverConfig3D(**defaults)


def test_picard_contracts_on_small_data():
    u0 = small_data(GRID, seed=61)
    traj, diag = picard_solve(u0, solver_config())
    assert diag.gate.passed
    assert diag.converged and not diag.aborted
    assert diag.residual_estimate <= 1e-11
    assert all(r <= 0.5 for r in diag.ratios)
    assert diag.iterate_norms[-1] <= 2.0 * diag.linear_norm
    assert traj.fb_norms is not None and len(traj.fb_norms) == traj.n_samples
    assert np.array_equal(traj.field(0).coeffs, dealias(u0).coeffs)


def test_picard_fixed_point_is_scheme_consistent():
    u0 = small_data(GRID, seed=62)
    traj = unpacked(picard_solve(u0, solver_config())[0])
    again = picard_map(traj, dealias(u0), 0.0)
    diff = mild_norm_of(again - traj)
    assert diff < 1e-10


def test_picard_map_is_linear_minus_bilinear():
    u0 = small_data(GRID, seed=63)
    config = solver_config(omega=7.0)
    linear = linear_samples(dealias(u0), config.times, config.omega)
    nxt = picard_map(linear, dealias(u0), config.omega)
    bil = duhamel_bilinear(linear, linear, config.omega)
    recon = linear.coeffs - bil.coeffs
    assert np.max(np.abs(nxt.coeffs - recon)) < 1e-14


def test_zero_start_converges_to_same_fixed_point():
    u0 = small_data(GRID, seed=64)
    t1, d1 = picard_solve(u0, solver_config(), initial_iterate="linear")
    t2, d2 = picard_solve(u0, solver_config(), initial_iterate="zero")
    assert d1.converged and d2.converged
    diff = mild_norm_of(unpacked(t1) - unpacked(t2))
    assert diff < 1e-9
    with pytest.raises(ValueError, match="initial iterate"):
        picard_solve(u0, solver_config(), initial_iterate="picard")


def test_nonlinearity_disabled_reproduces_semigroup():
    u0 = small_data(GRID, seed=65)
    config = solver_config(omega=9.0, nonlinearity=False)
    traj, diag = picard_solve(u0, config)
    assert diag.converged and diag.iterations == 0
    assert "nonlinearity disabled" in diag.message
    u0d = dealias(u0)
    for k in (3, config.n_steps):
        direct = apply_semigroup(u0d, config.times[k], config.omega)
        assert np.max(np.abs(traj.field(k).coeffs - direct.coeffs)) < 1e-13


def test_rotation_changes_trajectory_but_not_data_norm():
    u0 = small_data(GRID, seed=66)
    t0, d0 = picard_solve(u0, solver_config(omega=0.0))
    t1, d1 = picard_solve(u0, solver_config(omega=20.0))
    assert d0.converged and d1.converged
    assert np.max(np.abs(t0.coeffs[-1] - t1.coeffs[-1])) > 1e-12
    assert math.isclose(d0.gate.norm, d1.gate.norm, rel_tol=1e-13)


def test_solver_input_validation():
    u0 = small_data(GRID, seed=67)
    with pytest.raises(ValueError, match="does not match"):
        picard_solve(u0, solver_config(grid=Grid(dim=3, n=8, period_l=4.0)))
    bad = SpectralField(GRID, u0.coeffs.copy())
    bad.coeffs[0, 2, 0, 0] += 0.1
    with pytest.raises(ValueError, match="divergence-free"):
        picard_solve(bad, solver_config())


def test_config_validation_messages():
    with pytest.raises(ValueError, match="contraction argument fails at p = 1"):
        solver_config(p=1.0)
    with pytest.raises(ValueError, match="summation index"):
        solver_config(r=0.5)
    with pytest.raises(ValueError, match="integer multiple"):
        solver_config(horizon=1.0, dt=0.3)
    with pytest.raises(ValueError, match="3d grid"):
        solver_config(grid=Grid(dim=2, n=16, period_l=1.0))
    with pytest.raises(ValueError):
        solver_config(max_iterations=0)
    with pytest.raises(ValueError):
        solver_config(tolerance=0.0)
    with pytest.raises(ValueError):
        solver_config(dt=2.0)  # exceeds horizon


def test_advective_sampling_warning():
    u0 = taylor_green_3d(GRID, amplitude=30.0)
    config = solver_config(horizon=0.25, dt=0.25, max_iterations=1,
                           tolerance=1e-3)
    with pytest.warns(RuntimeWarning, match="CFL"):
        picard_solve(u0, config)


@pytest.mark.parametrize("initial", ["linear", "zero"])
def test_in_place_sweep_matches_repeated_picard_map(initial):
    u0 = dealias(small_data(GRID, seed=68))
    config = solver_config(omega=5.0, max_iterations=4, tolerance=1e-14)
    traj, diag = picard_solve(u0, config, initial_iterate=initial)
    assert diag.iterations == 4 and not diag.aborted

    current = linear_samples(u0, config.times, config.omega)
    assert math.isclose(diag.linear_norm, mild_norm_of(current),
                        rel_tol=1e-12)
    if initial == "zero":
        coeffs = np.zeros_like(current.coeffs)
        coeffs[0] = u0.coeffs
        current = Samples(GRID, config.times, coeffs)
    assert math.isclose(diag.iterate_norms[0], mild_norm_of(current),
                        rel_tol=1e-12)
    for m in range(diag.iterations):
        nxt = picard_map(current, u0, config.omega)
        diff = mild_norm_of(nxt - current)
        assert math.isclose(diag.diff_norms[m], diff, rel_tol=1e-12)
        assert math.isclose(diag.iterate_norms[m + 1],
                            mild_norm_of(nxt), rel_tol=1e-12)
        current = nxt
    assert np.max(np.abs(unpacked(traj).coeffs - current.coeffs)) \
        <= 1e-12 * np.max(np.abs(current.coeffs))
    s = lp.critical_index(2.0)
    expected = [lp.fb_norm_value(current.field(k), s, 2.0, 2.0)
                for k in range(current.n_samples)]
    assert np.allclose(traj.fb_norms, expected, rtol=1e-12, atol=0.0)


def test_error_estimate_tracks_distance_to_fixed_point():
    # q/(1 - q) d against the mild-norm distance to the converged solution:
    # measured between 0.965 (seed 62 at half the gate threshold after two
    # iterations, the one undershoot) and 1.22 over this grid of cases
    for seed in (5, 61, 62, 70):
        for fraction in (0.5, 0.9):
            u0 = small_data(GRID, seed=seed, fraction=fraction)
            fixed, diag = picard_solve(u0, solver_config(omega=3.0,
                                                         tolerance=1e-14))
            assert diag.converged
            for m in (2, 3, 4):
                traj, diag = picard_solve(u0, solver_config(
                    omega=3.0, max_iterations=m, tolerance=1e-14))
                q = diag.ratios[-1]
                assert diag.error_estimate == q / (1 - q) * diag.diff_norms[-1]
                ratio = diag.error_estimate / mild_norm_of(
                    unpacked(traj) - unpacked(fixed))
                assert 0.9 < ratio < 1.35, (seed, fraction, m, ratio)
    _, diag = picard_solve(u0, solver_config(max_iterations=1))
    assert diag.ratios == [] and diag.error_estimate is None
    assert diag.as_dict()["error_estimate"] is None


def test_picard_solve_keeps_one_trajectory_live():
    # the iterate is stored on the dealiased band only (726 of the 2,304
    # stored modes at 16^3), so the whole solve peaks below one trajectory
    # in the half-spectrum layout
    u0 = small_data(GRID, seed=70)
    config = solver_config(omega=3.0)
    picard_solve(u0, config)  # fills the partition and propagator caches
    tracemalloc.start()
    try:
        traj, diag = picard_solve(u0, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert diag.converged
    full_layout = traj.n_samples * u0.coeffs.nbytes
    assert peak <= 0.75 * full_layout


def test_divergent_data_aborts_early_without_overflow():
    # 1000 times the gate threshold: the ratios grow without bound, and the
    # solver has to stop before any norm overflows
    grid = Grid(dim=3, n=16, period_l=1.0)
    u0 = small_data(grid, seed=(0,), fraction=1000.0)
    config = SolverConfig3D(grid=grid, horizon=0.25, dt=1.0 / 256.0,
                            tolerance=1e-9)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        traj, diag = picard_solve(u0, config)
    assert diag.aborted and not diag.converged
    assert diag.iterations <= 4
    assert diag.ratios[-2] > 1.0 and diag.ratios[-1] > 1.0
    assert "diverging" in diag.message
    assert f"{diag.ratios[-1]:.3g}" in diag.message
    assert np.all(np.isfinite(traj.coeffs))
