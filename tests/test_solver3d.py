import math
import tracemalloc
import warnings

import numpy as np
import pytest

from fbns import lp, solver3d
from fbns.semigroup import apply_semigroup, duhamel_recursion
from fbns.solver2d import _velocity_rhs
from fbns.solver3d import (DEFAULT_GATE_CONSTANT, SolverConfig3D, pair_forcing,
                           picard_solve, smallness_gate)
from fbns.spectral import (Grid, SpectralField, dealias, divergence_defect,
                           forward_transform, helmholtz_project,
                           inverse_transform, leray, random_divfree_field,
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
# quadratic forcing: pair_forcing in 3d, the 2d velocity RHS in 2d

def band_state(u):
    # the band-packed state the forcing takes: helical amplitudes in 3d
    band = u.grid.pack(u.coeffs)
    return u.grid.helical(band) if u.grid.dim == 3 else band


def forcing(u):
    # P div(u (x) u) of a half-spectrum field, as Cartesian band coefficients:
    # pair_forcing in 3d, minus solver2d's velocity RHS at omega = 0 in 2d
    grid = u.grid
    if grid.dim == 2:
        return -_velocity_rhs(grid, 0.0)(band_state(u))
    return grid.cartesian(pair_forcing(grid, band_state(u)))


def polarized(u, v):
    # F(u + v) - F(u) - F(v) = P div(u (x) v + v (x) u): the bilinear form
    # of the quadratic forcing
    return forcing(u + v) - forcing(u) - forcing(v)


def velocity_form(grid, u):
    # P div(u (x) u) of band-packed 2d components in velocity form, each
    # product u_i u_j taken straight to the band and then projected: the
    # oracle of the 2d velocity RHS, which goes through the vorticity
    up = grid._to_samples(u)
    *xi, inv_xi_sq = grid.band_symbols
    div = np.zeros((2,) + xi[0].shape, dtype=np.complex128)
    for jax in range(2):
        for iax in range(jax + 1):
            prod_hat = grid._to_band(up[iax] * up[jax])
            div[iax] += 1j * xi[jax] * prod_hat
            if iax < jax:
                div[jax] += 1j * xi[iax] * prod_hat
    return leray(div, xi, inv_xi_sq)


def pair_forcing_on_stored_modes(u, v):
    # the divergence accumulated on every stored mode, then masked to the
    # band and projected (in 3d by the helical projection): the formula
    # before the band gather
    grid = u.grid
    up, vp = inverse_transform(u), inverse_transform(v)
    div = np.zeros((grid.dim,) + grid.spectral_shape, dtype=np.complex128)
    for jax in range(grid.dim):
        for iax in range(grid.dim):
            prod_hat = forward_transform(up[iax] * vp[jax], grid).coeffs[0]
            div[iax] += 1j * grid.xi_axis(jax) * prod_hat
    div *= grid.dealias_mask
    return grid.helical(div) if grid.dim == 3 else helmholtz_project(SpectralField(grid, div)).coeffs


@pytest.mark.parametrize("grid", [Grid(dim=2, n=32, period_l=1.0),
                                  Grid(dim=3, n=16, period_l=4.0)])
def test_pair_forcing_on_the_band_equals_stored_mode_formula(grid):
    for seed in (71, 72):
        state = band_state(random_divfree_field(grid, seed=seed, cutoff=grid.band_max))
        # the Cartesian field that the 3d amplitudes hold
        u = SpectralField(grid, grid.unpack(grid.cartesian(state) if grid.dim == 3 else state))
        expected = grid.pack(pair_forcing_on_stored_modes(u, u))
        if grid.dim == 3:
            assert np.array_equal(pair_forcing(grid, state), expected)
        else:  # the velocity form bit for bit, the vorticity path to rounding
            assert np.array_equal(velocity_form(grid, state), expected)
            got = -_velocity_rhs(grid, 0.0)(state)
            assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_pair_forcing_hand_oracle():
    # w = (cos 2x2, cos x1, 0) on a 2 pi box is divergence-free, so
    # div(w (x) w) = w . grad w = (-2 cos x1 sin 2x2, -sin x1 cos 2x2, 0),
    # which is not a gradient: its coefficients (i/2, i/4, 0) at
    # k = (1, 2, 0) and (-i/2, i/4, 0) at k = (1, -2, 0) lose their parts
    # along k under the projection
    grid = Grid(dim=3, n=16, period_l=1.0)
    w = component_mode(grid, 0, (0, 2, 0)) + component_mode(grid, 1, (1, 0, 0))
    out = SpectralField(grid, grid.unpack(forcing(w)))
    mask = np.zeros(grid.spectral_shape, dtype=bool)
    for k2, expected in ((2, np.array([0.3j, -0.15j, 0.0])),
                         (-2, np.array([-0.3j, -0.15j, 0.0]))):
        assert np.max(np.abs(out.coeffs[:, 1, k2, 0] - expected)) < 1e-14
        # the mirror mode -k holds the conjugate
        assert np.max(np.abs(out.coeffs[:, -1, -k2, 0] - expected.conj())) < 1e-14
        mask[1, k2, 0] = mask[-1, -k2, 0] = True
    # nothing else is populated
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
    k = np.r_[:grid.n // 2, -(grid.n // 2):0] * grid.dxi  # exact integer wavenumbers
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
        for got, expected in ((forcing(u), direct_forcing(u, u)),
                              (polarized(u, v), direct_forcing(u, v) + direct_forcing(v, u))):
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(grid.unpack(got) - expected)) < 1e-13 * scale


def test_pair_forcing_bilinear_and_projected():
    for grid in (GRID, Grid(dim=2, n=16, period_l=4.0)):
        u = random_divfree_field(grid, seed=52)
        v = random_divfree_field(grid, seed=53)
        w = random_divfree_field(grid, seed=54)
        assert divergence_defect(SpectralField(grid, grid.unpack(forcing(u)))) < 1e-12
        left = polarized(u + w, v)
        right = polarized(u, v) + polarized(w, v)
        assert np.max(np.abs(left - right)) < 1e-13
        scaled = polarized(u * 2.5, v)
        assert np.max(np.abs(scaled - 2.5 * polarized(u, v))) < 1e-13
        assert np.max(np.abs(forcing(u * 2.5) - 6.25 * forcing(u))) < 1e-13


def count_calls(monkeypatch, *targets):
    """Count calls of each (owner, name) target, keyed by name."""
    calls = {}
    for owner, name in targets:
        def counting(*args, _name=name, _original=getattr(owner, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        calls[name] = 0
        monkeypatch.setattr(owner, name, counting)
    return calls


def test_nonlinear_term_transforms_its_field_once(monkeypatch):
    calls = count_calls(monkeypatch, (Grid, "_to_samples"), (np.fft, "irfftn"),
                        (Grid, "_to_band"), (np.fft, "ifft"), (np.fft, "fft"))
    # 3d: u (x) u is symmetric, so 6 products instead of 9, each forward by the
    # pruned transform (two complex passes), and the band is inverted once by
    # the pruned transform, not by irfftn; 2d: the velocity RHS goes through
    # the vorticity, one complex band inverse and one forward of two passes each
    grid2 = Grid(dim=2, n=16, period_l=1.0)
    for grid, rhs, counts in ((GRID, lambda u: pair_forcing(GRID, u), (1, 0, 6, 2, 12)),
                              (grid2, _velocity_rhs(grid2, 0.0), (0, 0, 0, 2, 2))):
        calls.update(dict.fromkeys(calls, 0))
        rhs(band_state(random_divfree_field(grid, seed=55)))
        assert tuple(calls.values()) == counts


def mild_map_sweep(buffer, prop):
    # one in-place sweep of the mild map as picard_solve runs it on a buffer
    # whose sample 0 is u0, but forcing every sample, sample 0 included
    grid = prop.grid
    duhamel_recursion(prop, buffer, lambda k: -pair_forcing(grid, buffer[k]))


def test_picard_sweep_stays_on_the_band(monkeypatch):
    # every forcing sample goes straight between the band and the samples:
    # no scatter to the half spectrum, no gather back, no n-d transform (a
    # first sweep builds the per-grid symbols, which gather once)
    grid = Grid(dim=3, n=8, period_l=1.0)
    u0 = band_state(small_data(grid, seed=56))
    buffer = np.repeat(u0[np.newaxis], 5, axis=0)
    prop = solver3d.propagator(grid, 0.05, 3.0)
    mild_map_sweep(buffer, prop)
    calls = count_calls(monkeypatch, (Grid, "unpack"), (Grid, "pack"), (Grid, "gather"),
                        (np.fft, "irfftn"), (np.fft, "rfftn"), (Grid, "_to_band"))
    mild_map_sweep(buffer, prop)
    assert calls == {"unpack": 0, "pack": 0, "gather": 0, "irfftn": 0, "rfftn": 0,
                     "_to_band": 5 * 6}


def test_picard_solve_forces_sample_zero_once_and_skips_the_linear_increment(monkeypatch):
    # sample 0 of every iterate is u0, so its forcing and its shell series are
    # taken once per solve, and the linear sweep records no increment series,
    # which nothing reads: 1 + m (S - 1) forcings and 1 + S + 2 m (S - 1) shell
    # series (one for the gate) over S samples and m iterations
    grid = Grid(dim=3, n=8, period_l=1.0)
    u0 = small_data(grid, seed=56)
    config = SolverConfig3D(grid=grid, horizon=0.25, dt=1.0 / 16.0, tolerance=1e-11)
    calls = count_calls(monkeypatch, (solver3d, "pair_forcing"), (lp, "shell_series"))
    traj, diag = picard_solve(u0, config)
    m, s = diag.iterations, len(config.times)
    assert diag.converged and (m, s) == (4, 5)
    assert calls == {"pair_forcing": 1 + m * (s - 1), "shell_series": 1 + s + 2 * m * (s - 1)}
    # and the iterate is bit for bit that of sweeps that force every sample
    buffer = np.zeros_like(traj.coeffs)
    buffer[0] = band_state(dealias(u0))
    prop = solver3d.propagator(grid, config.dt, config.omega)
    duhamel_recursion(prop, buffer)
    for _ in range(m):
        mild_map_sweep(buffer, prop)
    assert np.array_equal(buffer, traj.coeffs)


def test_nonlinear_term_validation():
    grid2 = Grid(dim=2, n=8, period_l=1.0)
    f2 = np.zeros((3,) + grid2.spectral_shape, dtype=np.complex128)
    with pytest.raises(ValueError, match="takes 2 helical amplitudes, got 3 components"):
        pair_forcing(grid2, f2)
    with pytest.raises(ValueError, match="takes 2 helical amplitudes, got 3 components"):
        pair_forcing(GRID, GRID.pack(random_divfree_field(GRID, seed=1).coeffs))
    other = band_state(random_divfree_field(Grid(dim=3, n=8, period_l=1.0), seed=1))
    with pytest.raises(ValueError, match="neither layout"):
        pair_forcing(GRID, other)


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
    assert np.array_equal(traj.coeffs[0], band_state(dealias(u0)))


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
    bil = duhamel_bilinear(linear, config.omega)
    recon = linear.coeffs - bil.coeffs
    assert np.max(np.abs(nxt.coeffs - recon)) < 1e-14


def test_zero_start_converges_to_same_fixed_point():
    # uniqueness of the small-data fixed point: the mild map iterated from
    # the zero trajectory reaches the one picard_solve reaches from the
    # linear trajectory
    u0 = dealias(small_data(GRID, seed=64))
    config = solver_config()
    fixed, diag = picard_solve(u0, config)
    assert diag.converged
    current = Samples(GRID, config.times, np.zeros((config.times.size, 2) + GRID.spectral_shape,
                                                   dtype=np.complex128))
    for _ in range(40):
        current = picard_map(current, u0, 0.0)
    assert mild_norm_of(unpacked(fixed) - current) < 1e-9


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


def test_in_place_sweep_matches_repeated_picard_map():
    u0 = dealias(small_data(GRID, seed=68))
    config = solver_config(omega=5.0, max_iterations=4, tolerance=1e-14)
    traj, diag = picard_solve(u0, config)
    assert diag.iterations == 4 and not diag.aborted

    current = linear_samples(u0, config.times, config.omega)
    assert math.isclose(diag.linear_norm, mild_norm_of(current),
                        rel_tol=1e-12)
    assert diag.iterate_norms[0] == diag.linear_norm
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


@pytest.mark.parametrize("r", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("p", [1.25, 2.0, 4.0, math.inf])
def test_picard_contracts_over_the_papers_exponent_range(p, r):
    # the paper's 3d theorem holds for p in (1, inf] and r in [1, inf]: data
    # at 0.9 of the gate threshold in the (p, r) norm contracts by at least
    # the gate's bound 4 C eps = 1/2 at every iteration, rotating or not
    u0 = small_data(GRID, seed=72, fraction=0.9, p=p, r=r)
    for omega in (0.0, 10.0):
        _, diag = picard_solve(u0, solver_config(omega=omega, p=p, r=r,
                                                 tolerance=1e-9))
        assert diag.gate.passed
        assert diag.converged and not diag.aborted, (omega, diag.message)
        assert max(diag.ratios) <= 0.5, (omega, diag.ratios)


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
    # two helical amplitudes per band mode and sample: 32 bytes, not 48, and
    # the preflight estimate bounds the whole solve, within a quarter
    assert traj.coeffs.nbytes == traj.n_samples * 32 * math.prod(GRID.band_shape)
    assert traj.coeffs.nbytes < peak <= config.memory_bytes <= 1.25 * peak


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
