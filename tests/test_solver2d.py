import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fbns.solver2d import (SupportError, VorticityState, _if_rk4, _lambert_w0, _rhs_symbols,
                           _vorticity_rhs,
                           advance_velocity, advance_vorticity, biot_savart,
                           coriolis_projection_identity,
                           czero_constant, frame_rotation, gaussian_vortex,
                           gronwall_diagnostic, rotating_frame_residual,
                           rotating_frame_transform, run_vorticity)
from fbns.solver3d import advect_check
from fbns.spectral import (Grid, SpectralField, curl, dealias,
                           divergence_defect, forward_transform, gradient,
                           inverse_transform, random_divfree_field,
                           random_scalar_field, taylor_green_2d)
from test_solver3d import count_calls

GRID = Grid(dim=2, n=32, period_l=1.0)


def scalar_mode_cos_x1(grid):
    coeffs = np.zeros((1,) + grid.spectral_shape, dtype=np.complex128)
    coeffs[0, 1, 0] = coeffs[0, -1, 0] = 0.5
    return SpectralField(grid, coeffs)


# ---------------------------------------------------------------------------
# Biot-Savart

def test_biot_savart_hand_oracle():
    w = scalar_mode_cos_x1(GRID)  # w = cos x1
    v = biot_savart(w)
    x1 = GRID.x_axis(0) + np.zeros(GRID.shape)
    vp = inverse_transform(v)
    assert np.max(np.abs(vp[0])) < 1e-14
    assert np.max(np.abs(vp[1] - np.sin(x1))) < 1e-13


def test_biot_savart_inverts_curl():
    w = random_scalar_field(GRID, seed=70)
    v = biot_savart(w)
    assert divergence_defect(v) < 1e-14
    back = curl(v)
    assert np.max(np.abs(back.coeffs - w.coeffs)) < 1e-13
    with pytest.raises(ValueError):
        biot_savart(v)  # vector input


def test_frame_rotation_matches_generator():
    omega, t = 7.0, 0.3
    m = -0.5 * omega * np.array([[0.0, -1.0], [1.0, 0.0]])  # half-rate generator
    angle = -0.5 * omega * t
    expected = np.array([[math.cos(angle), -math.sin(angle)],
                         [math.sin(angle), math.cos(angle)]])
    assert np.max(np.abs(frame_rotation(omega, t) - expected)) < 1e-15
    # exp(tM) for the 2x2 generator, via its power series
    series = sum(np.linalg.matrix_power(t * m, k) / math.factorial(k) for k in range(30))
    assert np.max(np.abs(frame_rotation(omega, t) - series)) < 1e-15
    assert np.max(np.abs(frame_rotation(omega, t) @ frame_rotation(omega, -t)
                         - np.eye(2))) < 1e-15


# ---------------------------------------------------------------------------
# time stepping

def test_taylor_green_vorticity_decays_exactly():
    w0 = curl(taylor_green_2d(GRID))
    state = advance_vorticity(VorticityState(w0), dt=1e-3, steps=100)
    expected = w0.coeffs * math.exp(-2.0 * 0.1)
    assert np.max(np.abs(state.w.coeffs - expected)) < 1e-12
    assert math.isclose(state.t, 0.1)


def test_run_vorticity_sampling_layout():
    w0 = gaussian_vortex(GRID, width_sq=0.3)
    times, states = run_vorticity(w0, dt=1e-3, n_steps=10, sample_every=4)
    assert times.tolist() == pytest.approx([0.0, 4e-3, 8e-3, 10e-3])
    assert [st.t for st in states] == pytest.approx(times.tolist())
    assert np.array_equal(states[0].w.coeffs, dealias(w0).coeffs)
    with pytest.raises(ValueError):
        run_vorticity(w0, dt=1e-3, n_steps=5, sample_every=0)
    with pytest.raises(ValueError):
        advance_vorticity(VorticityState(w0), dt=-1e-3, steps=2)


def test_cfl_warning():
    w0 = gaussian_vortex(GRID, width_sq=0.3, amplitude=50.0)
    with pytest.warns(RuntimeWarning, match="CFL"):
        advance_vorticity(VorticityState(w0), dt=0.5, steps=1)


def test_cfl_warning_prints_a_short_ratio():
    # a ratio near 1e300 (dt=1e300 or amplitude=1e300 in solve2d) prints in
    # three significant digits, not with its hundreds of integer digits
    velocity = VorticityState(gaussian_vortex(GRID, width_sq=0.3)).velocity
    with pytest.warns(RuntimeWarning,
                      match=r"^advective CFL ratio \d\.\d\de\+\d{3} > 1; reduce dt$"):
        advect_check(velocity, 1e300)


def test_velocity_and_vorticity_steppers_agree_on_taylor_green():
    u0 = taylor_green_2d(GRID)
    w0 = curl(u0)
    u1 = advance_velocity(u0, dt=1e-3, steps=50, omega=10.0)
    state = advance_vorticity(VorticityState(w0), dt=1e-3, steps=50)
    assert np.max(np.abs(curl(u1).coeffs - state.w.coeffs)) < 1e-13


def _reference_rhs(grid):
    """The vorticity RHS as first written: -dealias(forward(v . grad w)),
    v from the Biot-Savart formula (i xi_2, -i xi_1) w_hat / |xi|^2 taken
    in that order of products, grad w from gradient."""
    def rhs(w_hat):
        field = SpectralField(grid, w_hat)
        wc, inv = field.coeffs[0], grid.inv_xi_odd_sq
        v = inverse_transform(SpectralField(grid, np.stack(
            [1j * grid.xi_axis(1) * wc * inv, -1j * grid.xi_axis(0) * wc * inv])))
        gx, gy = inverse_transform(gradient(field))
        return -dealias(forward_transform(v[0] * gx + v[1] * gy, grid)).coeffs
    return rhs


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("period_l", [1.0, 4.0])
def test_vorticity_rhs_matches_the_reference_formula(n, period_l):
    grid = Grid(2, n, period_l)
    w0 = dealias(random_scalar_field(grid, 5, amplitude=3.0))
    dt = 1e-3
    reference = _reference_rhs(grid)
    expected = grid.unpack(_if_rk4(grid.pack(w0.coeffs), grid, dt, 1,
                                   lambda w: grid.pack(reference(grid.unpack(w)))))
    got = advance_vorticity(VorticityState(w0), dt, 1).w.coeffs
    # the nonlinear term must weigh in, or the comparison pins only diffusion
    linear = grid.unpack(_if_rk4(grid.pack(w0.coeffs), grid, dt, 1, np.zeros_like))
    assert np.max(np.abs(expected - linear)) > 1e-8 * np.max(np.abs(expected))
    assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_rhs_symbol_cache_is_keyed_by_the_whole_grid():
    grids = [Grid(2, 16, 1.0), Grid(2, 16, 4.0), Grid(2, 32, 1.0)]

    def run(grid):  # v . grad w does not change when 1/L scales xi; v does
        w0 = dealias(random_scalar_field(grid, 7, amplitude=2.0))
        return np.concatenate([advance_vorticity(VorticityState(w0), 1e-3, 3).w.coeffs,
                               biot_savart(w0).coeffs])

    alone = []
    for grid in grids:
        _rhs_symbols.cache_clear()
        alone.append(run(grid))
    _rhs_symbols.cache_clear()
    for k in (0, 1, 2, 1, 0, 2):
        assert np.array_equal(run(grids[k]), alone[k])
    assert _rhs_symbols(Grid(2, 16, 4.0)) is _rhs_symbols(grids[1])
    symbols = _rhs_symbols(grids[0])
    rows, inv_conj_zeta = symbols[:2]  # 1/conj(zeta) is the Biot-Savart rows combined
    assert np.array_equal(inv_conj_zeta[:, :grids[0].kcut + 1], grids[0].pack(rows[0] + 1j * rows[1]))
    for arr in symbols:
        with pytest.raises(ValueError):
            arr[(1,) * arr.ndim] = 0


def test_vorticity_rhs_hand_oracle():
    # w = cos x1 + cos 2x2 has v = (-sin(2x2)/2, sin x1) and grad w =
    # (-sin x1, -2 sin 2x2), so -(v . grad w) = 1.5 sin x1 sin 2x2: the
    # coefficients -3/8, 3/8 at k = (1, 2), (1, -2) and their mirrors
    grid = Grid(2, 16, 1.0)
    x1, x2 = grid.x_axis(0), grid.x_axis(1)
    w = forward_transform(np.cos(x1) + np.cos(2 * x2), grid)
    expected = forward_transform(1.5 * np.sin(x1) * np.sin(2 * x2), grid)
    got = _vorticity_rhs(grid)(grid.pack(w.coeffs))
    assert np.max(np.abs(expected.coeffs)) == pytest.approx(0.375)
    assert np.max(np.abs(got - grid.pack(expected.coeffs))) < 1e-15


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([8, 10, 16, 24, 32, 48, 64, 98]), st.floats(0.25, 8.0),
       st.integers(0, 2**32 - 1))
def test_vorticity_rhs_properties(n, period_l, seed):
    grid = Grid(2, n, period_l)
    w = dealias(random_scalar_field(grid, seed, amplitude=3.0))
    _, inv_conj_zeta, _, flip = _rhs_symbols(grid)
    rhs = _vorticity_rhs(grid)(grid.pack(w.coeffs))[0]
    # the k_2 = 0 column exactly Hermitian, or the stepped vorticity stops
    # being real, and the zero mode exactly 0
    assert np.array_equal(rhs[flip, 0], np.conj(rhs[:, 0]))
    assert rhs[0, 0] == 0
    # w^/conj(zeta) on the full band is the complex velocity v_1 + i v_2
    band = np.ix_(*[np.r_[0:grid.kcut + 1, n - grid.kcut:n]] * 2)
    z_hat = np.zeros(grid.shape, complex)
    z_hat[band] = grid.full_spectrum(w.coeffs)[0][band] * inv_conj_zeta
    z = np.fft.ifft2(z_hat, norm="forward")
    v = inverse_transform(biot_savart(w))
    assert np.max(np.abs(z - (v[0] + 1j * v[1]))) <= 1e-15 * np.max(np.abs(z))


def test_vorticity_steps_stay_on_the_band(monkeypatch):
    # one pack in, one unpack out, and per RK4 stage one pruned complex band
    # inverse and one forward, two 1d passes each: no half-spectrum transform
    # and no real band transform in the steps
    grid = Grid(2, 16, 1.0)
    state = VorticityState(dealias(random_scalar_field(grid, 9, amplitude=2.0)))
    advance_vorticity(state, 1e-3, 1)  # builds the per-grid symbols
    calls = count_calls(monkeypatch, (Grid, "pack"), (Grid, "unpack"), (np.fft, "irfftn"),
                        (np.fft, "rfftn"), (Grid, "_to_samples"), (Grid, "_to_band"),
                        (np.fft, "ifft"), (np.fft, "fft"), (np.fft, "irfft"), (np.fft, "rfft"))
    advance_vorticity(state, 1e-3, 3, check_cfl=False)
    assert calls == {"pack": 1, "unpack": 1, "irfftn": 0, "rfftn": 0,
                     "_to_samples": 0, "_to_band": 0,
                     "ifft": 3 * 4 * 2, "fft": 3 * 4 * 2, "irfft": 0, "rfft": 0}


def test_coriolis_term_is_invisible_after_projection():
    grid = Grid(dim=2, n=32, period_l=1.0)
    u0 = random_divfree_field(grid, seed=71)
    assert coriolis_projection_identity(u0) < 1e-13
    grad = gradient(random_scalar_field(grid, seed=72))
    assert coriolis_projection_identity(grad) > 0.1
    with_rot = advance_velocity(u0, dt=1e-3, steps=40, omega=10.0)
    without = advance_velocity(u0, dt=1e-3, steps=40, omega=0.0)
    assert np.max(np.abs(with_rot.coeffs - without.coeffs)) < 1e-10


def test_vorticity_state_validation():
    with pytest.raises(ValueError):
        VorticityState(taylor_green_2d(GRID))  # vector field
    grid3 = Grid(dim=3, n=8, period_l=1.0)
    w3 = random_scalar_field(grid3, seed=1)
    with pytest.raises(ValueError):
        VorticityState(w3)


# ---------------------------------------------------------------------------
# rotating frame

def test_transform_identity_at_time_zero():
    w = gaussian_vortex(GRID, width_sq=0.4)
    got = rotating_frame_transform(w, 0.0, omega=9.0)
    assert np.max(np.abs(got - inverse_transform(w)[0])) < 1e-11
    v = biot_savart(w)
    got_v = rotating_frame_transform(v, 0.0, omega=9.0)
    assert np.max(np.abs(got_v - inverse_transform(v))) < 1e-11


def test_transform_matches_closed_form_gaussian():
    # width wide enough that the n = 64 band resolves the profile to
    # rounding, narrow enough that periodic images stay negligible
    grid = Grid(dim=2, n=64, period_l=1.0)
    c = np.array([math.pi, math.pi])
    c0 = c + np.array([0.9, 0.0])
    width_sq = 0.15
    w = gaussian_vortex(grid, width_sq=width_sq, center=c0)
    mean = float(forward_transform(
        np.exp(-(((grid.x_axis(0) + np.zeros(grid.shape)) - c0[0])**2
                 + ((grid.x_axis(1) + np.zeros(grid.shape)) - c0[1])**2)
               / width_sq), grid).coeffs[0, 0, 0].real)
    t, omega = 0.4, 5.0
    angles = np.linspace(0.0, 2.0 * math.pi, 17)
    pts = np.stack([c[0] + 0.9 * np.cos(angles), c[1] + 0.9 * np.sin(angles)],
                   axis=1)
    got = rotating_frame_transform(w, t, omega, center=c, points=pts)
    rot = frame_rotation(omega, t)
    moved = (pts - c) @ rot.T + c
    expected = np.exp(-np.sum((moved - c0)**2, axis=1) / width_sq) - mean
    assert np.max(np.abs(got - expected)) < 1e-11


def interior_disk(grid, radius=3.0):
    # rotation invariance of a periodized profile only survives where the
    # rotated points stay clear of the tails of the periodic images
    x1 = grid.x_axis(0) + np.zeros(grid.shape)
    x2 = grid.x_axis(1) + np.zeros(grid.shape)
    half = grid.box_length / 2.0
    return (x1 - half)**2 + (x2 - half)**2 <= radius**2


def test_transform_radial_scalar_is_invariant():
    grid = Grid(dim=2, n=64, period_l=1.0)
    w = dealias(gaussian_vortex(grid, width_sq=0.3))
    base = inverse_transform(w)[0]
    disk = interior_disk(grid)
    for t in (0.2, 1.1):
        got = rotating_frame_transform(w, t, omega=6.0)
        assert np.max(np.abs((got - base)[disk])) < 1e-12


def test_transform_component_rotation_composes():
    # vector output is exp(-tM) applied to the point-moved samples
    grid = Grid(dim=2, n=64, period_l=1.0)
    v = biot_savart(dealias(gaussian_vortex(grid, width_sq=0.3)))
    t, omega = 0.7, 4.0
    # the samples moved but not turned, component by component
    moved_only = np.stack([rotating_frame_transform(SpectralField(grid, comp), t, omega)
                           for comp in v.coeffs])
    assert moved_only.shape == (2,) + grid.shape
    back = frame_rotation(omega, -t)
    expected = np.stack([back[0, 0] * moved_only[0] + back[0, 1] * moved_only[1],
                         back[1, 0] * moved_only[0] + back[1, 1] * moved_only[1]])
    got = rotating_frame_transform(v, t, omega)  # vector default rotates
    assert np.max(np.abs(got - expected)) < 1e-12


def test_transform_point_mode_and_validation():
    w = gaussian_vortex(GRID, width_sq=0.3)
    pts = np.array([[math.pi, math.pi], [1.0, 2.0]])
    vals = rotating_frame_transform(w, 0.3, omega=2.0, points=pts)
    assert vals.shape == (2,)
    with pytest.raises(ValueError, match="shape"):
        rotating_frame_transform(w, 0.3, omega=2.0, points=np.zeros((3,)))
    grid3 = Grid(dim=3, n=8, period_l=1.0)
    with pytest.raises(ValueError, match="two-dimensional"):
        rotating_frame_transform(random_scalar_field(grid3, seed=0), 0.1, 1.0)


def offcenter_fixture(n=64, dt=5e-4):
    grid = Grid(dim=2, n=n, period_l=2.0)
    center = np.array([2.0 * math.pi, 2.0 * math.pi])
    w0 = gaussian_vortex(grid, width_sq=0.1, center=center + np.array([0.8, 0.0]))
    h = 1e-3
    sub = int(round(h / dt))
    state = advance_vorticity(VorticityState(w0), dt, int(round(0.149 / dt)))
    samples = [state]
    for _ in range(2):
        samples.append(advance_vorticity(samples[-1], dt, sub, check_cfl=False))
    times = np.array([st.t for st in samples])
    fields = [st.w for st in samples]
    return times, fields, center


def test_rotating_residual_positive_and_negative_control():
    times, fields, center = offcenter_fixture()
    good = rotating_frame_residual(times, fields, 5.0, mask_radius=1.5,
                                   center=center)
    assert good["max_residual"] < 1e-4
    assert good["mask_points"] > 100
    assert len(good["per_time"]) == 1
    # the identity also holds in the inertial frame (omega = 0 reduces it
    # to the plain vorticity equation)
    inertial = rotating_frame_residual(times, fields, 0.0, mask_radius=1.5,
                                       center=center)
    assert inertial["max_residual"] < 1e-4
    # a frozen trajectory solves nothing: the diffusion term survives
    # the diffusion term of the spread gaussian is about 0.8 in size
    frozen = rotating_frame_residual(times, [fields[0]] * 3, 5.0,
                                     mask_radius=1.5, center=center)
    assert frozen["max_residual"] > 0.5


def test_rotating_residual_validation():
    times, fields, center = offcenter_fixture(n=32, dt=1e-3)
    with pytest.raises(ValueError, match="three aligned samples"):
        rotating_frame_residual(times[:2], fields[:2], 1.0, 1.5, center=center)
    with pytest.raises(ValueError, match="uniform"):
        rotating_frame_residual(np.array([0.0, 1e-3, 3e-3]), fields, 1.0, 1.5,
                                center=center)
    with pytest.raises(ValueError, match="interior mask is empty"):
        rotating_frame_residual(times, fields, 1.0, mask_radius=1e-6,
                                center=center + 0.123)
    wide = gaussian_vortex(Grid(dim=2, n=32, period_l=1.0), width_sq=8.0)
    with pytest.raises(SupportError, match="boundary annulus"):
        rotating_frame_residual(np.array([0.0, 1e-3, 2e-3]), [wide] * 3, 1.0, 1.5)


def test_gaussian_vortex_refuses_bad_width():
    for width_sq in (math.nan, -1.0, 0.0):
        with pytest.raises(ValueError, match="width_sq must be positive and finite"):
            gaussian_vortex(GRID, width_sq=width_sq)


# ---------------------------------------------------------------------------
# Lebesgue diagnostics

def lebesgue_row(w, p):
    """The gronwall_diagnostic row of w at p: the L^p norms of v =
    biot_savart(w), of w and of grad v (Frobenius pointwise norm)."""
    state = VorticityState(w)
    return gronwall_diagnostic([0.0, 1.0], [state, state], [p])["rows"][0]


def test_lp_physical_hand_values():
    w = scalar_mode_cos_x1(GRID)  # cos x1 on the 2 pi square, v = (0, sin x1)
    row = lebesgue_row(w, 2.0)
    assert abs(row.w_lp - math.pi * math.sqrt(2.0)) < 1e-13
    assert abs(lebesgue_row(w, float("inf")).w_lp - 1.0) < 1e-14
    assert abs(row.v_lp - math.pi * math.sqrt(2.0)) < 1e-13
    with pytest.raises(ValueError):
        lebesgue_row(w, 0.5)


def test_large_p_lebesgue_norms_finite_and_homogeneous():
    w = random_scalar_field(GRID, seed=1)
    for p in (256.0, 1024.0):
        row = lebesgue_row(w, p)
        assert 0.0 < row.w_lp < math.inf and 0.0 < row.gradv_lp < math.inf
        for amplitude in (1e-3, 10.0):
            scaled = lebesgue_row(w * amplitude, p)
            assert math.isclose(scaled.w_lp, amplitude * row.w_lp, rel_tol=1e-12)
            assert math.isclose(scaled.gradv_lp, amplitude * row.gradv_lp,
                                rel_tol=1e-12)


def test_gradient_l2_equals_vorticity_l2():
    row = lebesgue_row(random_scalar_field(GRID, seed=73), 2.0)
    assert abs(row.gradv_lp - row.w_lp) < 1e-12


def test_czero_constant_values_and_range():
    assert czero_constant(2.0) == 4.0
    assert abs(czero_constant(4.0) - 16.0 / 3.0) < 1e-15
    for bad in (1.5, float("inf")):
        with pytest.raises(ValueError):
            czero_constant(bad)


# W0(x) as scipy.special.lambertw(x).real gave it (scipy 1.17.1)
SCIPY_W0 = {1e-12: 9.99999999999e-13, 0.0123: 0.012151441693936662,
            1.0: 0.5671432904097838, math.e: 1.0, 3.7: 1.159953178612022,
            1e3: 5.249602852401596, 1e6: 11.383358086140053, 1e8: 15.668996715450962}


@given(st.floats(1e-12, 1e8))
@example(1e-12)
@example(0.0123)
@example(1.0)
@example(math.e)
@example(3.7)
@example(1e3)
@example(1e6)
@example(1e8)
def test_lambert_w0_solves_w_exp_w(x):
    # w e^w = x to 1e-15 relative in w: a residual r moves w by r / (e^w (1 + w)),
    # so the bound on r scales with 1 + w (a rounded w alone leaves r/x up to
    # 1.2e-15 at x = 1e8, for lambertw too)
    w = _lambert_w0(x)
    assert abs(w * math.exp(w) - x) <= 1e-15 * x * (1 + w)
    if x in SCIPY_W0:
        assert abs(w - SCIPY_W0[x]) <= 1e-15 * SCIPY_W0[x]


def test_lambert_w0_refuses_negative_x_and_passes_non_finite_x():
    assert _lambert_w0(0.0) == 0.0
    for bad in (-1e-300, -1.0, -math.inf):
        with pytest.raises(ValueError, match="x >= 0"):
            _lambert_w0(bad)
    # as scipy.special.lambertw: W0(inf) = inf, W0(nan) = nan
    assert _lambert_w0(math.inf) == math.inf
    assert math.isnan(_lambert_w0(math.nan))


def test_gronwall_on_taylor_green():
    w0 = curl(taylor_green_2d(GRID))
    times, states = run_vorticity(w0, dt=1e-3, n_steps=200, sample_every=50)
    out = gronwall_diagnostic(times, states, p_values=(2.0, 4.0))
    for p in (2.0, 4.0):
        summary = out["summary"][p]
        # the velocity only decays, so C = 1 closes the bound at t = t1
        assert abs(summary["gronwall_constant"] - 1.0) < 1e-9
        assert summary["vorticity_margin"] >= 0.0
        assert summary["cz_margin"] > 0.0
    p2 = out["summary"][2.0]
    assert abs(p2["cz_ratio_t1"] - 1.0) < 1e-12
    rows = [r for r in out["rows"] if r.p == 2.0]
    assert len(rows) == len(times)
    assert all(r.gronwall_margin >= -1e-10 for r in rows)
    assert all(r.cz_margin >= 0.0 for r in rows)


def test_gronwall_constant_of_large_data_is_finite():
    # a = ||w||_2 = 314 here, so e^(a c) overflows a double from c = 2.3 on,
    # close above the root c = 1: a search that brackets the root fails
    grid = Grid(dim=2, n=16, period_l=1.0)
    w = random_scalar_field(grid, 1, amplitude=50.0)
    states = [VorticityState(w, 0.0), VorticityState(2 * w, 1.0)]
    out = gronwall_diagnostic([0.0, 1.0], states, p_values=(2.0, 4.0))
    for p in (2.0, 4.0):
        assert out["summary"][p]["gronwall_constant"] == 1.0


def test_gronwall_margins_of_a_nan_vorticity_are_nan():
    # min and max skip nan, so margins reduced by them read inf and C = 1
    grid = Grid(dim=2, n=16, period_l=1.0)
    w = random_scalar_field(grid, 1, amplitude=1.0)
    blown = SpectralField(grid, np.full_like(w.coeffs, math.nan))
    states = [VorticityState(w, 0.0), VorticityState(w, 0.5), VorticityState(blown, 1.0)]
    out = gronwall_diagnostic([0.0, 0.5, 1.0], states, p_values=(2.0, 4.0))
    for p in (2.0, 4.0):
        summary = out["summary"][p]
        for key in ("gronwall_constant", "vorticity_margin", "cz_margin"):
            assert math.isnan(summary[key])
        assert all(math.isnan(r.gronwall_margin) for r in out["rows"] if r.p == p)


def test_gronwall_row_bound_past_the_float_range_is_inf():
    # C = 1 from the t = 0 sample, then c tau ||w||_2 = 3 x 314 > 709 at t = 3
    grid = Grid(dim=2, n=16, period_l=1.0)
    w = random_scalar_field(grid, 1, amplitude=50.0)
    states = [VorticityState(w, 0.0), VorticityState(w, 3.0)]
    out = gronwall_diagnostic([0.0, 3.0], states, p_values=(2.0,))
    assert out["summary"][2.0]["gronwall_constant"] == 1.0
    first, last = out["rows"]
    assert first.gronwall_margin == 0.0
    assert last.gronwall_margin == math.inf


def test_gronwall_constant_closes_the_bound_where_velocity_grows():
    grid = Grid(dim=2, n=16, period_l=1.0)
    w = random_scalar_field(grid, 2, amplitude=0.01)
    states = [VorticityState(w, 0.0), VorticityState(3 * w, 0.5)]
    out = gronwall_diagnostic([0.0, 0.5], states, p_values=(2.0, 4.0))
    for p in (2.0, 4.0):
        c = out["summary"][p]["gronwall_constant"]
        first, last = (r for r in out["rows"] if r.p == p)
        assert c > 1.0
        closed = c * first.v_lp * math.exp(c * 0.5 * first.w_lp)
        assert abs(closed - last.v_lp) <= 1e-12 * last.v_lp


def test_non_small_trajectory_keeps_every_margin_over_the_papers_range():
    # the paper's 2d result takes non-small data in L^p for p in [2, inf):
    # amplitude 10 on the unit period, to t = 0.5
    grid = Grid(dim=2, n=64, period_l=1.0)
    w0 = random_scalar_field(grid, seed=(11, 0), amplitude=10.0)
    times, states = run_vorticity(w0, dt=2e-3, n_steps=250, sample_every=25)
    summary = gronwall_diagnostic(times, states, (2.0, 8.0, 64.0))["summary"]
    for p, row in summary.items():
        assert row["vorticity_margin"] >= 0.0, p
        assert row["cz_margin"] >= 0.0, p
        assert math.isfinite(row["gronwall_constant"]), p


def test_gronwall_validation():
    w0 = curl(taylor_green_2d(GRID))
    times, states = run_vorticity(w0, dt=1e-3, n_steps=4, sample_every=2)
    with pytest.raises(ValueError, match="aligned"):
        gronwall_diagnostic(times[:-1], states, (2.0,))
    with pytest.raises(ValueError, match="t1_index"):
        gronwall_diagnostic(times, states, (2.0,), t1_index=len(times) - 1)
