import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fbns.checkpoint import field_from_bytes, field_to_bytes
from fbns.lp import INF, fb_norm_value, get_partition, shell_series
from fbns.semigroup import (apply_semigroup, duhamel_recursion, propagator,
                            sweep_samples)
from fbns.spectral import (Grid, SpectralField, divergence_defect, forward_transform,
                           gradient, helmholtz_project, leray,
                           random_divfree_field, random_scalar_field)

GRID = Grid(dim=3, n=16, period_l=1.0)

SEEDS = st.integers(0, 2**16)
RATES = st.floats(-50.0, 50.0)


def coriolis_matrix(xi) -> np.ndarray:
    """Skew matrix R(xi) with R(xi) a = (a x xi)/|xi|.

    Rows: [0, xi3, -xi2; -xi3, 0, xi1; xi2, -xi1, 0] / |xi|.  On the plane
    orthogonal to xi it is a rotation by a quarter turn (R^2 = -Id there).
    """
    v = np.asarray(xi, dtype=float)
    if v.shape != (3,):
        raise ValueError("coriolis_matrix expects a single 3-vector")
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ValueError("coriolis_matrix is undefined at xi = 0")
    x1, x2, x3 = v / norm
    return np.array([
        [0.0, x3, -x2],
        [-x3, 0.0, x1],
        [x2, -x1, 0.0],
    ])


def semigroup_matrix(xi, t: float, omega: float) -> np.ndarray:
    """Dense 3x3 multiplier at a single wavevector, the oracle of the
    lattice multiplier."""
    v = np.asarray(xi, dtype=float)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        return np.zeros((3, 3))
    theta = omega * (v[2] / norm) * t
    decay = math.exp(-norm**2 * t)
    return decay * (math.cos(theta) * np.eye(3) + math.sin(theta) * coriolis_matrix(v))


def quarter_turn(grid, coeffs):
    """R(xi) f = f x xi/|xi| applied modewise to half-spectrum coefficients."""
    xi = grid.xi_abs
    unit = [np.divide(np.broadcast_to(grid.xi_axis(i), grid.spectral_shape), xi,
                      out=np.zeros(grid.spectral_shape), where=xi > 0) for i in range(3)]
    return np.stack([coeffs[(i + 1) % 3] * unit[(i + 2) % 3] - coeffs[(i + 2) % 3] * unit[(i + 1) % 3]
                     for i in range(3)])


def cartesian_multiplier(grid, coeffs, c):
    """Re(c) f + Im(c) R(xi) f for a per-mode complex symbol c of the
    (a, R a) plane, zero at xi = 0: the Cartesian form of a multiplier that
    is c on a+ and conj(c) on a-."""
    out = c.real * coeffs + c.imag * quarter_turn(grid, coeffs)
    out[(slice(None),) + (0,) * 3] = 0.0
    return out


def rotation_symbol(grid, omega):
    """z = |xi|^2 - i Omega xi_3/|xi|, whose exp(-z t) is the multiplier."""
    xi = grid.xi_abs
    rho = np.divide(grid.xi_axis(2), xi, out=np.zeros(grid.spectral_shape), where=xi > 0)
    return xi**2 - 1j * omega * rho


def propagated(grid, coeffs, t, omega):
    """propagator(grid, t, omega).apply on the helical amplitudes of
    divergence-free Cartesian coefficients, mapped back."""
    return grid.cartesian(propagator(grid, t, omega).apply(grid.helical(coeffs)))


def transverse_mode(grid, k=(0, 0, 1), a=(1.0, 0.0, 0.0)):
    # a cos(k.x/L): a/2 at k and at -k, of which the half spectrum stores
    # those with a non-negative last index
    coeffs = np.zeros((3,) + grid.spectral_shape, dtype=np.complex128)
    a = np.asarray(a, dtype=complex)
    for mode in (tuple(k), tuple(-ki for ki in k)):
        if mode[-1] >= 0:
            coeffs[(slice(None),) + mode] = a / 2.0
    return SpectralField(grid, coeffs)


@settings(max_examples=30, deadline=None)
@given(SEEDS, RATES)
@example(40, 25.0)
def test_identity_at_time_zero(seed, omega):
    u = random_divfree_field(GRID, seed=seed)
    out = apply_semigroup(u, 0.0, omega=omega)
    assert np.array_equal(out.coeffs, u.coeffs)


def test_no_rotation_is_heat_multiplier():
    u = random_divfree_field(GRID, seed=41)
    t = 0.3
    out = apply_semigroup(u, t, omega=0.0)
    heat = u.coeffs * np.exp(-GRID.xi_abs**2 * t)
    heat[(slice(None),) + (0,) * 3] = 0.0
    assert np.max(np.abs(out.coeffs - heat)) < 1e-13


def test_single_mode_hand_oracle():
    u = transverse_mode(GRID)
    t, omega = 0.1, 10.0
    out = apply_semigroup(u, t, omega)
    # at xi = (0, 0, 1): rotation angle omega * t * xi3/|xi| = 1, and the
    # quarter turn sends (1,0,0) to (0,-1,0)
    expected = 0.5 * math.exp(-t) * np.array([math.cos(1.0), -math.sin(1.0), 0.0])
    got = out.coeffs[:, 0, 0, 1]
    assert np.max(np.abs(got - expected)) < 1e-13
    # the mirror mode -k is its conjugate and is not stored


def test_coriolis_matrix_vertical_mode():
    # R((0,0,1)) maps a -> (a2, -a1, 0)
    mat = coriolis_matrix(np.array([0.0, 0.0, 1.0]))
    want = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert np.allclose(mat, want, atol=1e-15)
    # skew symmetric, and R^2 = -Id on the div-free plane
    xi = np.array([0.3, -0.2, 0.9])
    r = coriolis_matrix(xi)
    assert np.allclose(r + r.T, 0.0, atol=1e-15)
    a = np.array([0.9, 0.3, -(0.3 * 0.9 + (-0.2) * 0.3) / 0.9])
    assert np.allclose(r @ (r @ a), -a, atol=1e-13)
    with pytest.raises(ValueError):
        coriolis_matrix(np.zeros(3))


def test_matrix_oracle_matches_lattice_multiplier():
    u = transverse_mode(GRID, k=(2, 1, 3), a=(3.0, 0.0, -2.0))
    t, omega = 0.07, 18.0
    out = propagated(GRID, u.coeffs, t, omega)
    mat = semigroup_matrix((2.0, 1.0, 3.0), t, omega)
    expected = mat @ (np.array([3.0, 0.0, -2.0]) / 2.0)
    assert np.max(np.abs(out[:, 2, 1, 3] - expected)) < 1e-14
    # the Cartesian form a f + b R f of the diagonal multiplier, everywhere
    reference = cartesian_multiplier(GRID, u.coeffs, np.exp(-rotation_symbol(GRID, omega) * t))
    assert np.max(np.abs(out - reference)) < 1e-14


@settings(max_examples=30, deadline=None)
@given(SEEDS, st.floats(0.0, 1.0), st.floats(0.0, 1.0), RATES)
@example(42, 0.11, 0.23, 30.0)
def test_semigroup_law_and_divfree_preserved(seed, t, s, omega):
    u = random_divfree_field(GRID, seed=seed)
    one = apply_semigroup(apply_semigroup(u, t, omega), s, omega)
    two = apply_semigroup(u, t + s, omega)
    assert np.max(np.abs(one.coeffs - two.coeffs)) < 1e-12
    assert divergence_defect(two) < 1e-12


def test_commutes_with_helmholtz_projection():
    # the Cartesian form of the multiplier on mixed input, then projected,
    # against the helical semigroup of the projected input
    f = random_divfree_field(GRID, seed=43) + gradient(random_scalar_field(GRID, seed=43))
    assert divergence_defect(f) > 1e-3  # genuinely mixed input
    omega, t = 12.0, 0.2
    mixed = cartesian_multiplier(GRID, f.coeffs, np.exp(-rotation_symbol(GRID, omega) * t))
    a = helmholtz_project(SpectralField(GRID, mixed))
    b = apply_semigroup(helmholtz_project(f), t, omega)
    assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-12


def test_norm_invariance_under_rotation_rate():
    u = random_divfree_field(GRID, seed=44)
    t = 0.15
    base = {p: fb_norm_value(apply_semigroup(u, t, 0.0), 0.5, p, 2.0)
            for p in (1.0, 2.0, INF)}
    fast = apply_semigroup(u, t, 50.0)
    for p, val in base.items():
        assert abs(fb_norm_value(fast, 0.5, p, 2.0) - val) < 1e-13 * val


def real_field_on_the_nyquist_plane(grid, seed):
    """A real divergence-free field with content on the stored k_3 = n/2 plane,
    where k and -k both carry xi_3 = +n/(2L): there a real field that is
    divergence-free at both has u_3 = 0 and (u_1, u_2) orthogonal to (xi_1,
    xi_2).  The n/2 rows of the other axes, where no such u exists, are empty."""
    samples = np.random.default_rng(seed).standard_normal((3,) + grid.shape)
    u = helmholtz_project(forward_transform(samples, grid)).coeffs
    u[:, grid.n // 2] = u[:, :, grid.n // 2] = 0.0
    xi = [grid.xi_axis(ax)[..., 0] for ax in (0, 1)]
    inv = np.divide(1.0, xi[0] ** 2 + xi[1] ** 2, out=np.zeros((grid.n, grid.n)),
                    where=(xi[0] != 0) | (xi[1] != 0))
    u[:2, ..., -1], u[2, ..., -1] = leray(u[:2, ..., -1], xi, inv), 0.0
    return field_from_bytes(field_to_bytes(SpectralField(grid, u)))


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, t=st.floats(1e-3, 1.0), omega=RATES)
@example(seed=0, t=0.01, omega=5.0)
def test_image_of_a_real_field_is_real(seed, t, omega):
    # on the k_3 = n/2 plane the rotation cannot act as on a real field, since
    # k and -k share xi_3; the propagator leaves it out there, and the image
    # of every accepted real field is again a real field's spectrum
    grid = Grid(dim=3, n=8, period_l=1.0)
    field = real_field_on_the_nyquist_plane(grid, seed)
    assert np.max(np.abs(field.coeffs[..., -1])) > 0.1 * np.max(np.abs(field.coeffs))
    out = apply_semigroup(field, t, omega)
    field_from_bytes(field_to_bytes(out))  # raises CheckpointError otherwise
    heat = np.exp(-grid.xi_sq[..., -1] * t)
    assert np.max(np.abs(out.coeffs[..., -1] - heat * field.coeffs[..., -1])) < 1e-13


def test_input_validation():
    u = random_divfree_field(GRID, seed=45)
    for t in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="non-negative and finite"):
            apply_semigroup(u, t, 0.0)
    bad = SpectralField(GRID, u.coeffs.copy())
    bad.coeffs[0, 1, 0, 0] += 0.3  # break divergence
    with pytest.raises(ValueError, match="divergence-free"):
        apply_semigroup(bad, 0.1, 0.0)


def test_duhamel_constant_forcing_is_exact():
    g = random_divfree_field(GRID, seed=46)
    t, omega = 0.4, 15.0
    times = np.linspace(0.0, t, 5)
    forcing = np.repeat(GRID.helical(GRID.pack(g.coeffs))[None], 5, axis=0)
    out = sweep_samples(GRID, times, omega, np.zeros_like(forcing[0]), forcing)[-1]
    # per mode: integral_0^t m(s) ds applied to g_hat, with m acting as
    # exp(-(kappa - i omega rho) s) on the (a, Ra) plane
    z = rotation_symbol(GRID, omega)
    zs = np.where(np.abs(z) > 0, z, 1.0)
    expected = cartesian_multiplier(GRID, g.coeffs, (1.0 - np.exp(-z * t)) / zs)
    assert np.max(np.abs(GRID.cartesian(out) - GRID.pack(expected))) < 1e-14


def closed_form_duhamel(alpha, kappa, rho, omega, t):
    p = -kappa + 1j * omega * rho
    return np.exp(p * t) * (1.0 - np.exp(-(p + alpha) * t)) / (p + alpha)


def test_duhamel_schemes_second_order():
    # the exponential-midpoint rule is second order in dt
    k, a = (0, 0, 1), np.array([1.0, 0.0, 0.0])
    alpha, omega, t = 1.7, 8.0, 0.5
    base = transverse_mode(GRID, k, a)

    def sweep_last(n):
        times = np.linspace(0.0, t, n)
        env = np.exp(-alpha * times)
        forcing = env[:, None, None, None, None] * GRID.helical(GRID.pack(base.coeffs))[None]
        last = sweep_samples(GRID, times, omega, np.zeros_like(forcing[0]), forcing)[-1]
        return GRID.unpack(GRID.cartesian(last))

    w = closed_form_duhamel(alpha, 1.0, 1.0, omega, t)
    # identify x a + y (quarter turn a) with x + i y; at +k the quarter
    # turn of (1,0,0) is (0,-1,0)
    expected = 0.5 * np.array([w.real, -w.imag, 0.0])
    errs = []
    for n in (9, 17):
        errs.append(np.max(np.abs(sweep_last(n)[:, 0, 0, 1] - expected)))
    order = math.log2(errs[0] / errs[1])
    assert 1.8 < order < 2.3, (errs, order)


def test_linear_trajectory_matches_direct_application():
    u = random_divfree_field(GRID, seed=48)
    omega = 6.0
    times = np.array([0.2, 0.4, 0.6])
    start = propagator(GRID, 0.2, omega).apply(GRID.helical(GRID.pack(u.coeffs)))
    samples = sweep_samples(GRID, times, omega, start)
    for i, t in enumerate(times):
        direct = apply_semigroup(u, float(t), omega)
        assert np.max(np.abs(GRID.unpack(GRID.cartesian(samples[i])) - direct.coeffs)) < 1e-13


def test_duhamel_recursion_reads_each_forcing_before_overwriting_its_sample():
    # the Picard sweep forces each sample from the iterate it overwrites:
    # forcing(k) must see sample k as it was, and so must record(k, new, old)
    times = np.arange(4) * 0.1
    before = np.stack([GRID.helical(GRID.pack(random_divfree_field(GRID, seed=s).coeffs))
                       for s in range(60, 64)])
    out, recorded = before.copy(), []

    def record(k, new, old):
        recorded.append(k)
        assert np.array_equal(old, before[k])

    duhamel_recursion(propagator(GRID, 0.1, 7.0), out, lambda k: out[k].copy(), record)
    assert recorded == [1, 2, 3]
    # the same sweep with the old samples kept apart as the forcing
    assert np.array_equal(out, sweep_samples(GRID, times, 7.0, before[0], before))


@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("omega", [0.0, 10.0])
@pytest.mark.parametrize("forced", [False, True])
def test_band_sweep_matches_full_layout_sweep(n, omega, forced):
    grid = Grid(dim=3, n=n, period_l=2.0)
    times = np.linspace(0.0, 0.5, 6)
    start = grid.helical(random_divfree_field(grid, seed=49).coeffs)
    forcing = None
    if forced:
        g = grid.helical(random_divfree_field(grid, seed=50).coeffs)
        forcing = np.cos(3.0 * times)[:, None, None, None, None] * g[None]
    band = sweep_samples(grid, times, omega, grid.pack(start),
                         None if forcing is None else grid.pack(forcing))
    want = grid.pack(sweep_samples(grid, times, omega, start, forcing))
    assert np.max(np.abs(band - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("omega", [0.0, 10.0])
def test_propagator_band_equals_packed_half_spectrum(n, omega):
    # one propagator serves both layouts, each entry bit for bit
    grid = Grid(dim=3, n=n, period_l=2.0)
    prop = propagator(grid, 0.1, omega)
    f, g = (grid.helical(random_divfree_field(grid, seed=s).coeffs) for s in (51, 52))
    assert np.array_equal(prop.apply(grid.pack(f)), grid.pack(prop.apply(f)))
    assert np.array_equal(prop.step(grid.pack(f), grid.pack(g), grid.pack(f)),
                          grid.pack(prop.step(f, g, f)))


def test_coefficients_in_neither_layout_are_refused():
    other = Grid(dim=3, n=24, period_l=1.0)
    foreign = other.helical(other.pack(random_divfree_field(other, seed=53).coeffs))
    times = np.linspace(0.0, 0.2, 3)
    for call in (lambda: propagator(GRID, 0.1, 0.0).apply(foreign),
                 lambda: sweep_samples(GRID, times, 0.0, foreign),
                 lambda: shell_series(foreign, 2.0, get_partition(GRID))):
        with pytest.raises(ValueError, match="neither layout.*half spectrum.*band"):
            call()


@pytest.mark.parametrize("name, dt, omega", [("dt", math.nan, 0.0), ("dt", math.inf, 0.0),
                                             ("omega", 0.1, math.nan),
                                             ("omega", 0.1, -math.inf)])
def test_propagator_refuses_non_finite_values(name, dt, omega):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        propagator(GRID, dt, omega)
