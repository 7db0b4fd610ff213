import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbns.spectral import (Grid, SpectralField, coriolis_matrix, curl,
                           dealias, derivative, divergence, divergence_defect,
                           forward_transform, gradient,
                           helmholtz_project, inverse_transform, laplacian,
                           random_divfree_field, random_scalar_field,
                           taylor_green_2d, taylor_green_3d, zero_mean, zeros)


def direct_dft_3d(samples, grid):
    # textbook forward DFT, coeffs[k] = (1/N) sum_x f(x) e^{-2 pi i <j,k>/n}
    n = grid.n
    j = np.arange(n)
    dft = np.exp(-2j * np.pi * np.outer(j, j) / n) / n
    return np.einsum("abc,ak,bl,cm->klm", samples, dft, dft, dft)


def test_forward_transform_matches_direct_dft():
    grid = Grid(dim=3, n=8, period_l=4.0)
    rng = np.random.default_rng(0)
    samples = rng.standard_normal(grid.shape)
    got = forward_transform(samples, grid).coeffs[0]
    want = grid.half_spectrum(direct_dft_3d(samples, grid))
    assert np.max(np.abs(got - want)) < 1e-14


def test_half_spectrum_completes_to_the_full_spectrum():
    # the stored half, reflected, is the full spectrum, and the weighted
    # norm over the half is the norm over the full spectrum
    for grid in (Grid(dim=3, n=8, period_l=4.0), Grid(dim=2, n=16, period_l=1.0)):
        samples = np.random.default_rng(2).standard_normal(grid.shape)
        full = np.fft.fftn(samples) / samples.size
        f = forward_transform(samples, grid)
        assert np.max(np.abs(grid.full_spectrum(f.coeffs)[0] - full)) < 1e-15
        assert abs(f.l2() - np.linalg.norm(full)) < 1e-14


def test_roundtrip_identity():
    grid = Grid(dim=3, n=16, period_l=4.0)
    f = random_divfree_field(grid, seed=1)
    back = forward_transform(inverse_transform(f), grid)
    assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-13


def test_single_mode_has_unit_coefficient():
    # cos(k x / L) sampled on the lattice -> coefficient 1/2 at index k;
    # its conjugate at -k is not stored
    grid = Grid(dim=2, n=16, period_l=4.0)
    x1, x2 = grid.x_axis(0), grid.x_axis(1)
    wave = np.cos((3 * x1 + 2 * x2) / grid.period_l)
    hat = forward_transform(np.broadcast_to(wave, grid.shape).copy(), grid)
    assert abs(hat.coeffs[0, 3, 2] - 0.5) < 1e-14
    other = hat.coeffs.copy()
    other[0, 3, 2] = 0.0
    assert np.max(np.abs(other)) < 1e-14


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(dim=4, n=16, period_l=1.0)
    with pytest.raises(ValueError):
        Grid(dim=3, n=15, period_l=1.0)
    with pytest.raises(ValueError):
        Grid(dim=3, n=16, period_l=0.0)


def test_frequency_lattice_spacing():
    grid = Grid(dim=3, n=16, period_l=4.0)
    assert grid.dxi == 0.25
    assert grid.kcut == 5
    assert np.isclose(grid.xi_axis(0).ravel()[1], 0.25)
    # dealias cutoff leaves triple products alias-free: 3 kcut <= n - 1
    assert 3 * grid.kcut <= grid.n - 1


def test_derivative_of_plane_wave():
    grid = Grid(dim=2, n=16, period_l=2.0)
    x1, x2 = grid.x_axis(0), grid.x_axis(1)
    f = np.broadcast_to(np.sin(x1 / 2.0 + 0 * x2), grid.shape).copy()
    hat = forward_transform(f, grid)
    dx = inverse_transform(derivative(hat, 0))[0]
    want = 0.5 * np.cos(x1 / 2.0) + 0 * x2
    assert np.max(np.abs(dx - want)) < 1e-13


def test_gradient_curl_divergence_identities():
    grid = Grid(dim=3, n=16, period_l=4.0)
    f = random_scalar_field(grid, seed=3)
    # curl grad = 0 and div curl = 0 hold to rounding
    assert np.max(np.abs(curl(gradient(f)).coeffs)) < 1e-15
    v = random_divfree_field(grid, seed=4)
    assert np.max(np.abs(divergence(curl(v)).coeffs)) < 1e-15
    # laplacian = div grad on scalars
    assert np.allclose(divergence(gradient(f)).coeffs, laplacian(f).coeffs,
                       atol=1e-15)


def test_helmholtz_projection_hand_values():
    # single mode xi = (1, 0, 0), amplitude (1, 1, 0):
    # P a = a - xi (xi . a)/|xi|^2 = (0, 1, 0)
    grid = Grid(dim=3, n=8, period_l=1.0)
    coeffs = np.zeros((3,) + grid.spectral_shape, dtype=np.complex128)
    coeffs[0, 1, 0, 0] = 1.0
    coeffs[1, 1, 0, 0] = 1.0
    proj = helmholtz_project(SpectralField(grid, coeffs))
    assert abs(proj.coeffs[0, 1, 0, 0]) < 1e-15
    assert abs(proj.coeffs[1, 1, 0, 0] - 1.0) < 1e-15
    assert abs(proj.coeffs[2, 1, 0, 0]) < 1e-15
    # idempotent and kills gradients
    again = helmholtz_project(proj)
    assert np.allclose(again.coeffs, proj.coeffs, atol=1e-15)
    g = gradient(random_scalar_field(grid, seed=5))
    assert np.max(np.abs(helmholtz_project(g).coeffs)) < 1e-14


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**16), st.sampled_from([(2, 16), (3, 8), (3, 16)]),
       st.floats(0.5, 8.0))
def test_helmholtz_projection_idempotent(seed, shape, period_l):
    dim, n = shape
    grid = Grid(dim=dim, n=n, period_l=period_l)
    # dim independent scalars: a generic field, not divergence-free
    u = SpectralField(grid, np.concatenate(
        [random_scalar_field(grid, seed=(seed, ax)).coeffs for ax in range(dim)]))
    proj = helmholtz_project(u)
    again = helmholtz_project(proj)
    assert np.max(np.abs(again.coeffs - proj.coeffs)) \
        <= 1e-15 * np.max(np.abs(u.coeffs))


def test_helmholtz_projection_preserves_divfree():
    grid = Grid(dim=3, n=16, period_l=4.0)
    v = random_divfree_field(grid, seed=6)
    assert divergence_defect(v) < 1e-14
    assert np.max(np.abs(helmholtz_project(v).coeffs - v.coeffs)) < 1e-14


def test_helmholtz_projection_peak_memory():
    # the output is written in place: one field plus the xi . f scratch
    grid = Grid(dim=3, n=16, period_l=4.0)
    f = gradient(random_scalar_field(grid, seed=7)) + random_divfree_field(grid, seed=8)
    helmholtz_project(f)  # fill the grid's cached symbol arrays
    tracemalloc.start()
    try:
        helmholtz_project(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * f.coeffs.nbytes


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


def test_random_fields_deterministic_and_normalized():
    grid = Grid(dim=3, n=16, period_l=4.0)
    a = random_divfree_field(grid, seed=(7, 3))
    b = random_divfree_field(grid, seed=(7, 3))
    assert np.array_equal(a.coeffs, b.coeffs)
    c = random_divfree_field(grid, seed=(7, 4))
    assert not np.array_equal(a.coeffs, c.coeffs)
    assert abs(a.l2() - 1.0) < 1e-12
    assert divergence_defect(a) < 1e-14
    full = grid.full_spectrum(a.coeffs)  # real: c_(-k) = conj(c_k)
    assert np.max(np.abs(full - np.conj(grid.reflect(full)))) < 1e-14 * np.max(np.abs(full))
    # zero mean and dealiased
    assert np.max(np.abs(a.coeffs[:, 0, 0, 0])) == 0.0
    assert np.max(np.abs(a.coeffs * (1.0 - grid.dealias_mask))) == 0.0


def test_dealias_and_zero_mean():
    grid = Grid(dim=2, n=16, period_l=1.0)
    coeffs = np.ones((1,) + grid.spectral_shape, dtype=np.complex128)
    f = dealias(SpectralField(grid, coeffs))
    assert f.coeffs[0, grid.kcut + 1, 0] == 0.0
    assert f.coeffs[0, grid.kcut, 0] == 1.0
    g = zero_mean(SpectralField(grid, coeffs))
    assert g.coeffs[0, 0, 0] == 0.0


@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
def test_pack_is_c_contiguous_band_of_any_stack(lead):
    grid = Grid(dim=3, n=16, period_l=1.0)
    shape = lead + grid.spectral_shape
    rng = np.random.default_rng(51)
    arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    band = grid.pack(arr)
    assert band.flags.c_contiguous
    assert band.shape == lead + grid.band_shape
    assert np.array_equal(band, arr[grid.band])
    assert np.array_equal(grid.unpack(band), arr * grid.dealias_mask)
    assert (grid.layout(arr), grid.layout(band)) == ("half", "band")


@pytest.mark.parametrize("shape", [(5, 5, 3), (16, 16, 16), (11, 6), (16, 16, 8)])
def test_layout_refuses_other_shapes(shape):
    # the band of the 8^3 grid, the lattice, the band of the 16^2 grid, a
    # half spectrum one short
    grid = Grid(dim=3, n=16, period_l=1.0)
    with pytest.raises(ValueError, match="neither layout"):
        grid.layout(np.zeros(shape))


def test_taylor_green_fields():
    grid2 = Grid(dim=2, n=32, period_l=1.0)
    u = taylor_green_2d(grid2)
    assert divergence_defect(u) < 1e-14
    w = curl(u)
    x1, x2 = grid2.x_axis(0), grid2.x_axis(1)
    want = -2.0 * np.cos(x1) * np.cos(x2)
    assert np.max(np.abs(inverse_transform(w)[0] - want)) < 1e-13

    grid3 = Grid(dim=3, n=16, period_l=1.0)
    u3 = taylor_green_3d(grid3)
    assert divergence_defect(u3) < 1e-14
    assert np.max(np.abs(u3.coeffs[2])) == 0.0


def test_zeros_and_arithmetic():
    grid = Grid(dim=2, n=8, period_l=1.0)
    z = zeros(grid, 2)
    f = random_scalar_field(grid, seed=1)
    assert np.max(np.abs((f - f).coeffs)) == 0.0
    assert np.allclose((f + f).coeffs, (2.0 * f).coeffs)
    assert z.l2() == 0.0
