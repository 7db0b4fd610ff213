import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbns.checkpoint import field_from_bytes, field_to_bytes
from fbns.spectral import (Grid, SpectralField, curl, dealias, divergence,
                           divergence_defect, forward_transform, gradient,
                           helmholtz_project, inverse_transform, laplacian,
                           random_band, random_divfree_field, random_scalar_field,
                           taylor_green_2d, taylor_green_3d, zero_mean)
from full_layout import random_field


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
    dx = inverse_transform(gradient(hat))[0]
    want = 0.5 * np.cos(x1 / 2.0) + 0 * x2
    assert np.max(np.abs(dx - want)) < 1e-13


def test_gradient_curl_divergence_identities():
    # curl grad = 0 holds to rounding
    f = random_scalar_field(Grid(dim=2, n=16, period_l=4.0), seed=3)
    assert np.max(np.abs(curl(gradient(f)).coeffs)) < 1e-15
    with pytest.raises(ValueError, match="2d grid"):
        curl(random_divfree_field(Grid(dim=3, n=8), seed=4))
    # laplacian = div grad on scalars
    f = random_scalar_field(Grid(dim=3, n=16, period_l=4.0), seed=3)
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


def test_odd_symbols_keep_real_fields_real():
    # the n/2 row of a full axis, and the last axis's n/2 plane, each hold k and
    # -k at once, so an odd symbol reads 0 there
    grid = Grid(dim=3, n=8, period_l=1.0)
    rng = np.random.default_rng(0)
    u = forward_transform(rng.standard_normal((3,) + grid.shape), grid)
    f = forward_transform(rng.standard_normal(grid.shape), grid)
    for out in (helmholtz_project(u), gradient(f), divergence(u)):
        back = field_from_bytes(field_to_bytes(out))
        assert np.array_equal(back.coeffs, out.coeffs)
    x1, x2 = grid.x_axis(0), grid.x_axis(1)
    cos = np.zeros((3,) + grid.shape)
    cos[0] = np.cos(4 * x1) * np.cos(x2)  # k_1 = n/2: no divergence on the lattice
    assert divergence_defect(forward_transform(cos, grid)) == 0.0


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


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.sampled_from((2, 3)), st.sampled_from((8, 12, 16, 32)), st.booleans(),
       st.sampled_from((None, 1.0, 1 / 30)), st.one_of(
           st.integers(0, 2**32 - 1), st.tuples(st.integers(0, 99), st.integers(0, 99))),
       st.floats(0.01, 100.0))
def test_band_draw_is_the_band_of_the_full_lattice_draw(dim, n, divfree, scale, seed,
                                                        amplitude):
    # the same normal stream, read only at the band's k and -k: every band
    # value equals the full-lattice formula's, also where the envelope
    # exp(-|xi|^2/cutoff^2) underflows (cutoff band_max/30: the exponent
    # reaches 900 at the band's corner, past the underflow at 745)
    grid = Grid(dim, n, 4.0)
    cutoff = None if scale is None else scale * grid.band_max
    band = random_band(grid, seed, divfree, cutoff, amplitude)
    want = random_field(grid, seed, divfree, cutoff, amplitude)
    assert np.array_equal(band, grid.pack(want.coeffs))
    assert band.flags.c_contiguous and grid.layout(band) == "band"
    make = random_divfree_field if divfree else random_scalar_field
    assert np.array_equal(make(grid, seed, cutoff, amplitude).coeffs, want.coeffs)


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


@settings(max_examples=120, deadline=None)
@given(st.sampled_from((2, 3)), st.integers(4, 24), st.sampled_from(((), (3,), (2, 3))),
       st.integers(0, 2**32 - 1))
def test_band_transforms_match_the_half_spectrum_path(dim, half_n, lead, seed):
    # the pruned pair against unpack + irfftn and rfftn + pack, bit for bit:
    # each makes numpy's 1d passes in numpy's axis order, whatever the memory
    # order of its input (the band inverse's own output included)
    grid = Grid(dim, 2 * half_n, 1.0)
    axes = tuple(range(-dim, 0))
    rng = np.random.default_rng(seed)
    band = rng.standard_normal(lead + grid.band_shape) + 1j * rng.standard_normal(
        lead + grid.band_shape)
    want = np.fft.irfftn(grid.unpack(band), s=grid.shape, axes=axes, norm="forward")
    inverse = grid._to_samples(band)
    assert np.array_equal(inverse, want)
    for samples in (rng.standard_normal(lead + grid.shape), inverse):
        want = grid.pack(np.fft.rfftn(samples, axes=axes, norm="forward"))
        got = grid._to_band(samples)
        assert got.flags.c_contiguous
        assert np.array_equal(got, want)


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


@pytest.mark.parametrize("make, dim", [(taylor_green_2d, 2), (taylor_green_3d, 3)])
def test_taylor_green_refuses_a_non_integer_period(make, dim):
    # at period_l = 2.5 the cell is not periodic: its divergence defect is 0.675
    with pytest.raises(ValueError, match="integer period_l, got 2.5"):
        make(Grid(dim=dim, n=8, period_l=2.5))


def test_zeros_and_arithmetic():
    grid = Grid(dim=2, n=8, period_l=1.0)
    f = random_scalar_field(grid, seed=1)
    assert np.max(np.abs((f - f).coeffs)) == 0.0
    assert np.allclose((f + f).coeffs, (2.0 * f).coeffs)
    assert (f - f).l2() == 0.0


@settings(max_examples=25, deadline=None)
@given(st.integers(4, 16), st.sampled_from([0.3, 1.0, 2.5, 4.0, 7.0]), st.integers(0, 2**16))
def test_helical_frame(half_n, period_l, seed):
    # h+- = (e2 -+ i e1)/sqrt 2 are the eigenvectors of R(xi) a = a x xi/|xi|
    # with eigenvalues +-i, and the amplitudes a+- = conj(h+-) . u are an
    # isometry of the divergence-free band
    grid = Grid(dim=3, n=2 * half_n, period_l=period_l)
    ie1, e2 = grid._frame("band")
    ie1 = np.concatenate([ie1, np.zeros_like(ie1[:1])])  # e1 has no third component
    xi = np.stack([grid.pack(grid.xi_axis(ax)) for ax in range(3)])
    unit = xi / np.where(grid.pack(grid.xi_abs) > 0, grid.pack(grid.xi_abs), 1.0)
    for sign, h in ((1, e2 - ie1), (-1, e2 + ie1)):
        assert np.max(np.abs(np.cross(h, unit, axis=0) - sign * 1j * h)) <= 1e-15
    u = grid.pack(random_divfree_field(grid, seed=seed).coeffs)
    a = grid.helical(u)
    scale = np.max(np.abs(u))
    assert a.shape == (2,) + grid.band_shape
    assert np.max(np.abs(grid.cartesian(a) - u)) <= 1e-15 * scale
    # so shell_series reads the same pointwise magnitudes from either
    magnitude = [np.sqrt(np.sum(np.abs(c) ** 2, axis=0)) for c in (a, u)]
    assert np.max(np.abs(magnitude[0] - magnitude[1])) <= 1e-15 * scale
    # a real field keeps a+-(-k) = conj(a+-(k)) on the stored k3 = 0 plane
    m = 2 * grid.kcut + 1
    mirror = a[:, (m - np.arange(m)) % m][:, :, (m - np.arange(m)) % m][..., 0]
    assert np.array_equal(mirror, np.conj(a[..., 0]))
    # the k3 axis takes e1 = e_x, and xi = 0 maps to zero both ways
    assert np.all(ie1[:, 0, 0, 1:] == np.array([[1j * np.sqrt(0.5)], [0.0], [0.0]]))
    mean = np.ones((3,) + grid.band_shape, dtype=np.complex128)
    assert np.all(grid.helical(mean)[:, 0, 0, 0] == 0.0)
    assert np.all(grid.cartesian(np.ones_like(a))[:, 0, 0, 0] == 0.0)


@pytest.mark.parametrize("period_l", [1.0, 4.0, 0.3])
def test_wavenumbers_are_exact_integers_times_dxi(period_l):
    # np.fft.fftfreq(98, 1/98) is off by 2.2e-16 at some indices, which
    # breaks the k <-> -k symmetry of every symbol built on it
    n = 98
    grid = Grid(dim=3, n=n, period_l=period_l)
    k = np.r_[:n // 2, -(n // 2):0]
    for axis in (0, 1):
        xi = grid.xi_axis(axis).ravel()
        assert np.array_equal(xi, k * grid.dxi)
        assert np.array_equal(xi[1:n // 2], -xi[:n // 2:-1])
    assert np.array_equal(grid.xi_axis(2).ravel(), np.arange(n // 2 + 1) * grid.dxi)
    if period_l == 1.0:
        assert np.array_equal(grid.xi_axis(0).ravel(), k)


@pytest.mark.parametrize("dim, period_l", [(3, 1e-300), (3, 1e300), (2, 1e300), (2, 1e-200)])
def test_grid_refuses_a_period_out_of_floating_point_range(dim, period_l):
    with pytest.raises(ValueError, match=re.escape(f"period_l={period_l} puts the band's symbols")):
        Grid(dim=dim, n=16, period_l=period_l)
