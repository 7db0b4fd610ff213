import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from fbns.lp import (INF, SHELL_INNER, SHELL_OUTER, DyadicPartition,
                     bernstein_slope, bony_decompose, chemin_lerner_norm,
                     critical_index, dyadic_block, dyadic_rescale, fb_norm,
                     fb_norm_value, get_partition, lebesgue, magnitude,
                     mild_norm, shell_product, shell_profile, shell_range_for,
                     shell_series, smooth_cutoff)
from fbns.spectral import (Grid, SpectralField, dealias, random_divfree_field,
                           random_scalar_field, zero_mean)
from full_layout import Samples, linear_samples


def single_mode(grid, k, amplitude=1.0, ncomp=1, comp=0):
    # amplitude cos(k.x/L): amplitude/2 at k and at -k, of which the half
    # spectrum stores those with a non-negative last index
    coeffs = np.zeros((ncomp,) + grid.spectral_shape, dtype=np.complex128)
    for mode in (tuple(k), tuple(-ki for ki in k)):
        if mode[-1] >= 0:
            coeffs[(comp,) + mode] = amplitude / 2.0
    return SpectralField(grid, coeffs)


def cl_norm(traj, s, p, r, q):
    part = get_partition(traj.grid)
    return chemin_lerner_norm(shell_series(traj.coeffs, p, part), traj.times,
                              s, r, q, part)


# ---------------------------------------------------------------------------
# partition of unity

def test_cutoff_exact_plateaus():
    assert smooth_cutoff(np.array([0.0, 0.5, 0.75])).tolist() == [1.0, 1.0, 1.0]
    assert smooth_cutoff(np.array([4.0 / 3.0, 2.0, 100.0])).tolist() == [0.0, 0.0, 0.0]
    mid = smooth_cutoff(np.array([1.0]))[0]
    # hand value: chi(1) = 1 / (1 + e^{-7/12})
    assert abs(mid - 1.0 / (1.0 + math.exp(-7.0 / 12.0))) < 1e-14


def test_shell_profile_support_and_telescoping():
    xs = np.linspace(0.01, 6.0, 500)
    prof = shell_profile(xs, 0)
    assert np.all(prof[xs < SHELL_INNER - 1e-9] == 0.0)
    assert np.all(prof[xs > SHELL_OUTER + 1e-9] == 0.0)
    assert prof[np.argmin(np.abs(xs - 1.3))] > 0.5
    # chi(x/2) - chi(x) telescopes: sum over a generous j range is 1
    total = sum(shell_profile(xs, j) for j in range(-12, 12))
    assert np.max(np.abs(total - 1.0)) < 1e-12
    # hand value at |xi| = 1: phi_0(1) + phi_{-1}(1) = 1 with
    # phi_{-1}(1) = chi(1)
    chi1 = 1.0 / (1.0 + math.exp(-7.0 / 12.0))
    assert abs(shell_profile(np.array([1.0]), -1)[0] - chi1) < 1e-14
    assert abs(shell_profile(np.array([1.0]), 0)[0] - (1.0 - chi1)) < 1e-14


def test_shell_range_for_lab_grid():
    grid = Grid(dim=3, n=16, period_l=4.0)
    rng = shell_range_for(grid.dxi, grid.band_max)
    assert rng.j_min == math.ceil(math.log2(0.375 * 0.25))
    assert rng.j_max == math.floor(math.log2(4.0 / 3.0 * grid.band_max))
    assert rng.j_min == -3 and rng.j_max == 1
    assert -3 in rng and 1 in rng and 2 not in rng


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(4, 24), st.floats(0.25, 8.0))
@example(3, 8, 4.0)
def test_partition_sums_to_one_on_band(dim, half_n, period_l):
    grid = Grid(dim=dim, n=2 * half_n, period_l=period_l)
    assert DyadicPartition(grid).unity_defect() < 1e-13


def test_block_reconstruction_and_low_pass():
    grid = Grid(dim=2, n=32, period_l=2.0)
    f = random_scalar_field(grid, seed=9)
    js = get_partition(grid).js
    total = sum(dyadic_block(f, j).coeffs for j in js)
    assert np.max(np.abs(total - f.coeffs)) < 1e-14
    assert np.max(np.abs(dyadic_block(f, 99).coeffs)) == 0.0


# ---------------------------------------------------------------------------
# Fourier-Besov norms

def test_fb_norm_single_mode_closed_form():
    grid = Grid(dim=3, n=16, period_l=4.0)
    f = single_mode(grid, (5, 2, 0), amplitude=3.0)
    xi = math.sqrt(29.0) / 4.0
    s, p, r = 0.5, 2.0, 2.0
    # two lattice points of magnitude 3/2, quadrature weight dxi^{3/p}
    point = 1.5 * math.sqrt(2.0) * 0.25 ** 1.5
    expected = 0.0
    for j in (-3, -2, -1, 0, 1):
        expected += (2.0 ** (j * s) * shell_profile(np.array([xi]), j)[0] * point) ** r
    expected = expected ** (1.0 / r)
    assert abs(fb_norm_value(f, s, p, r) - expected) < 1e-13 * expected


def test_fb_norm_p_inf_is_lattice_max():
    grid = Grid(dim=3, n=16, period_l=4.0)
    f = single_mode(grid, (4, 0, 0), amplitude=2.0)
    rep = fb_norm(f, 0.0, INF, INF)
    # |xi| = 1 splits between shells -1 and 0; the max picks the bigger
    chi1 = 1.0 / (1.0 + math.exp(-7.0 / 12.0))
    assert abs(rep.total - chi1 * 1.0) < 1e-14
    assert rep.params["p"] == INF


def test_fb_norm_vector_magnitude_convention():
    grid = Grid(dim=3, n=16, period_l=4.0)
    coeffs = np.zeros((3,) + grid.spectral_shape, dtype=np.complex128)
    coeffs[0, 4, 0, 0] = coeffs[0, -4, 0, 0] = 0.3
    coeffs[1, 4, 0, 0] = coeffs[1, -4, 0, 0] = 0.4
    vec = SpectralField(grid, coeffs)
    scalar = single_mode(grid, (4, 0, 0), amplitude=1.0)  # pointwise mag 0.5
    for p in (1.0, 2.0, INF):
        assert np.isclose(fb_norm_value(vec, 0.7, p, 2.0),
                          fb_norm_value(scalar, 0.7, p, 2.0), rtol=1e-13)


def test_fb_norm_rejects_bad_exponents():
    grid = Grid(dim=2, n=16, period_l=1.0)
    f = random_scalar_field(grid, seed=0)
    with pytest.raises(ValueError):
        fb_norm(f, 0.0, 0.5, 2.0)
    with pytest.raises(ValueError):
        fb_norm(f, 0.0, 2.0, 0.0)


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
def test_fb_norm_refuses_non_finite_regularity(s):
    f = random_scalar_field(Grid(dim=2, n=16, period_l=1.0), seed=0)
    with pytest.raises(ValueError, match=f"s must be finite, got {s}"):
        fb_norm(f, s, 2.0, 2.0)


def test_fb_norm_zero_field_and_triangle():
    grid = Grid(dim=2, n=16, period_l=1.0)
    zero = SpectralField(grid, np.zeros((1,) + grid.spectral_shape, dtype=np.complex128))
    assert fb_norm_value(zero, 1.0, 2.0, 2.0) == 0.0
    f = random_scalar_field(grid, seed=1)
    g = random_scalar_field(grid, seed=2)
    for p, r in ((1.0, 1.0), (2.0, 2.0), (INF, INF)):
        lhs = fb_norm_value(f + g, 0.3, p, r)
        assert lhs <= fb_norm_value(f, 0.3, p, r) + fb_norm_value(g, 0.3, p, r) + 1e-12


# ---------------------------------------------------------------------------
# Chemin-Lerner norms

def test_large_p_norm_approaches_sup_without_underflow():
    grid = Grid(dim=3, n=16, period_l=4.0)
    f = random_divfree_field(grid, seed=1)
    sup = fb_norm_value(f, 0.0, INF, 2.0)
    assert sup == pytest.approx(0.2025, abs=1e-4)
    for p, measured in ((256.0, 0.1998), (1024.0, 0.2018)):
        value = fb_norm_value(f, 0.0, p, 2.0)
        assert value == pytest.approx(measured, abs=1e-4)
        assert abs(value / sup - 1.0) < 0.02
    # the l^r sum over shells and the L^q time quadrature, likewise
    shell_sup = fb_norm_value(f, 0.0, 2.0, INF)
    traj = linear_samples(f, np.linspace(0.0, 1.0, 17), 0.0)
    time_sup = cl_norm(traj, 0.0, 2.0, 2.0, INF)
    for big in (512.0, 1024.0):
        value = fb_norm_value(f, 0.0, 2.0, big)
        assert value > 0 and abs(value / shell_sup - 1.0) < 0.02
        value = cl_norm(traj, 0.0, 2.0, 2.0, big)
        assert value > 0 and abs(value / time_sup - 1.0) < 0.02


def test_norms_exactly_homogeneous_at_small_amplitude():
    grid = Grid(dim=3, n=16, period_l=4.0)
    f = random_divfree_field(grid, seed=1)
    traj = Samples(grid, np.linspace(0.0, 1.0, 3),
                   np.stack([f.coeffs, 0.5 * f.coeffs, 0.25 * f.coeffs]))
    small = Samples(grid, traj.times, 1e-3 * traj.coeffs)
    for p in (2.0, 256.0, 1024.0, INF):
        assert math.isclose(fb_norm_value(f * 1e-3, 0.5, p, 2.0),
                            1e-3 * fb_norm_value(f, 0.5, p, 2.0), rel_tol=1e-12)
        assert math.isclose(cl_norm(small, 0.5, p, 2.0, 1.0),
                            1e-3 * cl_norm(traj, 0.5, p, 2.0, 1.0),
                            rel_tol=1e-12)
    for big in (512.0, 1024.0):
        value = fb_norm_value(f, 0.5, 2.0, big)
        assert value > 0 and math.isclose(fb_norm_value(f * 1e-3, 0.5, 2.0, big),
                                          1e-3 * value, rel_tol=1e-12)
        value = cl_norm(traj, 0.5, 2.0, 2.0, big)
        scaled = cl_norm(small, 0.5, 2.0, 2.0, big)
        assert value > 0 and math.isclose(scaled, 1e-3 * value, rel_tol=1e-12)


def make_decay_trajectory(grid, k, kappa, times):
    base = single_mode(grid, k)
    coeffs = np.exp(-kappa * times)[:, None, None, None, None] * base.coeffs[None]
    return Samples(grid, times, coeffs)


def test_chemin_lerner_sup_and_integral_closed_forms():
    grid = Grid(dim=3, n=16, period_l=4.0)
    k = (4, 0, 0)
    kappa = 1.0  # |xi|^2 at xi = (1,0,0)
    times = np.linspace(0.0, 2.0, 513)
    traj = make_decay_trajectory(grid, k, kappa, times)
    base = fb_norm_value(traj.field(0), 0.5, 2.0, 2.0)

    assert abs(cl_norm(traj, 0.5, 2.0, 2.0, INF) - base) < 1e-13

    exact = base * (1.0 - math.exp(-kappa * 2.0)) / kappa
    assert abs(cl_norm(traj, 0.5, 2.0, 2.0, 1.0) - exact) < 1e-5 * exact  # trapezoid error

    exact_sq = base * math.sqrt((1.0 - math.exp(-2.0 * kappa * 2.0)) / (2.0 * kappa))
    assert abs(cl_norm(traj, 0.5, 2.0, 2.0, 2.0) - exact_sq) < 1e-5 * exact_sq


def test_chemin_lerner_single_sample_needs_sup():
    grid = Grid(dim=3, n=8, period_l=1.0)
    traj = Samples(grid, np.array([0.0]),
                   single_mode(grid, (1, 0, 0)).coeffs[None])
    assert cl_norm(traj, 0.0, 2.0, 2.0, INF) > 0
    with pytest.raises(ValueError):
        cl_norm(traj, 0.0, 2.0, 2.0, 1.0)


def test_mild_norm_is_sum_of_reports():
    grid = Grid(dim=3, n=16, period_l=4.0)
    times = np.linspace(0.0, 1.0, 9)
    traj = make_decay_trajectory(grid, (4, 0, 0), 1.0, times)
    part = get_partition(grid)
    series = shell_series(traj.coeffs, 2.0, part)
    s = critical_index(2.0)
    sup = chemin_lerner_norm(series, times, s, 2.0, INF, part)
    smooth = chemin_lerner_norm(series, times, s + 2.0, 2.0, 1.0, part)
    assert np.isclose(mild_norm(series, times, 2.0, 2.0, part), sup + smooth, rtol=1e-14)


EXPONENTS = st.one_of(st.floats(1.0, 64.0), st.just(INF))
MAGNITUDES = st.lists(st.one_of(st.just(0.0), st.floats(1e-100, 1e6)),
                      min_size=1, max_size=40)


@settings(max_examples=100, deadline=None)
@given(MAGNITUDES, EXPONENTS, st.integers(-60, 60))
def test_lebesgue_exactly_homogeneous(values, p, k):
    # a power-of-two factor rescales without rounding, so equality is exact
    values = np.array(values)
    assert lebesgue(2.0 ** k * values, p) == 2.0 ** k * lebesgue(values, p)


ENTRIES = st.one_of(st.just(0.0), st.floats(1e-100, 1e6), st.floats(-1e6, -1e-100))


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(float, st.tuples(st.just(2), st.integers(1, 4), st.integers(1, 5)),
                  elements=ENTRIES),
       st.booleans(), st.integers(-200, 900))
def test_magnitude_exactly_homogeneous(parts, is_complex, k):
    # every entry stays normal, so a power-of-two factor rescales without
    # rounding; magnitude scales before it squares, so equality is exact even
    # where the plain squares overflow (k above about 500) or underflow
    values = parts[0] + 1j * parts[1] if is_complex else parts.reshape(-1, parts.shape[-1])
    assert np.array_equal(magnitude(2.0 ** k * values), 2.0 ** k * magnitude(values))


@pytest.mark.parametrize("p", [1.0, 2.0, 64.0, INF])
def test_shell_series_exactly_homogeneous_beyond_the_square_root_of_float_max(p):
    # 2^600 |u_hat| squares beyond float max, yet every shell norm is exact
    grid = Grid(dim=3, n=16, period_l=1.0)
    u, part = random_divfree_field(grid, seed=12), get_partition(grid)
    scaled = shell_series(2.0 ** 600 * u.coeffs, p, part)
    assert np.array_equal(scaled, 2.0 ** 600 * shell_series(u.coeffs, p, part))


@settings(max_examples=100, deadline=None)
@given(MAGNITUDES, EXPONENTS, EXPONENTS)
def test_lebesgue_non_increasing_in_p_at_unit_weight(values, p, q):
    values = np.array(values)
    lo, hi = sorted((p, q))
    assert lebesgue(values, hi) <= lebesgue(values, lo) * (1.0 + 1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**16), st.sampled_from([16, 32, 48]),
       st.sampled_from([1.0, 2.0, 3.0, 4.5, 1024.0, INF]),
       st.sampled_from([0.5, 1.0, 4.0]), st.floats(1e-3, 1e3))
@example(0, 16, 2.0, 4.0, 1.0)
@example(1, 32, 1024.0, 1.0, 1.0)
@example(2, 48, INF, 1.0, 1.0)
def test_packed_shell_series_matches_full_support(seed, n, p, period_l, scale):
    # the band support drops only modes outside the band, where a dealiased
    # field is zero; reduceat then groups fewer zeros, so sums may round apart
    grid = Grid(dim=3, n=n, period_l=period_l)
    f = random_divfree_field(grid, seed=seed, cutoff=grid.band_max, amplitude=scale)
    full = shell_series(f.coeffs, p, get_partition(grid))
    band = shell_series(grid.pack(f.coeffs), p, get_partition(grid))
    assert np.all(np.abs(band - full) <= 1e-15 * full)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**16), st.sampled_from([(), (3,), (2, 3)]),
       st.sampled_from([(2, 16), (3, 16)]), st.booleans(),
       st.sampled_from([1.0, 2.0, 3.0, 1024.0, INF]))
@example(0, (2, 3), (3, 16), True, 1024.0)
def test_stack_shell_series_matches_row_by_row(seed, lead, shape, packed, p):
    # the one-pass reduction of a stack against each of its fields alone,
    # fields of amplitudes 1e-6 to 1e6 so the per-shell scales differ
    dim, n = shape
    grid = Grid(dim=dim, n=n, period_l=4.0)
    fields = [random_divfree_field(grid, seed=(seed, i), cutoff=grid.band_max,
                                   amplitude=10.0 ** (6 - 3 * (i % 5))).coeffs
              for i in range(math.prod(lead))]
    stack = np.reshape(fields, lead + fields[0].shape)
    if packed:
        stack = grid.pack(stack)
    part = get_partition(grid)
    series = shell_series(stack, p, part)
    assert series.shape == lead + (len(part.js),)
    for index in np.ndindex(*lead):
        row = shell_series(stack[index], p, part)
        assert np.all(np.abs(series[index] - row) <= 1e-15 * row)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**16), st.sampled_from([(2, 16), (3, 8)]),
       st.floats(-2.0, 3.0), EXPONENTS, EXPONENTS)
def test_one_sample_sup_time_norm_is_fb_norm(seed, shape, s, p, r):
    dim, n = shape
    grid = Grid(dim=dim, n=n, period_l=4.0)
    f = random_divfree_field(grid, seed=seed)
    part = get_partition(grid)
    series = shell_series(f.coeffs[None], p, part)
    sup = chemin_lerner_norm(series, np.array([0.0]), s, r, INF, part)
    assert sup == fb_norm(f, s, p, r).total


# ---------------------------------------------------------------------------
# scaling

def test_dyadic_rescale_critical_invariance_and_power_law():
    grid = Grid(dim=3, n=16, period_l=4.0)
    f = random_scalar_field(grid, seed=12)
    for p in (2.0, 4.0):
        s = critical_index(p)
        base = fb_norm_value(f, s, p, 2.0)
        for lam in (2.0, 4.0, 0.5):
            resc = dyadic_rescale(f, lam)
            assert abs(fb_norm_value(resc, s, p, 2.0) / base - 1.0) < 1e-12
    # away from the critical index the norm scales like lam^(s - (2 - 3/p))
    s, p, lam = 0.0, 2.0, 2.0
    got = fb_norm_value(dyadic_rescale(f, lam), s, p, 2.0) / fb_norm_value(f, s, p, 2.0)
    assert abs(got - lam ** (s - critical_index(p))) < 1e-12


def test_dyadic_rescale_roundtrip():
    grid = Grid(dim=3, n=16, period_l=4.0)
    f = random_scalar_field(grid, seed=13)
    back = dyadic_rescale(dyadic_rescale(f, 2.0), 0.5)
    assert back.grid == grid
    assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-15


# ---------------------------------------------------------------------------
# paraproducts

def test_bony_reconstruction_random_pair():
    grid = Grid(dim=3, n=32, period_l=4.0)
    u = dealias(random_scalar_field(grid, seed=21))
    v = dealias(random_scalar_field(grid, seed=22))
    part = get_partition(grid)
    for j in part.js:
        one, two, rem = bony_decompose(u, v, j)
        ref = shell_product(u, v, j)
        err = np.linalg.norm(one.coeffs + two.coeffs + rem.coeffs - ref.coeffs)
        scale = np.linalg.norm(ref.coeffs)
        assert err <= 1e-10 * max(scale, 1e-30)


def test_bony_separated_scales_land_in_one_paraproduct():
    # low factor at |xi| = 1, high factor at |xi| = 16: the product is
    # carried entirely by the low-high paraproduct near the high shell
    grid = Grid(dim=3, n=64, period_l=1.0)
    u = single_mode(grid, (1, 0, 0))
    v = single_mode(grid, (16, 0, 0))
    part = get_partition(grid)
    for j in part.js:
        one, two, rem = bony_decompose(u, v, j)
        ref = shell_product(u, v, j)
        assert np.max(np.abs(two.coeffs)) < 1e-15
        assert np.max(np.abs(rem.coeffs)) < 1e-15
        assert np.max(np.abs(one.coeffs - ref.coeffs)) < 1e-14
    # swapping the factors moves everything into the symmetric term
    one, two, rem = bony_decompose(v, u, 4)
    assert np.max(np.abs(one.coeffs)) < 1e-15
    assert np.max(np.abs(rem.coeffs)) < 1e-15


def test_bony_close_scales_land_in_remainder():
    grid = Grid(dim=3, n=32, period_l=1.0)
    u = single_mode(grid, (4, 0, 0))
    v = single_mode(grid, (0, 4, 0))  # same shell
    part = get_partition(grid)
    for j in part.js:
        one, two, rem = bony_decompose(u, v, j)
        assert np.max(np.abs(one.coeffs)) < 1e-15
        assert np.max(np.abs(two.coeffs)) < 1e-15
        ref = shell_product(u, v, j)
        assert np.max(np.abs(rem.coeffs - ref.coeffs)) < 1e-14


def test_bony_requires_scalars():
    grid = Grid(dim=3, n=16, period_l=1.0)
    vec = SpectralField(grid, np.zeros((3,) + grid.spectral_shape, dtype=np.complex128))
    sca = random_scalar_field(grid, seed=1)
    with pytest.raises(ValueError):
        bony_decompose(vec, sca, 0)


# ---------------------------------------------------------------------------
# Bernstein

def test_bernstein_slope_2d_quick():
    out = bernstein_slope((0, 1), 2.0, 2.0, js=[2, 3, 4], dim=2)
    assert abs(out["slope"] - out["target"]) < 0.05 * abs(out["target"])
    assert out["target"] == 1.0
    # exponents whose unscaled power sums overflow: every slab is reduced by lebesgue
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for gamma, q, js in (((2, 0), 512.0, [3, 4, 5]), ((1, 0), 1024.0, [2, 3, 4])):
            assert math.isfinite(bernstein_slope(gamma, 2.0, q, js, dim=2)["slope"])


def test_bernstein_slope_pure_lebesgue_shift():
    out = bernstein_slope((0, 0), 1.0, 2.0, js=[2, 3, 4], dim=2)
    # target 0 + 2 (1/2 - 1) = -1
    assert out["target"] == -1.0
    assert abs(out["slope"] - out["target"]) < 0.05


def test_zero_mean_mode_not_counted():
    grid = Grid(dim=2, n=16, period_l=1.0)
    coeffs = np.zeros((1,) + grid.spectral_shape, dtype=np.complex128)
    coeffs[0, 0, 0] = 5.0
    f = SpectralField(grid, coeffs)
    assert fb_norm_value(f, 0.0, 2.0, 2.0) == 0.0
    assert fb_norm_value(zero_mean(f), 0.0, 2.0, 2.0) == 0.0
