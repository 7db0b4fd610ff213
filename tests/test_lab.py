import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbns import lab, lp
from fbns.lab import (LAB_GRID, STABILITY_LIMIT, lab_times,
                      member_seed, omega_independence_scan,
                      verify_duhamel_smoothing, verify_product_estimate,
                      verify_semigroup_bounds)
from fbns.lp import (INF, chemin_lerner_norm, critical_index, fb_norm_value,
                     get_partition, shell_profile, shell_series)
from fbns.semigroup import sweep_samples
from fbns.spectral import (Grid, SpectralField, dealias, forward_transform,
                           inverse_transform, random_divfree_field,
                           random_scalar_field)
from full_layout import Samples, duhamel_samples, linear_samples

GRID = LAB_GRID  # 16^3, period 4


def cl_norm(traj, s, p, r, q):
    part = get_partition(traj.grid)
    return chemin_lerner_norm(shell_series(traj.coeffs, p, part), traj.times,
                              s, r, q, part)


def transverse_mode(grid, k=(4, 0, 0), a=(0.0, 1.0, 0.0)):
    coeffs = np.zeros((3,) + grid.spectral_shape, dtype=np.complex128)
    for comp in range(3):
        coeffs[(comp,) + tuple(k)] = a[comp] / 2.0
        coeffs[(comp,) + tuple(-ki for ki in k)] = a[comp] / 2.0
    return SpectralField(grid, coeffs)


def test_member_seed_flattens():
    assert member_seed(7, 3) == (7, 3)
    assert member_seed((7, 1), 3) == (7, 1, 3)
    a = lab._member_field(GRID, seed=7, index=3)
    b = lab._member_field(GRID, seed=7, index=3)
    c = lab._member_field(GRID, seed=7, index=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_lab_times_validation():
    times = lab_times(0.5, 9)
    assert times[0] == 0.0 and times[-1] == 0.5 and times.size == 9
    with pytest.raises(ValueError):
        lab_times(0.0, 9)
    with pytest.raises(ValueError):
        lab_times(1.0, 1)


# ---------------------------------------------------------------------------
# Duhamel smoothing

def test_duhamel_ratio_closed_form_single_mode():
    # constant forcing in a single transverse mode at |xi| = 1, no rotation:
    # the integral is (1 - e^{-t}) g per mode, so the ratio of the two
    # Chemin-Lerner norms (q = a = 1) reduces to the shell-weight quotient
    # times int_0^1 (1 - e^{-t}) dt = 1/e
    g = GRID.helical(GRID.pack(transverse_mode(GRID).coeffs))
    times = np.linspace(0.0, 1.0, 257)
    forcing = np.repeat(g[np.newaxis], times.size, axis=0)
    integral = sweep_samples(GRID, times, 0.0, np.zeros_like(g), forcing)
    s, p, r, q, a = 0.5, 2.0, 2.0, 1.0, 1.0
    rhs_index = s - 2.0 - 2.0 / q + 2.0 / a
    part = get_partition(GRID)
    lhs = chemin_lerner_norm(shell_series(integral, p, part), times,
                             s, r, q, part)
    rhs = chemin_lerner_norm(shell_series(forcing, p, part), times,
                             rhs_index, r, a, part)

    def weight(sigma):
        vals = [2.0 ** (j * sigma) * shell_profile(np.array([1.0]), j)[0]
                for j in (-1, 0)]
        return math.sqrt(sum(v * v for v in vals))

    expected = math.exp(-1.0) * weight(s) / weight(rhs_index)
    assert abs(lhs / rhs - expected) < 1e-4 * expected


def test_verify_duhamel_smoothing_report():
    rep = verify_duhamel_smoothing(q=1.0, a=1.0, ensemble=6, seed=11)
    assert rep.name == "duhamel_smoothing"
    assert rep.params["s"] == critical_index(2.0)
    assert rep.params["rhs_index"] == critical_index(2.0) - 2.0
    assert len(rep.ratios) == 12 and rep.discarded == 0
    assert all(math.isfinite(x) for x in rep.ratios)
    assert 0.0 < rep.median_ratio <= rep.max_ratio
    assert rep.stability < STABILITY_LIMIT and rep.passed
    sup = verify_duhamel_smoothing(q=INF, a=1.0, ensemble=4, seed=11)
    assert sup.params["rhs_index"] == critical_index(2.0)
    assert sup.passed


def test_report_with_every_member_discarded_fails(monkeypatch):
    # a forcing-norm floor that no member clears discards every member
    monkeypatch.setattr(lab, "_TINY_RHS", math.inf)
    rep = verify_duhamel_smoothing(ensemble=1, grid=Grid(3, 8, 4.0), n_samples=3)
    assert rep.discarded == 2
    assert math.isnan(rep.max_ratio) and math.isnan(rep.median_ratio)
    assert not rep.passed


def test_verify_duhamel_smoothing_validation():
    with pytest.raises(ValueError, match="a <= q"):
        verify_duhamel_smoothing(q=1.0, a=2.0)
    with pytest.raises(ValueError, match=">= 1"):
        verify_duhamel_smoothing(q=1.0, a=0.5)


@pytest.mark.parametrize("s", [math.inf, -math.inf, math.nan])
def test_duhamel_refuses_a_non_finite_regularity_before_any_member_is_drawn(
        monkeypatch, s):
    def draw(*args, **kwargs):
        raise AssertionError("a member was drawn")

    monkeypatch.setattr(lab, "random_divfree_field", draw)
    monkeypatch.setattr(lab, "random_band", draw)
    with pytest.raises(ValueError, match=f"regularity s must be finite, got {s}"):
        verify_duhamel_smoothing(s=s, ensemble=1, grid=Grid(3, 8, 4.0), n_samples=3)


def test_duhamel_reports_are_reproducible():
    one = verify_duhamel_smoothing(ensemble=3, seed=5)
    two = verify_duhamel_smoothing(ensemble=3, seed=5)
    assert one.ratios == two.ratios
    assert one.as_dict() == two.as_dict()


# ---------------------------------------------------------------------------
# product estimate

def test_pointwise_product_single_modes():
    grid = Grid(dim=3, n=16, period_l=1.0)
    times = np.linspace(0.0, 1.0, 3)
    cu = np.zeros((1,) + grid.spectral_shape, dtype=np.complex128)
    cu[0, 1, 0, 0] = cu[0, -1, 0, 0] = 0.5
    cv = np.zeros((1,) + grid.spectral_shape, dtype=np.complex128)
    cv[0, 0, 1, 0] = cv[0, 0, -1, 0] = 0.5
    u, v = (np.repeat(grid.pack(c)[np.newaxis], times.size, axis=0) for c in (cu, cv))
    w = grid.unpack(lab._band_product(grid, u, v))
    expected = np.zeros(grid.spectral_shape, dtype=np.complex128)
    for k1 in (1, -1):
        for k2 in (1, -1):
            expected[k1, k2, 0] = 0.25
    assert np.max(np.abs(w[0, 0] - expected)) < 1e-15
    assert np.max(np.abs(w[2, 0] - expected)) < 1e-15


def test_verify_product_estimate_report_and_range():
    rep = verify_product_estimate(s=0.5, ensemble=5, seed=3)
    assert rep.name == "product_estimate"
    assert rep.passed and rep.discarded == 0
    assert rep.max_ratio > 0
    with pytest.raises(ValueError, match="admissible open interval"):
        verify_product_estimate(s=-1.0)
    with pytest.raises(ValueError, match="admissible open interval"):
        verify_product_estimate(s=1.5, p=2.0)  # upper endpoint 3 - 3/p
    with pytest.raises(ValueError, match="must exceed 1"):
        verify_product_estimate(p=1.0)


def test_sweep_product_estimate():
    reports = [verify_product_estimate(s=s, ensemble=2, seed=4)
               for s in (-0.5, 0.0, 0.5)]
    assert [rep.params["s"] for rep in reports] == [-0.5, 0.0, 0.5]
    assert all(rep.passed for rep in reports)


def test_product_y_norm_is_sum_of_parts():
    times = lab_times()
    part = get_partition(GRID)
    env, base = lab._envelope(times), lab._member_field(GRID, 2, 0, scalar=True)
    y = lab._y_norm(lab._series(env, base, 2.0, part), times, 0.5, 2.0, 2.0, part)
    traj = Samples(GRID, times, GRID.unpack(env[:, None, None, None, None] * base))
    parts = (cl_norm(traj, 0.5, 2.0, 2.0, INF)
             + cl_norm(traj, 4.0 - 1.5, 2.0, 2.0, 1.0))
    assert math.isclose(y, parts, rel_tol=1e-14)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(st.sampled_from([1.0, 2.0, 7.5, 1e3, INF]), st.booleans(),
       st.booleans(), st.integers(0, 2**16), st.sampled_from([8, 12, 16]))
def test_envelope_series_equals_series_of_the_samples(p, oscillation, scalar,
                                                      seed, n):
    # a member is env(t_k) times one field, and each frequency L^p norm is
    # homogeneous of degree one, so one series of the field serves every sample
    grid = Grid(3, n, 4.0)
    part = get_partition(grid)
    times = lab_times(1.0, 9)
    env = lab._envelope(times, oscillation)
    base = lab._member_field(grid, seed, 0, scalar)
    samples = env.reshape((-1,) + (1,) * base.ndim) * base
    np.testing.assert_allclose(lab._series(env, base, p, part),
                               shell_series(samples, p, part), rtol=1e-15, atol=0)


def test_product_member_takes_one_band_product(monkeypatch):
    # the factors' fields are transformed once each, and their product once,
    # whatever the number of time samples
    calls = []
    to_samples, to_band = Grid._to_samples, Grid._to_band

    def counting_samples(self, coeffs):
        calls.append(("samples", coeffs.shape[:-self.dim]))
        return to_samples(self, coeffs)

    def counting_band(self, samples):
        calls.append(("band", samples.shape[:-self.dim]))
        return to_band(self, samples)

    monkeypatch.setattr(Grid, "_to_samples", counting_samples)
    monkeypatch.setattr(Grid, "_to_band", counting_band)
    verify_product_estimate(ensemble=1, n_samples=17)  # two members
    assert calls == 2 * [("samples", (1,)), ("samples", (1,)), ("band", (1,))]


@pytest.mark.parametrize("verify, calls", [
    (verify_duhamel_smoothing, 2),
    (verify_product_estimate, 3),  # w, u and v: each measured once
    (verify_semigroup_bounds, 1),  # the data norm is the first sample's
])
def test_each_member_trajectory_is_measured_once(monkeypatch, verify, calls):
    counted = []
    series = lp.shell_series

    def counting(*args):
        counted.append(args)
        return series(*args)

    # every norm of lp is read from a shell series, so this counts them all,
    # whether lab calls shell_series itself or through a norm of lp
    monkeypatch.setattr(lp, "shell_series", counting)
    monkeypatch.setattr(lab, "shell_series", counting, raising=False)
    verify(ensemble=1, n_samples=5)  # two members
    assert len(counted) == 2 * calls


# ---------------------------------------------------------------------------
# the band-packed members against the full-layout pieces

def full_layout_member(grid, times, seed, index, scalar=False,
                       oscillation=False):
    draw = random_scalar_field if scalar else random_divfree_field
    base = draw(grid, seed=member_seed(seed, index)).coeffs
    base = base if scalar else grid.helical(base)
    env = np.exp(-times) * (1.0 + 0.5 * np.sin(5.0 * times) if oscillation else 1.0)
    return Samples(grid, times, env[:, None, None, None, None] * base)


def full_layout_product(u, v):
    grid = u.grid
    out = np.empty(u.coeffs.shape, dtype=np.complex128)
    for k in range(u.n_samples):
        prod = np.sum(inverse_transform(u.field(k))
                      * inverse_transform(v.field(k)), axis=0)
        out[k] = dealias(forward_transform(prod, grid)).coeffs
    return Samples(grid, u.times, out)


@pytest.mark.parametrize("omega", [0.0, 10.0])
def test_packed_lab_matches_full_layout_reference(omega):
    grid = Grid(dim=3, n=12, period_l=4.0)
    ensemble, n_samples, seed, p, r = 2, 5, 13, 2.0, 2.0
    times = lab_times(1.0, n_samples)
    part = get_partition(grid)
    s = critical_index(p)

    def norm(traj, sigma, q):
        return chemin_lerner_norm(shell_series(traj.coeffs, p, part), times,
                                  sigma, r, q, part)

    def y_norm(traj, sigma):
        return norm(traj, sigma, INF) + norm(traj, 4.0 - 3.0 / p, 1.0)

    duhamel, product, sup, smoothing = [], [], [], []
    for i in range(2 * ensemble):
        f = full_layout_member(grid, times, seed, i, oscillation=i % 2 == 1)
        duhamel.append(norm(duhamel_samples(f, omega), s, 1.0) / norm(f, s - 2.0, 1.0))
        u = full_layout_member(grid, times, (seed, 0), i, scalar=True,
                               oscillation=i % 2 == 1)
        v = full_layout_member(grid, times, (seed, 1), i, scalar=True)
        product.append(norm(full_layout_product(u, v), 1.5, 1.0)
                       / (y_norm(u, 0.5) * y_norm(v, 0.5)))
        u0 = random_divfree_field(grid, seed=member_seed(seed, i))
        linear = linear_samples(u0, times, omega)
        data = fb_norm_value(u0, s, p, r)
        sup.append(norm(linear, s, INF) / data)
        smoothing.append(norm(linear, s + 2.0, 1.0) / data)

    common = dict(p=p, r=r, ensemble=ensemble, grid=grid, n_samples=n_samples,
                  seed=seed)
    got = verify_duhamel_smoothing(omega=omega, **common)
    np.testing.assert_allclose(got.ratios, duhamel, rtol=1e-14, atol=0)
    got = verify_product_estimate(s=0.5, **common)
    np.testing.assert_allclose(got.ratios, product, rtol=1e-14, atol=0)
    got = verify_semigroup_bounds(omega=omega, **common)
    np.testing.assert_allclose(got.ratios, sup, rtol=1e-14, atol=0)
    np.testing.assert_allclose(got.details["smoothing_ratios"], smoothing,
                               rtol=1e-14, atol=0)


@pytest.mark.parametrize("ensemble", [0, -3])
@pytest.mark.parametrize("verify", [
    verify_duhamel_smoothing, verify_product_estimate, verify_semigroup_bounds,
    lambda ensemble: omega_independence_scan("linear", [], ensemble=ensemble),
])
def test_empty_ensemble_is_refused_before_any_member_is_drawn(
        monkeypatch, verify, ensemble):
    def draw(*args, **kwargs):
        raise AssertionError("a member was drawn")

    monkeypatch.setattr(lab, "random_divfree_field", draw)
    monkeypatch.setattr(lab, "random_band", draw)
    with pytest.raises(ValueError, match=f"ensemble must be >= 1, got {ensemble}"):
        verify(ensemble=ensemble)


# ---------------------------------------------------------------------------
# semigroup bounds and rotation independence

def test_semigroup_bounds_sup_ratio_is_one():
    rep = verify_semigroup_bounds(ensemble=5, seed=6)
    assert rep.max_ratio == pytest.approx(1.0, abs=1e-13)
    assert rep.passed
    assert rep.details["smoothing_max"] > 0
    assert rep.details["smoothing_stability"] < STABILITY_LIMIT


def test_semigroup_bounds_need_samples_that_resolve_the_lowest_shell(monkeypatch):
    # the smoothing constant is a quadrature artefact once dt/L^2 is large
    # (measured at 16^3: 0.30 at 1/256, 1.16 at 1/4, 4.2 at 1, 67 at 16), so
    # spacings above L^2/4 are refused before a member is drawn
    grid = Grid(dim=3, n=16, period_l=1.0)
    rep = verify_semigroup_bounds(ensemble=1, grid=grid, horizon=1.0, n_samples=5)
    assert rep.passed and rep.details["smoothing_max"] < 1.2

    def draw(*args, **kwargs):
        raise AssertionError("a member was drawn")

    monkeypatch.setattr(lab, "random_band", draw)
    for kwargs in ({"grid": grid, "horizon": 1.0, "n_samples": 4},
                   {"horizon": 1e308}):
        with pytest.raises(ValueError, match="horizon=.* and n_samples=.* space the samples .* apart, over L"):
            verify_semigroup_bounds(ensemble=1, **kwargs)


def test_semigroup_bounds_rotation_invariant_norms():
    base = verify_semigroup_bounds(ensemble=4, seed=8, omega=0.0)
    fast = verify_semigroup_bounds(ensemble=4, seed=8, omega=50.0)
    assert np.allclose(base.ratios, fast.ratios, rtol=1e-10, atol=1e-13)
    got = fast.details["smoothing_ratios"]
    want = base.details["smoothing_ratios"]
    assert np.allclose(got, want, rtol=1e-10)


def test_omega_scan_linear():
    out = omega_independence_scan("linear", [0.0, 10.0], seed=9, ensemble=2)
    assert out["experiment"] == "linear"
    assert out["omegas"] == [0.0, 10.0]
    assert len(out["constants"]) == 2
    assert out["variation"] < 1e-10
    assert not out["flagged"]
    assert all("max_ratio" in entry for entry in out["per_omega"])


def test_omega_scan_contraction():
    out = omega_independence_scan("contraction", [0.0, 10.0], seed=1)
    assert len(out["constants"]) == 2
    assert all(c > 0 for c in out["constants"])
    assert all(entry["converged"] for entry in out["per_omega"])
    # rotation only helps: no growth over the omega = 0 baseline
    assert out["variation"] == 0.0
    assert not out["flagged"]


def test_contraction_scan_refuses_options_before_any_solve(monkeypatch):
    def solve(*args, **kwargs):
        raise AssertionError("a Picard solve ran")

    monkeypatch.setattr(lab, "picard_solve", solve)
    with pytest.raises(ValueError, match=r"takes no options, got \['ensemble'\]"):
        omega_independence_scan("contraction", [0.0], ensemble=2)


def test_omega_scan_empty_and_unknown():
    # a scan of no rotation rates has no baseline to flag growth against
    with pytest.raises(ValueError, match="at least one rotation rate"):
        omega_independence_scan("linear", [], ensemble=2)
    with pytest.raises(ValueError, match="unknown experiment"):
        omega_independence_scan("bilinear", [0.0])
