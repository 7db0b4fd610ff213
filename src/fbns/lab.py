"""Empirical verification of the linear, smoothing, and product estimates.

Each verifier draws a deterministic ensemble of random fields or
trajectories, evaluates both sides of one inequality, and reports the
per-sample LHS/RHS ratios.  "There exists a constant" is operationalized
as stability of the ensemble maximum under doubling rather than as a
hardcoded number: the verifier always computes 2n samples and passes when
the max over all 2n exceeds the max over the first n by less than 20%.

Ensemble members are seeded per index, so member i is the same object in
every run and in both ensemble sizes.  Every member is drawn dealiased, so
it is stored, stepped and measured on the dealiased band only, in the
band-packed layout of the Picard solver (Grid.pack).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .lp import (INF, chemin_lerner_norm, critical_index, fb_norm_of_series,
                 fb_norm_value, get_partition, shell_series)
from .semigroup import sweep_samples
from .solver3d import SolverConfig3D, picard_solve, smallness_gate
from .spectral import (Grid, SpectralField, forward_transform,
                       inverse_transform, random_divfree_field,
                       random_scalar_field)

STABILITY_LIMIT = 0.2
_TINY_RHS = 1e-300


@dataclass
class EstimateReport:
    name: str
    params: dict
    ensemble: int
    ratios: list  # length 2 * ensemble, nan where the sample was discarded
    max_ratio: float
    median_ratio: float
    prefix_max: float
    stability: float
    discarded: int
    passed: bool
    details: dict = dataclass_field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {key: _clean(value) for key, value in vars(self).items()}
        out["ratios"] = [_clean(float(r)) for r in self.ratios]
        return out


def _clean(x):
    return None if isinstance(x, float) and not math.isfinite(x) else x


def _excess(value: float, base: float) -> float:
    """(value - base) / base; for base <= 0, 0 if value is 0 and inf if not."""
    if base > 0:
        return (value - base) / base
    return 0.0 if value == 0.0 else math.inf


def _finalize(name: str, params: dict, ensemble: int, ratios: list,
              details: dict | None = None,
              extra_ok: bool = True) -> EstimateReport:
    # ratios are quotients of norms, so a max starting from 0 is their max
    arr = np.asarray(ratios, dtype=float)
    valid = np.isfinite(arr)
    max_all = float(np.max(arr[valid], initial=0.0))
    median = float(np.median(arr[valid])) if valid.any() else 0.0
    head = arr[:ensemble]
    prefix_max = float(np.max(head[np.isfinite(head)], initial=0.0))
    stability = _excess(max_all, prefix_max)
    passed = bool(math.isfinite(max_all) and stability < STABILITY_LIMIT
                  and extra_ok)
    return EstimateReport(name, params, ensemble, list(arr), max_all, median,
                          prefix_max, stability, int((~valid).sum()), passed,
                          details or {})


def default_lab_grid(dim: int = 3, n: int = 16, period_l: float = 4.0) -> Grid:
    return Grid(dim=dim, n=n, period_l=period_l)


def lab_times(horizon: float = 1.0, n_samples: int = 17) -> np.ndarray:
    if n_samples < 2 or not 0 < horizon < math.inf:
        raise ValueError(f"need 0 < horizon={horizon} < inf and n_samples={n_samples} >= 2")
    return np.linspace(0.0, horizon, n_samples)


def member_seed(seed, index: int) -> tuple:
    """Flat integer tuple seeding ensemble member `index`; nested tuples are
    flattened because the generator wants a 1d entropy sequence."""
    if isinstance(seed, (tuple, list)):
        return tuple(int(x) for x in seed) + (int(index),)
    return (int(seed), int(index))


def _members(ensemble: int) -> range:
    """Indices of the 2 * ensemble members; an empty ensemble is refused."""
    if not ensemble >= 1:
        raise ValueError(f"ensemble must be >= 1, got {ensemble}")
    return range(2 * ensemble)


def _member_field(grid: Grid, seed, index: int, scalar: bool = False) -> np.ndarray:
    """Member `index`'s random field, drawn dealiased, band-packed."""
    draw = random_scalar_field if scalar else random_divfree_field
    return grid.pack(draw(grid, seed=member_seed(seed, index)).coeffs)


def _decaying(grid: Grid, times: np.ndarray, seed, index: int,
              scalar: bool = False, oscillation: bool = False) -> np.ndarray:
    """Band-packed samples of e^{-t} times member `index`'s random field; odd
    members can get an extra bounded oscillation so both time exponents
    a in {1, inf} see non-monotone inputs."""
    base = _member_field(grid, seed, index, scalar)
    env = np.exp(-np.asarray(times, dtype=float))
    if oscillation:
        env = env * (1.0 + 0.5 * np.sin(5.0 * np.asarray(times)))
    return env[(slice(None),) + (np.newaxis,) * base.ndim] * base[np.newaxis]


def verify_duhamel_smoothing(s: float = None, p: float = 2.0, r: float = 2.0,
                             q: float = 1.0, a: float = 1.0,
                             omega: float = 0.0, ensemble: int = 20,
                             grid: Grid | None = None, horizon: float = 1.0,
                             n_samples: int = 17, seed: int = 0) -> EstimateReport:
    """Smoothing of the Duhamel integral: the time-q Chemin-Lerner norm at
    regularity s is controlled by the time-a norm of the forcing at
    regularity s - 2 - 2/q + 2/a, for 1 <= a <= q."""
    if not 1 <= a:
        raise ValueError(f"time exponent a must be >= 1, got {a}")
    if a > q:
        raise ValueError(
            f"need a <= q (got a={a}, q={q}) so the Young exponent "
            "1 + 1/q = 1/q~ + 1/a stays admissible")
    if grid is None:
        grid = default_lab_grid()
    if s is None:
        s = critical_index(p)
    rhs_index = s - 2.0 - (0.0 if q == INF else 2.0 / q) \
        + (0.0 if a == INF else 2.0 / a)
    times = lab_times(horizon, n_samples)
    part = get_partition(grid)
    ratios = []
    for i in _members(ensemble):
        f = _decaying(grid, times, seed, i, oscillation=(i % 2 == 1))
        integral = sweep_samples(grid, times, omega, np.zeros_like(f[0]), f)
        lhs = chemin_lerner_norm(shell_series(integral, p, part),
                                 times, s, r, q, part).total
        rhs = chemin_lerner_norm(shell_series(f, p, part),
                                 times, rhs_index, r, a, part).total
        ratios.append(lhs / rhs if rhs > _TINY_RHS else math.nan)
    params = {"s": s, "p": p, "r": r, "q": q, "a": a, "omega": omega,
              "rhs_index": rhs_index, "horizon": horizon,
              "n_samples": n_samples, "seed": seed, "grid_n": grid.n,
              "grid_l": grid.period_l}
    return _finalize("duhamel_smoothing", params, ensemble, ratios)


def _y_norm(samples: np.ndarray, times, s: float, p: float, r: float, part) -> float:
    """Norm of the persistence-plus-smoothing space entering the product
    estimate: sup-in-time at regularity s plus time-integrated at 4 - 3/p,
    both read from one shell series of the band-packed samples."""
    series = shell_series(samples, p, part)
    return sum(chemin_lerner_norm(series, times, sigma, r, q, part).total
               for sigma, q in ((s, INF), (4.0 - 3.0 / p, 1.0)))


def _band_product(grid: Grid, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sample-by-sample pointwise (dot) product of two samples x ncomp
    band-packed stacks, restricted to the band (Grid.pack, the 2/3 rule):
    one transform per factor, one back."""
    phys = [inverse_transform(SpectralField(grid, grid.unpack(c).reshape(
        (-1,) + grid.spectral_shape))).reshape(c.shape[:2] + grid.shape) for c in (u, v)]
    prod = np.sum(phys[0] * phys[1], axis=1)
    return grid.pack(forward_transform(prod, grid).coeffs)[:, np.newaxis]


def verify_product_estimate(s: float = 0.5, p: float = 2.0, r: float = 2.0,
                            ensemble: int = 20, grid: Grid | None = None,
                            horizon: float = 1.0, n_samples: int = 17,
                            seed: int = 0) -> EstimateReport:
    """Bilinear product estimate: the time-integrated norm of uv at
    regularity s + 1 against the product of the mixed-space norms of the
    factors, valid for -1 < s < 3 - 3/p."""
    if not p > 1:
        raise ValueError(f"integrability index p must exceed 1, got {p}")
    upper = 3.0 - (0.0 if p == INF else 3.0 / p)
    if not -1.0 < s < upper:
        raise ValueError(
            f"regularity s={s} outside the admissible open interval "
            f"(-1, {upper}); the paraproduct sums diverge at the endpoints")
    if grid is None:
        grid = default_lab_grid()
    times = lab_times(horizon, n_samples)
    part = get_partition(grid)
    ratios = []
    for i in _members(ensemble):
        u = _decaying(grid, times, (seed, 0), i, scalar=True,
                      oscillation=(i % 2 == 1))
        v = _decaying(grid, times, (seed, 1), i, scalar=True)
        w = _band_product(grid, u, v)
        lhs = chemin_lerner_norm(shell_series(w, p, part),
                                 times, s + 1.0, r, 1.0, part).total
        rhs = _y_norm(u, times, s, p, r, part) * _y_norm(v, times, s, p, r, part)
        ratios.append(lhs / rhs if rhs > _TINY_RHS else math.nan)
    params = {"s": s, "p": p, "r": r, "horizon": horizon,
              "n_samples": n_samples, "seed": seed, "grid_n": grid.n,
              "grid_l": grid.period_l}
    return _finalize("product_estimate", params, ensemble, ratios)


def verify_semigroup_bounds(p: float = 2.0, r: float = 2.0, omega: float = 0.0,
                            ensemble: int = 20, grid: Grid | None = None,
                            horizon: float = 1.0, n_samples: int = 17,
                            seed: int = 0) -> EstimateReport:
    """Linear semigroup bounds at the critical regularity s = 2 - 3/p: the
    sup-in-time norm against the data norm (empirical constant 1: shell
    profiles decay from their initial values), and the time-integrated norm
    two derivatives up (smoothing), reported in details.  All three norms of
    a member are read from one shell series; its first sample is u0."""
    if grid is None:
        grid = default_lab_grid()
    s = critical_index(p)
    times = lab_times(horizon, n_samples)
    part = get_partition(grid)
    sup_ratios = []
    smoothing_ratios = []
    for i in _members(ensemble):
        u = sweep_samples(grid, times, omega, _member_field(grid, seed, i))
        series = shell_series(u, p, part)
        data_norm = float(fb_norm_of_series(series[0], s, r, part))
        if data_norm <= _TINY_RHS:
            sup_ratios.append(math.nan)
            smoothing_ratios.append(math.nan)
            continue
        sup_ratios.append(
            chemin_lerner_norm(series, times, s, r, INF, part).total / data_norm)
        smoothing_ratios.append(
            chemin_lerner_norm(series, times, s + 2.0, r, 1.0, part).total / data_norm)
    params = {"s": s, "p": p, "r": r, "omega": omega, "horizon": horizon,
              "n_samples": n_samples, "seed": seed, "grid_n": grid.n,
              "grid_l": grid.period_l}
    smoothing = _finalize("smoothing", params, ensemble, smoothing_ratios)
    details = {
        "smoothing_ratios": smoothing.as_dict()["ratios"],
        "smoothing_max": smoothing.max_ratio,
        "smoothing_stability": smoothing.stability,
    }
    return _finalize("semigroup_bounds", params, ensemble, sup_ratios,
                     details=details, extra_ok=smoothing.passed)


# ---------------------------------------------------------------------------
# rotation-rate independence

def _contraction_constant(grid: Grid, omega: float, seed: int) -> dict:
    # late Picard contraction ratio for data at half the gate threshold
    s = critical_index(2.0)
    u0 = random_divfree_field(grid, seed=member_seed(seed, 0))
    gate = smallness_gate(u0, 2.0, 2.0)
    norm0 = fb_norm_value(u0, s, 2.0, 2.0)
    u0 = SpectralField(grid, u0.coeffs * (0.5 * gate.threshold / norm0))
    config = SolverConfig3D(grid=grid, omega=omega, horizon=0.5, dt=1.0 / 16.0)
    traj, diag = picard_solve(u0, config)
    late = diag.ratios[1:] if len(diag.ratios) > 1 else diag.ratios
    constant = max(late) if late else 0.0
    return {
        "omega": omega,
        "constant": float(constant),
        "converged": diag.converged,
        "iterations": diag.iterations,
        "mild_norm": (diag.iterate_norms[-1] if diag.iterate_norms else 0.0),
    }


def omega_independence_scan(experiment: str, omegas, grid: Grid | None = None,
                            seed: int = 0, **kwargs) -> dict:
    """Tabulate an empirical constant against the rotation rate.

    Experiments: 'linear' (semigroup-bound max ratio; kwargs go to
    verify_semigroup_bounds) and 'contraction' (late Picard contraction
    ratio for fixed small data; takes no kwargs).  Independence is
    operationalized as uniform boundedness: the scan flags growth of the
    constant above 50% of its value at the first (baseline) rotation rate.
    Rotation often shrinks the measured constant, because oscillation
    cancels inside time integrals before any norm is taken; that only makes
    the estimates less sharp and is reported via 'spread' without flagging.
    """
    if experiment not in ("linear", "contraction"):
        raise ValueError(f"unknown experiment {experiment!r}")
    if experiment == "contraction" and kwargs:
        raise ValueError(f"the contraction experiment takes no options, got {sorted(kwargs)}")
    if "ensemble" in kwargs:
        _members(kwargs["ensemble"])
    omegas = [float(w) for w in omegas]
    if grid is None:
        grid = default_lab_grid()
    constants = []
    per_omega = []
    for w in omegas:
        if experiment == "linear":
            rep = verify_semigroup_bounds(omega=w, grid=grid, seed=seed, **kwargs)
            constants.append(rep.max_ratio)
            per_omega.append({"omega": w, "max_ratio": rep.max_ratio,
                              "smoothing_max": rep.details["smoothing_max"],
                              "ratios": rep.as_dict()["ratios"]})
        else:
            entry = _contraction_constant(grid, w, seed)
            constants.append(entry["constant"])
            per_omega.append(entry)
    lo, hi = min(constants, default=0.0), max(constants, default=0.0)
    spread = _excess(hi, lo)
    growth = max(0.0, _excess(hi, constants[0] if constants else 0.0))
    return {
        "experiment": experiment,
        "omegas": omegas,
        "constants": constants,
        "variation": growth,
        "spread": spread,
        "flagged": bool(growth > 0.5),
        "per_omega": per_omega,
        "seed": seed,
        "grid_n": grid.n,
        "grid_l": grid.period_l,
    }
