"""Small-data mild solver for the 3d rotating Navier-Stokes equations.

The fixed point of

    u(t) = T(t) u0 - integral_0^t T(t - tau) P div(u (x) u)(tau) dtau

is computed by Picard iteration on trajectories sampled on a uniform time
grid, with the Duhamel integral advanced by exact multiplier composition
per interval.  The contraction metric is the mild norm: sup-in-time
critical Fourier-Besov norm plus the time-integrated smoothing norm.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field as dataclass_field

import numpy as np

from . import lp
from .semigroup import check_divergence_free, duhamel_recursion, propagator
from .spectral import (Grid, SpectralField, dealias, forward_transform,
                       inverse_transform, leray)
from .trajectory import Trajectory

INF = float("inf")

# Empirical bound on the constants entering the fixed-point argument at
# desk scale: mild-norm ratios of linear trajectories (max observed 1.50
# at 32^3) and of the bilinear Duhamel term against products of factor
# norms (max observed 1.33, decreasing with rotation rate), both measured
# over seeded 40-member ensembles at p = r = 2, horizon 1.  Rounded up;
# with C = 2 the worst-case contraction factor 4 C eps at gate-passing
# data is exactly 1/2.
DEFAULT_GATE_CONSTANT = 2.0


@dataclass
class SolverConfig3D:
    grid: Grid
    omega: float = 0.0
    p: float = 2.0
    r: float = 2.0
    horizon: float = 1.0
    dt: float = 1.0 / 64.0
    max_iterations: int = 25
    tolerance: float = 1e-9
    nonlinearity: bool = True

    def __post_init__(self):
        if self.grid.dim != 3:
            raise ValueError("the 3d solver needs a 3d grid")
        if not self.p > 1:
            raise ValueError(
                f"integrability index p must lie in (1, inf], got {self.p}; "
                "the critical-space contraction argument fails at p = 1"
            )
        if not self.r >= 1:
            raise ValueError(f"summation index r must lie in [1, inf], got {self.r}")
        if not 0 < self.horizon < INF:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if not 0 < self.dt <= self.horizon:
            raise ValueError(f"need 0 < dt <= horizon, got dt={self.dt}")
        steps = self.horizon / self.dt
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("horizon must be an integer multiple of dt")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt

    @property
    def memory_bytes(self) -> int:
        """Rough peak of picard_solve: the band-packed trajectory, two shell series
        per sample, and scratch of about twelve half-spectrum vector fields."""
        samples = self.n_steps + 1
        shells = len(lp.shell_range_for(self.grid.dxi, self.grid.band_max).indices)
        return (samples * (48 * math.prod(self.grid.band_shape) + 16 * shells)
                + 12 * 48 * math.prod(self.grid.spectral_shape))


@dataclass
class GateReport:
    norm: float
    constant: float
    epsilon: float
    threshold: float
    passed: bool


@dataclass
class IterationDiagnostics:
    """History of a Picard solve.  residual_estimate is the mild norm of the
    last increment d; error_estimate is q/(1 - q) d, with q the last
    contraction ratio, the a-posteriori distance to the fixed point that
    the Banach argument gives.  It is an estimate, not a guaranteed bound,
    because q is measured rather than proven, and it is None while there is
    no ratio yet or when q >= 1 (ratios shows which)."""
    iterate_norms: list = dataclass_field(default_factory=list)
    diff_norms: list = dataclass_field(default_factory=list)
    ratios: list = dataclass_field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    aborted: bool = False
    residual_estimate: float = math.nan
    error_estimate: float | None = None
    linear_norm: float = math.nan
    gate: GateReport | None = None
    message: str = ""

    def as_dict(self) -> dict:
        return asdict(self)


def smallness_gate(u0: SpectralField, p: float, r: float,
                   constant: float | None = None) -> GateReport:
    """Advisory check that the critical norm of the data is small enough for
    the contraction argument: with empirical constant C the iteration
    contracts once eps <= 1/(8C) and ||u0|| <= eps/C, so the threshold on
    the data norm is 1/(8 C^2).  Boundary values pass (<= convention)."""
    c = DEFAULT_GATE_CONSTANT if constant is None else float(constant)
    if not c > 0:
        raise ValueError("gate constant must be positive")
    norm = lp.fb_norm_value(u0, lp.critical_index(p), p, r)
    epsilon = 1.0 / (8.0 * c)
    threshold = epsilon / c
    passed = norm <= threshold * (1.0 + 1e-12)
    return GateReport(norm=norm, constant=c, epsilon=epsilon,
                      threshold=threshold, passed=passed)


def pair_forcing(u: SpectralField, v: SpectralField) -> SpectralField:
    """P div(u (x) v) for dim-component fields on a 2d or 3d grid: component
    i is P applied to sum_j d_j (u_i v_j), computed pseudo-spectrally with
    the 2/3-band product rule, the products gathered to the band (Grid.pack)
    to form and project the divergence.  When v is u, u is transformed once
    and each symmetric product u_i u_j formed once, feeding div_i and div_j."""
    if u.grid != v.grid:
        raise ValueError("fields live on different grids")
    grid = u.grid
    if u.ncomp != grid.dim or v.ncomp != grid.dim:
        raise ValueError(f"pair forcing expects {grid.dim}-component fields "
                         f"on a {grid.dim}d grid")
    up = inverse_transform(u)
    symmetric = v is u
    vp = up if symmetric else inverse_transform(v)
    *xi, inv_xi_sq = grid.band_symbols
    div = np.zeros((grid.dim,) + xi[0].shape, dtype=np.complex128)
    for jax in range(grid.dim):
        for iax in range(jax + 1 if symmetric else grid.dim):
            prod_hat = grid.pack(forward_transform(up[iax] * vp[jax], grid).coeffs[0])
            div[iax] += 1j * xi[jax] * prod_hat
            if symmetric and iax < jax:
                div[jax] += 1j * xi[iax] * prod_hat
    del up, vp  # free the samples before projecting
    return SpectralField(grid, grid.unpack(leray(div, xi, inv_xi_sq)))


def advect_check(u: SpectralField, dt: float):
    """Warn when the velocity u moves more than one grid cell in time dt."""
    ratio = float(np.max(np.abs(inverse_transform(u)))) * dt / u.grid.dx
    if ratio > 1.0:
        warnings.warn(f"advective CFL ratio {ratio:.2f} > 1; reduce dt",
                      RuntimeWarning)


def _mild_map_sweep(buffer: np.ndarray, u0: np.ndarray, grid: Grid, prop,
                    nonlinearity: bool = True, record=None):
    """Overwrite the iterate u in buffer (samples x components x band), one
    sample at a time, with T(t) u0 - integral_0^t T(t - tau) P div(u (x) u)
    dtau, all band-packed.  Sample k of u is read for its forcing before the
    new value replaces it; record(k, new, old) sees both."""
    forcing = None
    if nonlinearity:
        def forcing(k):  # -P div(u (x) u), the forcing of the mild map
            u = SpectralField(grid, grid.unpack(buffer[k]))
            return np.negative(grid.pack(pair_forcing(u, u).coeffs))

    def write(k, new):
        if record is not None:
            record(k, new, buffer[k])
        buffer[k] = new

    duhamel_recursion(prop, u0, len(buffer) - 1, write, forcing)
    write(0, u0)


def picard_solve(u0: SpectralField, config: SolverConfig3D,
                 initial_iterate: str = "linear"):
    """Iterate the mild map to its fixed point.

    The iterate lives in one buffer on the dealiased band, which every
    Picard step overwrites in place, sample by sample, while it records the
    per-shell L^p values of the new iterate and of the increment; the
    contraction metric is computed from those, so no second trajectory is
    ever stored.  The linear trajectory T(t) u0 is measured in the same way
    and kept only as the linear starting iterate.

    Returns (Trajectory, diagnostics).  A non-finite mild norm, or a
    contraction ratio above 1 on two consecutive iterations (divergence;
    the message gives the ratio), stops the iteration with aborted=True and
    converged=False.  The ratio sequence is reported either way.
    """
    grid = config.grid
    if u0.grid != grid:
        raise ValueError("initial data grid does not match solver config")
    if u0.ncomp != 3:
        raise ValueError("initial data must have 3 components")
    if initial_iterate not in ("linear", "zero"):
        raise ValueError(f"unknown initial iterate {initial_iterate!r}")
    check_divergence_free(u0, "initial data")

    u0 = dealias(u0)
    part = lp.get_partition(grid)
    p, r, times = config.p, config.r, config.times
    diag = IterationDiagnostics()
    diag.gate = smallness_gate(u0, p, r)
    if config.nonlinearity:
        advect_check(u0, config.dt)
    prop = propagator(grid, config.dt, config.omega)
    u0 = grid.pack(u0.coeffs)

    # shell_series of each sample of the new iterate and of the increment
    series = np.zeros((2, times.size, len(part.js)))

    def record(k, new, old):
        series[0, k] = lp.shell_series(new, p, part)
        series[1, k] = lp.shell_series(new - old, p, part)

    traj = Trajectory(grid, times, np.zeros((times.size,) + u0.shape, dtype=np.complex128))
    _mild_map_sweep(traj.coeffs, u0, grid, prop, False, record)
    diag.linear_norm = lp.mild_norm(series[0], times, p, r, part)
    if not config.nonlinearity:
        traj.fb_norms = lp.fb_norm_of_series(series[0], lp.critical_index(p), r, part).tolist()
    if initial_iterate == "zero":
        series[0, 1:] = 0.0
        if config.nonlinearity:
            traj.coeffs[1:] = 0.0
    diag.iterate_norms.append(lp.mild_norm(series[0], times, p, r, part))

    if not config.nonlinearity:
        diag.converged = True
        diag.iterations = 0
        diag.residual_estimate = 0.0
        diag.message = "nonlinearity disabled; linear trajectory is exact"
        return traj, diag

    for m in range(1, config.max_iterations + 1):
        _mild_map_sweep(traj.coeffs, u0, grid, prop, record=record)
        norm, diff = (lp.mild_norm(x, times, p, r, part) for x in series)
        diag.diff_norms.append(diff)
        diag.iterate_norms.append(norm)
        if len(diag.diff_norms) >= 2 and diag.diff_norms[-2] > 0:
            diag.ratios.append(diff / diag.diff_norms[-2])
        diag.iterations = m
        diag.residual_estimate = diff
        q = diag.ratios[-1] if diag.ratios else INF
        diag.error_estimate = q / (1.0 - q) * diff if q < 1.0 else None
        if not (math.isfinite(diff) and math.isfinite(norm)):
            diag.aborted = True
            diag.message = f"non-finite mild norm at iteration {m}"
            return traj, diag
        if diff <= config.tolerance:
            diag.converged = True
            diag.message = f"contraction reached tolerance at iteration {m}"
            break
        if len(diag.ratios) >= 2 and min(diag.ratios[-2:]) > 1.0:
            diag.aborted = True
            diag.message = (f"diverging: contraction ratio {diag.ratios[-1]:.3g} "
                            f"> 1 on two consecutive iterations (iteration {m})")
            break
    else:
        diag.message = "maximum iterations reached without convergence"

    traj.fb_norms = lp.fb_norm_of_series(series[0], lp.critical_index(p), r, part).tolist()
    return traj, diag
