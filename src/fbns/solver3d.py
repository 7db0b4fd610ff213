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
from .spectral import Grid, SpectralField, dealias, inverse_transform
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
        """Rough peak of picard_solve: the band-packed helical trajectory, two shell
        series per sample, and twelve real sample arrays of scratch: pair_forcing's
        velocity, products and transform buffers peak near ten."""
        samples = self.n_steps + 1
        shells = len(lp.shell_range_for(self.grid.dxi, self.grid.band_max).indices)
        return (samples * (32 * math.prod(self.grid.band_shape) + 16 * shells)
                + 12 * 8 * math.prod(self.grid.shape))


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


def smallness_gate(u0: SpectralField, p: float, r: float) -> GateReport:
    """Advisory check that the critical norm of the data is small enough for
    the contraction argument: with the empirical constant C =
    DEFAULT_GATE_CONSTANT the iteration contracts once eps <= 1/(8C) and
    ||u0|| <= eps/C, so the threshold on the data norm is 1/(8 C^2).
    Boundary values pass (<= convention)."""
    c = DEFAULT_GATE_CONSTANT
    norm = lp.fb_norm_value(u0, lp.critical_index(p), p, r)
    epsilon = 1.0 / (8.0 * c)
    threshold = epsilon / c
    passed = norm <= threshold * (1.0 + 1e-12)
    return GateReport(norm=norm, constant=c, epsilon=epsilon,
                      threshold=threshold, passed=passed)


def pair_forcing(grid: Grid, a: np.ndarray) -> np.ndarray:
    """The helical amplitudes (Grid.helical, which projects) of P div(u (x) u) on
    the band (Grid.pack), for u held as its amplitudes a: P of sum_j d_j (u_i u_j),
    each product taken pseudo-spectrally straight to the band (Grid._to_band, the
    2/3 rule).  u is transformed once and each product u_i u_j formed once."""
    if len(a) != 2:
        raise ValueError(f"pair forcing takes 2 helical amplitudes, got {len(a)} components")
    up = grid._to_samples(grid.cartesian(a))
    xi = grid.band_symbols[:3]
    div = np.zeros((3,) + xi[0].shape, dtype=np.complex128)
    for jax in range(3):
        for iax in range(jax + 1):
            prod_hat = grid._to_band(up[iax] * up[jax])
            div[iax] += 1j * xi[jax] * prod_hat
            if iax < jax:
                div[jax] += 1j * xi[iax] * prod_hat
    del up  # free the samples before projecting
    return grid.helical(div)


def advect_check(u: SpectralField, dt: float):
    """Warn when the velocity u moves more than one grid cell in time dt."""
    ratio = float(np.max(np.abs(inverse_transform(u)))) * dt / u.grid.dx
    if ratio > 1.0:
        warnings.warn(f"advective CFL ratio {ratio:.3g} > 1; reduce dt",
                      RuntimeWarning)


def picard_solve(u0: SpectralField, config: SolverConfig3D):
    """Iterate the mild map to its fixed point.

    The iterate lives in one buffer of helical amplitudes on the band, which every
    Picard step overwrites in place, sample by sample, while it records the
    per-shell L^p values of the new iterate and of the increment; the
    contraction metric is computed from those, so no second trajectory is
    ever stored.  The linear trajectory T(t) u0, measured in the same way,
    is the starting iterate.

    Returns (Trajectory, diagnostics).  A non-finite mild norm, or a
    contraction ratio above 1 on two consecutive iterations (divergence;
    the message gives the ratio), stops the iteration with aborted=True and
    converged=False; an increment below eps times the iterate's mild norm stops
    it as stalled at rounding level.  The ratio sequence is reported either way.
    """
    grid = config.grid
    if u0.grid != grid:
        raise ValueError("initial data grid does not match solver config")
    if u0.ncomp != 3:
        raise ValueError("initial data must have 3 components")
    check_divergence_free(u0, "initial data")

    u0 = dealias(u0)
    part = lp.get_partition(grid)
    p, r, times = config.p, config.r, config.times
    diag = IterationDiagnostics()
    diag.gate = smallness_gate(u0, p, r)
    if config.nonlinearity:
        advect_check(u0, config.dt)
    prop = propagator(grid, config.dt, config.omega)
    u0 = grid.helical(grid.pack(u0.coeffs))

    # shell_series of each sample of the new iterate and of the increment
    series = np.zeros((2, times.size, len(part.js)))

    def record(k, new, old):
        series[0, k] = lp.shell_series(new, p, part)
        if diag.iterate_norms:  # nothing reads the linear sweep's increment
            series[1, k] = lp.shell_series(new - old, p, part)

    traj = Trajectory(grid, times, np.zeros((times.size,) + u0.shape, dtype=np.complex128))
    traj.coeffs[0] = u0  # sample 0 of every iterate, so it is measured once
    series[0, 0] = lp.shell_series(u0, p, part)
    duhamel_recursion(prop, traj.coeffs, record=record)
    diag.linear_norm = lp.mild_norm(series[0], times, p, r, part)
    diag.iterate_norms.append(diag.linear_norm)

    if not config.nonlinearity:
        traj.fb_norms = lp.fb_norm_of_series(series[0], lp.critical_index(p), r, part).tolist()
        diag.converged = True
        diag.residual_estimate = 0.0
        diag.message = "nonlinearity disabled; linear trajectory is exact"
        return traj, diag

    forcing0 = np.negative(pair_forcing(grid, traj.coeffs[0]))

    def forcing(k):  # -P div(u (x) u) of the iterate, whose sample 0 is always u0
        return forcing0 if k == 0 else np.negative(pair_forcing(grid, traj.coeffs[k]))

    for m in range(1, config.max_iterations + 1):
        duhamel_recursion(prop, traj.coeffs, forcing, record)
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
        if diff <= max(config.tolerance, np.finfo(float).eps * norm):
            diag.converged = diff <= config.tolerance
            diag.message = (f"contraction reached tolerance at iteration {m}" if diag.converged else
                            f"stalled at rounding level: increment {diff:.3g} < eps x iterate norm "
                            f"{norm:.3g}, so tolerance {config.tolerance:.3g} cannot be reached (iteration {m})")
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
