"""Full-layout references for the band-packed paths of fbns.

fbns stores every trajectory on the dealiased band (Grid.pack).  The
functions here compute the same samples on the whole half spectrum, by the
same sweep_samples fed half-spectrum arrays, so that tests can compare the
band paths against an independent layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fbns.semigroup import propagator, sweep_samples
from fbns.solver3d import _mild_map_sweep, pair_forcing
from fbns.spectral import Grid, SpectralField


@dataclass
class Samples:
    """Samples u(t_k) in the half spectrum: coeffs has shape
    (n_samples, ncomp) + grid.spectral_shape."""
    grid: Grid
    times: np.ndarray
    coeffs: np.ndarray

    @property
    def n_samples(self) -> int:
        return len(self.times)

    def field(self, k: int) -> SpectralField:
        return SpectralField(self.grid, self.coeffs[k])

    def __sub__(self, other: "Samples") -> "Samples":
        return Samples(self.grid, self.times, self.coeffs - other.coeffs)


def unpacked(traj) -> Samples:
    """The samples of a band-packed fbns.trajectory.Trajectory."""
    return Samples(traj.grid, traj.times, traj.grid.unpack(traj.coeffs))


def linear_samples(u0: SpectralField, times, omega: float) -> Samples:
    """T(t_k) u0 at uniform sample times starting at t_0 = 0."""
    times = np.asarray(times, dtype=float)
    return Samples(u0.grid, times, sweep_samples(u0.grid, times, omega, u0.coeffs))


def duhamel_samples(forcing: Samples, omega: float) -> Samples:
    """integral_0^t T(t - tau) g(tau) dtau at every sample time of g."""
    start = np.zeros_like(forcing.coeffs[0])
    return Samples(forcing.grid, forcing.times,
                   sweep_samples(forcing.grid, forcing.times, omega, start,
                                 forcing.coeffs))


def duhamel_bilinear(u: Samples, v: Samples, omega: float) -> Samples:
    """B(u, v)(t) = integral_0^t T(t - tau) P div(u (x) v)(tau) dtau."""
    forcing = np.stack([pair_forcing(u.field(k), v.field(k)).coeffs
                        for k in range(u.n_samples)])
    return duhamel_samples(Samples(u.grid, u.times, forcing), omega)


def picard_map(traj: Samples, u0: SpectralField, omega: float) -> Samples:
    """One application of u -> T(t) u0 - B(u, u), by the in-place band sweep
    of picard_solve on a packed copy of traj (u and u0 enter through their
    dealiased band)."""
    grid = traj.grid
    out = grid.pack(traj.coeffs)
    dt = float(traj.times[1] - traj.times[0])
    _mild_map_sweep(out, grid.pack(u0.coeffs), grid, propagator(grid, dt, omega))
    return Samples(grid, traj.times, grid.unpack(out))
