"""Full-layout references for the band-packed paths of fbns.

fbns stores every trajectory on the dealiased band (Grid.pack), a 3d
velocity as its helical amplitudes (Grid.helical).  The functions here
compute the same samples on the whole half spectrum, by the same
sweep_samples fed half-spectrum arrays, so that tests can compare the band
paths against an independent layout.  random_field draws a seeded field by
the formula on the full lattice that spectral.random_band reproduces on the
band alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fbns.semigroup import duhamel_recursion, propagator, sweep_samples
from fbns.solver3d import pair_forcing
from fbns.spectral import Grid, SpectralField, helmholtz_project


@dataclass
class Samples:
    """Samples u(t_k) in the half spectrum: coeffs has shape
    (n_samples, ncomp) + grid.spectral_shape, the two helical amplitudes of
    a 3d velocity."""
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
    return Samples(u0.grid, times, sweep_samples(u0.grid, times, omega, u0.grid.helical(u0.coeffs)))


def duhamel_samples(forcing: Samples, omega: float) -> Samples:
    """integral_0^t T(t - tau) g(tau) dtau at every sample time of g."""
    start = np.zeros_like(forcing.coeffs[0])
    return Samples(forcing.grid, forcing.times,
                   sweep_samples(forcing.grid, forcing.times, omega, start,
                                 forcing.coeffs))


def duhamel_bilinear(u: Samples, omega: float) -> Samples:
    """B(u, u)(t) = integral_0^t T(t - tau) P div(u (x) u)(tau) dtau."""
    grid = u.grid
    forcing = grid.unpack(np.stack([pair_forcing(grid, grid.pack(u.coeffs[k]))
                                    for k in range(u.n_samples)]))
    return duhamel_samples(Samples(grid, u.times, forcing), omega)


def picard_map(traj: Samples, u0: SpectralField, omega: float) -> Samples:
    """One application of u -> T(t) u0 - B(u, u), by the in-place band sweep
    of picard_solve on a packed copy of traj (u and u0 enter through their
    dealiased band): sample 0's forcing is read from traj before u0 replaces
    it, and every later sample's before the sweep overwrites it."""
    grid = traj.grid
    out = grid.pack(traj.coeffs)
    forcing0 = -pair_forcing(grid, out[0])
    out[0] = grid.helical(grid.pack(u0.coeffs))
    dt = float(traj.times[1] - traj.times[0])
    duhamel_recursion(propagator(grid, dt, omega), out,
                      lambda k: forcing0 if k == 0 else -pair_forcing(grid, out[k]))
    return Samples(grid, traj.times, grid.unpack(out))


def random_field(grid: Grid, seed, divfree: bool, cutoff: float | None = None,
                 amplitude: float = 1.0) -> SpectralField:
    """The seeded random field on the full lattice: raw = N1 + i N2 at every
    point, 0.5 (raw + conj(raw(-k))) in the half spectrum, times
    exp(-|xi|^2/cutoff^2), dealiased, zero mean, Leray-projected for a
    vector, scaled to l2 norm amplitude."""
    if cutoff is None:
        cutoff = 0.4 * grid.band_max
    rng = np.random.default_rng(seed)
    shape = (grid.dim if divfree else 1,) + grid.shape
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    raw = grid.half_spectrum(0.5 * (raw + np.conj(grid.reflect(raw))))
    coeffs = raw * np.exp(-grid.xi_sq / cutoff**2) * grid.dealias_mask
    coeffs[(slice(None),) + (0,) * grid.dim] = 0.0
    field = SpectralField(grid, coeffs)
    if divfree:
        field = helmholtz_project(field)
    norm = field.l2()
    return field * (amplitude / norm) if norm > 0 else field
