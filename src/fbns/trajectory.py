"""Time-sampled spectral fields on a uniform grid of sample times."""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .spectral import Grid, SpectralField


@dataclass
class Trajectory:
    """Samples u(t_k) of a spectral field on uniformly spaced times.

    coeffs has shape (n_samples, ncomp) + grid.spectral_shape.  fb_norms optionally
    carries a per-sample scalar diagnostic (the solvers store the critical
    Fourier-Besov norm there).
    """

    grid: Grid
    times: np.ndarray
    coeffs: np.ndarray
    fb_norms: list | None = dataclass_field(default=None)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.times.ndim != 1 or self.times.size == 0:
            raise ValueError("times must be a non-empty 1d array")
        if self.coeffs.shape[0] != self.times.size:
            raise ValueError("sample count does not match times")
        if self.coeffs.shape[2:] != self.grid.spectral_shape:
            raise ValueError("sample shape does not match grid")
        if self.times.size > 1:
            steps = np.diff(self.times)
            if steps.min() <= 0:
                raise ValueError("times must be strictly increasing")
            if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
                raise ValueError("times must be uniformly spaced")

    @property
    def n_samples(self) -> int:
        return self.times.size

    @property
    def ncomp(self) -> int:
        return self.coeffs.shape[1]

    @property
    def dt(self) -> float:
        if self.n_samples < 2:
            raise ValueError("trajectory has a single sample, no time step")
        return float(self.times[1] - self.times[0])

    def field(self, k: int) -> SpectralField:
        return SpectralField(self.grid, self.coeffs[k])

    def difference(self, other: "Trajectory") -> "Trajectory":
        if self.grid != other.grid or not np.array_equal(self.times, other.times):
            raise ValueError("trajectories are not aligned")
        return Trajectory(self.grid, self.times, self.coeffs - other.coeffs)
