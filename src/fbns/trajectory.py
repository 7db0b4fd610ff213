"""Time-sampled spectral fields stored on the dealiased band."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import Grid, SpectralField


@dataclass
class Trajectory:
    """Samples u(t_k) of a field on the dealiased band: coeffs has shape
    (n_samples, ncomp) + grid.band_shape, and field(k) scatters sample k
    into the half spectrum.  fb_norms optionally carries a per-sample scalar
    diagnostic (the solver stores the critical Fourier-Besov norm there).
    """

    grid: Grid
    times: np.ndarray
    coeffs: np.ndarray
    fb_norms: list | None = None

    @property
    def n_samples(self) -> int:
        return self.times.size

    def field(self, k: int) -> SpectralField:
        return SpectralField(self.grid, self.grid.unpack(self.coeffs[k]))
