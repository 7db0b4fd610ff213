"""Time-sampled spectral fields stored on the dealiased band."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import Grid, SpectralField


@dataclass
class Trajectory:
    """Samples u(t_k) of a 3d velocity on the dealiased band: coeffs has shape
    (n_samples, 2) + grid.band_shape, the helical amplitudes (Grid.helical), and
    field(k) is sample k in the half spectrum.  fb_norms optionally carries a
    per-sample scalar diagnostic (the solver's critical Fourier-Besov norms).
    """

    grid: Grid
    times: np.ndarray
    coeffs: np.ndarray
    fb_norms: list | None = None

    @property
    def n_samples(self) -> int:
        return self.times.size

    def field(self, k: int) -> SpectralField:
        return SpectralField(self.grid, self.grid.unpack(self.grid.cartesian(self.coeffs[k])))
