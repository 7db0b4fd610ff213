"""Heat semigroup twisted by rotation: the solution operator of the
linearized rotating Stokes problem, and its Duhamel integrals.

Per wavevector the multiplier acts on divergence-free amplitudes as

    m(xi, t) a = exp(-|xi|^2 t) [cos(theta) a + sin(theta) R(xi) a],
    theta = Omega (xi_3 / |xi|) t,

where R(xi) a = (a x xi)/|xi| rotates the plane orthogonal to xi by a
quarter turn with eigenvectors h+- and eigenvalues +-i (Grid.helical).  On
the amplitudes a+- every propagated state is held as, m is diagonal, exp(-z t)
and its conjugate for z = |xi|^2 - i Omega xi_3/|xi|, and m(t) m(s) = m(t + s)
holds exactly.  The xi = 0 amplitude is mapped to zero (zero-mean convention).
"""

from __future__ import annotations

import math
from functools import lru_cache, partial

import numpy as np

from .spectral import Grid, SpectralField, divergence_defect

DIVFREE_TOL = 1e-10


class Propagator:
    """The semigroup over one time step dt on a 3d grid, acting on helical
    amplitudes (2,) + either layout (Grid.layout): per mode the multiplier
    [exp(-z dt), conj] and half the local Duhamel integral, [(1 - exp(-z dt))/z,
    conj], both zero at xi = 0, built in a layout when it is first stepped.
    """

    def __init__(self, grid: Grid, dt: float, omega: float):
        if grid.dim != 3:
            raise ValueError("the rotating semigroup is three-dimensional")
        for name, value in (("dt", dt), ("omega", omega)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        self.grid, self.dt, self.omega = grid, float(dt), float(omega)
        self._layouts = {}  # layout -> (multiplier, local)

    def _arrays(self, coeffs: np.ndarray) -> list:
        layout = self.grid.layout(coeffs)
        if layout not in self._layouts:
            gather, origin = partial(self.grid.gather, layout=layout), (0,) * 3
            safe = gather(self.grid.xi_abs)
            safe[origin] = 1.0
            z = gather(self.grid.xi_sq) - 1j * self.omega * (gather(self.grid.xi_odd[2]) / safe)
            decay = np.exp(-z * self.dt)  # exp(-|xi|^2 dt) (cos + i sin)(rho dt)
            z[origin] = 1.0
            local = 0.5 * (1.0 - decay) / z  # with the 1/2 of the nodal average
            decay[origin] = local[origin] = 0.0
            self._layouts[layout] = [np.stack([c, c.conj()]) for c in (decay, local)]
        return self._layouts[layout]

    def apply(self, coeffs: np.ndarray) -> np.ndarray:
        """m(dt) a for helical amplitudes (2,) + either layout of the grid."""
        return coeffs * self._arrays(coeffs)[0]

    def step(self, y: np.ndarray, g_lo: np.ndarray, g_hi: np.ndarray) -> np.ndarray:
        """One interval of the Duhamel recursion y(t + dt) = m(dt) y(t) +
        integral_0^dt m(s) g(t + dt - s) ds from g_lo = g(t), g_hi = g(t + dt).

        The exponential-midpoint rule: the multiplier is integrated exactly
        against the nodal average (g_lo + g_hi)/2 of the forcing.  It is
        second order in dt, and its steps compose exactly across intervals
        through the semigroup law m(t) m(s) = m(t + s)."""
        decay, local = self._arrays(y)
        return y * decay + (g_lo + g_hi) * local


@lru_cache(maxsize=8)
def propagator(grid: Grid, dt: float, omega: float) -> Propagator:
    return Propagator(grid, dt, omega)


def duhamel_recursion(prop: Propagator, out: np.ndarray, forcing=None, record=None):
    """Overwrite out[1:] from out[0] by out[k] = prop.step(out[k - 1], forcing(k - 1),
    forcing(k)), or m(dt) out[k - 1] without forcing.  forcing(k) is read before out[k]
    is overwritten; record(k, new, old) sees each new value and the one it replaces."""
    g_lo = None if forcing is None else forcing(0)
    for k in range(1, len(out)):
        if forcing is None:
            new = prop.apply(out[k - 1])
        else:
            g_hi = forcing(k)
            new = prop.step(out[k - 1], g_lo, g_hi)
            g_lo = g_hi
        if record is not None:
            record(k, new, out[k])
        out[k] = new


def sweep_samples(grid: Grid, times, omega: float, start: np.ndarray,
                  forcing: np.ndarray | None = None) -> np.ndarray:
    """duhamel_recursion over uniform sample times from the helical amplitudes
    start: T(t_k - t_0) start, plus the Duhamel integrals of the forcing
    samples when given, all in the layout of start (Grid.layout)."""
    out = np.empty((len(times),) + start.shape, dtype=np.complex128)
    out[0] = start
    if len(times) > 1:
        dt = float(times[1] - times[0])
        duhamel_recursion(propagator(grid, dt, omega), out,
                          None if forcing is None else forcing.__getitem__)
    return out


def check_divergence_free(field: SpectralField, what: str):
    """Reject a field that is measurably not divergence-free."""
    defect = divergence_defect(field)
    if defect > DIVFREE_TOL:
        raise ValueError(f"{what} is not divergence-free "
                         f"(defect {defect:.3e} > {DIVFREE_TOL:g})")


def apply_semigroup(field: SpectralField, t: float, omega: float) -> SpectralField:
    """Propagate a divergence-free field by time t.

    Input that is measurably not divergence-free is rejected rather than
    silently projected; the helical amplitudes drop what is left of its part
    along xi.  T(0) returns the field bit for bit but for the modes every
    t > 0 drops, where Grid.xi_odd is 0: the mean and the n/2 corners.
    """
    if not 0 <= t < math.inf:
        raise ValueError(f"time must be non-negative and finite, got {t}")
    if field.ncomp != 3 or field.grid.dim != 3:
        raise ValueError("semigroup expects a 3-component field on a 3d grid")
    check_divergence_free(field, "input")
    if t == 0:
        return SpectralField(field.grid, np.where(field.grid.inv_xi_odd_sq != 0.0, field.coeffs, 0.0))
    grid, prop = field.grid, propagator(field.grid, t, omega)
    return SpectralField(grid, grid.cartesian(prop.apply(grid.helical(field.coeffs))))
