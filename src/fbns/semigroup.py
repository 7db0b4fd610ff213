"""Heat semigroup twisted by rotation: the solution operator of the
linearized rotating Stokes problem, and its Duhamel integrals.

Per wavevector the multiplier acts on divergence-free amplitudes as

    m(xi, t) a = exp(-|xi|^2 t) [cos(theta) a + sin(theta) R(xi) a],
    theta = Omega (xi_3 / |xi|) t,

where R(xi) a = (a x xi)/|xi| rotates the plane orthogonal to xi by a
quarter turn.  On that plane R^2 = -Id, so m is a damped rotation and the
composition law m(t) m(s) = m(t + s) holds exactly for divergence-free
input.  The xi = 0 amplitude is mapped to zero (zero-mean convention).
"""

from __future__ import annotations

import math
from functools import lru_cache, partial

import numpy as np

from .spectral import Grid, SpectralField, divergence_defect

DIVFREE_TOL = 1e-10


class Propagator:
    """The semigroup over one time step dt on a 3d grid, with the per-mode
    arrays of the multiplier m(dt) and of the local Duhamel integral
    C + iS = integral_0^dt exp(-z s) ds, z = |xi|^2 - i rho,
    rho = Omega xi_3/|xi|.  Each is held as the arrays (a, b u_1, b u_2,
    b u_3) of f -> a f + b R(xi) f with u = xi/|xi|, all zero at xi = 0,
    built in a layout (Grid.layout) when coefficients in it are first stepped.
    """

    def __init__(self, grid: Grid, dt: float, omega: float):
        if grid.dim != 3:
            raise ValueError("the rotating semigroup is three-dimensional")
        for name, value in (("dt", dt), ("omega", omega)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        self.grid, self.dt, self.omega = grid, float(dt), float(omega)
        self._layouts = {}  # layout -> (multiplier, local)

    def _arrays(self, coeffs: np.ndarray) -> tuple:
        layout = self.grid.layout(coeffs)
        if layout not in self._layouts:
            gather, origin = partial(self.grid.gather, layout=layout), (0,) * 3
            safe = gather(self.grid.xi_abs)
            safe[origin] = 1.0
            unit = [gather(self.grid.xi_axis(ax)) / safe for ax in range(3)]
            z = gather(self.grid.xi_sq) - 1j * self.omega * unit[2]
            decay = np.exp(-z * self.dt)  # exp(-|xi|^2 dt) (cos + i sin)(rho dt)
            z[origin] = 1.0

            def arrays(c):  # those of f -> Re(c) f + Im(c) R(xi) f
                c[origin] = 0.0
                return c.real.copy(), [c.imag * u for u in unit]

            local = arrays((1.0 - decay) / z)
            self._layouts[layout] = arrays(decay), local
        return self._layouts[layout]

    @staticmethod
    def _rotate(coeffs: np.ndarray, arrays: tuple) -> np.ndarray:
        # component i of a f + b (f x u) is a f_i + b u_k f_j - b u_j f_k
        a, bu = arrays
        out = np.empty_like(coeffs)
        tmp = np.empty_like(coeffs[0])
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            np.multiply(coeffs[i], a, out=out[i])
            np.multiply(coeffs[j], bu[k], out=tmp)
            out[i] += tmp
            np.multiply(coeffs[k], bu[j], out=tmp)
            out[i] -= tmp
        return out

    def apply(self, coeffs: np.ndarray) -> np.ndarray:
        """m(dt) f for coefficients of shape (3,) + either layout of the grid."""
        return self._rotate(coeffs, self._arrays(coeffs)[0])

    def step(self, y: np.ndarray, g_lo: np.ndarray, g_hi: np.ndarray) -> np.ndarray:
        """One interval of the Duhamel recursion y(t + dt) = m(dt) y(t) +
        integral_0^dt m(s) g(t + dt - s) ds from g_lo = g(t), g_hi = g(t + dt).

        The exponential-midpoint rule: the multiplier is integrated exactly
        against the nodal average (g_lo + g_hi)/2 of the forcing.  It is
        second order in dt, and its steps compose exactly across intervals
        through the semigroup law m(t) m(s) = m(t + s)."""
        out = self.apply(y)
        out += self._rotate(0.5 * (g_lo + g_hi), self._arrays(y)[1])
        return out


@lru_cache(maxsize=8)
def propagator(grid: Grid, dt: float, omega: float) -> Propagator:
    return Propagator(grid, dt, omega)


def duhamel_recursion(prop: Propagator, start: np.ndarray, n_steps: int, emit,
                      forcing=None):
    """y_(k+1) = prop.step(y_k, forcing(k), forcing(k + 1)) from y_0 = start,
    or y_(k+1) = m(dt) y_k without forcing; emit(k + 1, y_(k+1)) gets each
    value (and must not modify it) after forcing(k + 1) has been read."""
    y = start
    g_lo = None if forcing is None else forcing(0)
    for k in range(n_steps):
        if forcing is None:
            y = prop.apply(y)
        else:
            g_hi = forcing(k + 1)
            y = prop.step(y, g_lo, g_hi)
            g_lo = g_hi
        emit(k + 1, y)


def sweep_samples(grid: Grid, times, omega: float, start: np.ndarray,
                  forcing: np.ndarray | None = None) -> np.ndarray:
    """duhamel_recursion over uniform sample times from start: T(t_k - t_0)
    start, plus the Duhamel integrals of the forcing samples when given, all
    in the layout of start (Grid.layout)."""
    out = np.empty((len(times),) + start.shape, dtype=np.complex128)
    out[0] = start
    if len(times) > 1:
        dt = float(times[1] - times[0])
        duhamel_recursion(propagator(grid, dt, omega), out[0], len(times) - 1, out.__setitem__,
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
    silently projected; symbol-level experiments on arbitrary fields call
    propagator(grid, t, omega).apply(coeffs) directly.
    """
    if not 0 <= t < math.inf:
        raise ValueError(f"time must be non-negative and finite, got {t}")
    if field.ncomp != 3 or field.grid.dim != 3:
        raise ValueError("semigroup expects a 3-component field on a 3d grid")
    check_divergence_free(field, "input")
    return SpectralField(field.grid, propagator(field.grid, t, omega).apply(field.coeffs))
