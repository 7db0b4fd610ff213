"""2d vorticity dynamics and rotating-frame diagnostics.

In two dimensions the Coriolis term is a gradient on divergence-free
fields, so rotation drops out of the projected equations; the vorticity

    dw/dt - lap(w) + v . grad(w) = 0,   v = biot_savart(w)

is advanced pseudo-spectrally with an integrating-factor RK4 (diffusion
handled exactly).  The rotating-frame picture re-enters through the change
of variables v(t, x) = exp(-tM) u(t, exp(tM) x) with M the half-rate
rotation generator; transported solutions satisfy an advection-diffusion
equation with an extra rigid drift term, which rotating_frame_residual
checks pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lp import lebesgue, magnitude
from .solver3d import advect_check
from .spectral import (Grid, SpectralField, dealias, forward_transform,
                       gradient, helmholtz_project, inverse_transform,
                       laplacian, leray, zero_mean)

BOUNDARY_FRAC = 0.9  # of pi L: the annulus rotating_frame_residual checks
SUPPORT_TOL = 1e-4   # largest relative variation allowed in that annulus


class SupportError(ValueError):
    """The vorticity reaches the boundary annulus: a numerical failure."""


@dataclass(frozen=True)
class VorticityState:
    """Scalar vorticity with its time stamp; velocity is derived."""

    w: SpectralField
    t: float = 0.0

    def __post_init__(self):
        if not self.w.is_scalar or self.w.grid.dim != 2:
            raise ValueError("vorticity must be a scalar field on a 2d grid")

    @property
    def velocity(self) -> SpectralField:
        return biot_savart(self.w)


def biot_savart(w: SpectralField) -> SpectralField:
    """Divergence-free velocity with curl v = w:
    v_hat = (i xi_2, -i xi_1) w_hat / |xi|^2 of xi = Grid.xi_odd, zero mode dropped."""
    if not w.is_scalar or w.grid.dim != 2:
        raise ValueError("biot_savart expects a scalar field on a 2d grid")
    return SpectralField(w.grid, _rhs_symbols(w.grid)[0] * w.coeffs)


@lru_cache(maxsize=8)
def _rhs_symbols(grid: Grid) -> tuple:
    """Read-only symbols: the Biot-Savart rows (i xi_2, -i xi_1)/|xi|^2 of the
    half spectrum (xi = Grid.xi_odd); combined, 1/conj(zeta) with zeta = xi_1 +
    i xi_2, on the full band k_2 = -kcut...kcut (on both axes in Grid.band's
    order, zero mode 0); -(i/4) conj(zeta)^2 on the band; and the index of -k
    on a full band axis."""
    (xi1, xi2), inv = grid.xi_odd, grid.inv_xi_odd_sq
    rows = np.stack(np.broadcast_arrays(1j * xi2 * inv, -1j * xi1 * inv))
    xi1, xi2 = grid.band_symbols[0][:, :1], grid.band_symbols[1][:1]
    xi2 = np.concatenate([xi2, -xi2[:, :0:-1]], axis=-1)  # k_2 = 0...kcut, -kcut...-1
    zeta, sq = xi1 + 1j * xi2, xi1 ** 2 + xi2 ** 2
    sq[0, 0] = math.inf  # 1/conj(zeta) is 0 at the zero mode, as biot_savart drops it
    symbols = (rows, zeta * (1 / sq), -0.25j * np.conj(zeta[:, :grid.kcut + 1]) ** 2,
               -np.arange(xi1.size) % xi1.size)
    for arr in symbols:
        arr.setflags(write=False)
    return symbols


def frame_rotation(omega: float, t: float) -> np.ndarray:
    """exp(t M) for the half-rate rotation generator M = -(omega/2) [[0, -1],
    [1, 0]]: planar rotation by the angle -omega t / 2."""
    a = -omega * t / 2.0
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s], [s, c]])


# ---------------------------------------------------------------------------
# time stepping

def _if_rk4(w: np.ndarray, grid: Grid, dt: float, steps: int, rhs) -> np.ndarray:
    """Integrating-factor RK4 for dw/dt = lap(w) + rhs(w): diffusion
    propagated exactly, the rhs stage values taken at exponentially shifted
    states.  w and rhs(w) are (ncomp,) + the grid's band (Grid.pack)."""
    e_half = np.exp(-sum(xi * xi for xi in grid.band_symbols[:grid.dim]) * (dt / 2.0))
    e_full = e_half * e_half
    for _ in range(steps):
        k1 = rhs(w)
        k2 = rhs(e_half * (w + 0.5 * dt * k1))
        k3 = rhs(e_half * w + 0.5 * dt * k2)
        k4 = rhs(e_full * w + dt * e_half * k3)
        w = e_full * w + (dt / 6.0) * (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)
    return w


def _vorticity_rhs(grid: Grid):
    """The map w^ -> -(v . grad w)^ on the band, through the complex velocity
    z = v_1 + i v_2 of a divergence-free v: z^ = w^/conj(zeta), zeta = xi_1 + i xi_2,
    on the full band (w^(k) = conj(w^(-k)) on k_2 < 0), and z^2 = -Q + 2iP with
    P = v_1 v_2, Q = v_2^2 - v_1^2.  The trace-free form -(d_1^2 - d_2^2) P
    - d_1 d_2 Q (Basdevant 1983) is (i/4)(zeta^2 conj(Z^(-k)) - conj(zeta)^2 Z^(k))
    for Z = z^2: one pruned complex inverse (axis 0 over the band's columns, then
    axis 1 over every row) and one pruned complex forward in the reverse order, four
    Grid._pass calls in two shared work buffers, Z^ over z^: fresh ones fault per page."""
    _, inv_conj_zeta, sym, flip = _rhs_symbols(grid)
    k, n = grid.kcut, grid.n
    cols, samples = np.empty((1, n, 2 * k + 1), complex), np.empty((1, n, n), complex)

    def rhs(w_hat):
        z_hat = np.concatenate([w_hat, np.conj(w_hat[..., flip, k:0:-1])], axis=-1)
        z_hat *= inv_conj_zeta
        grid._pass(grid._pass(z_hat, -2, cols), -1, samples)
        z_hat = grid._pass(grid._pass(np.square(samples, out=samples), -1, cols), -2, z_hat)
        out = sym * z_hat[..., :k + 1]
        out += np.conj(sym * z_hat[..., flip[:, None], flip[:k + 1]])
        return out
    return rhs


def _check_step(dt: float, steps: int):
    """Both steppers' refusal of a step before any work (and before the CFL check)."""
    if not 0 < dt < math.inf or steps < 0:
        raise ValueError(f"need finite dt > 0 and steps >= 0, got dt={dt}, "
                         f"steps={steps}")


def advance_vorticity(state: VorticityState, dt: float, steps: int,
                      check_cfl: bool = True) -> VorticityState:
    """Integrating-factor RK4 of the vorticity equation on the dealiased band."""
    _check_step(dt, steps)
    grid = state.w.grid
    if check_cfl and steps > 0:
        advect_check(state.velocity, dt)
    w = _if_rk4(grid.pack(state.w.coeffs), grid, dt, steps, _vorticity_rhs(grid))
    return VorticityState(SpectralField(grid, grid.unpack(w)), state.t + steps * dt)


def run_vorticity(w0: SpectralField, dt: float, n_steps: int,
                  sample_every: int = 1):
    """Advance and record: returns (times, states) including the initial one."""
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    # record the band-limited field the dynamics actually start from
    state = VorticityState(dealias(w0), 0.0)
    times = [0.0]
    states = [state]
    done = 0
    while done < n_steps:
        chunk = min(sample_every, n_steps - done)
        state = advance_vorticity(state, dt, chunk, check_cfl=(done == 0))
        done += chunk
        times.append(done * dt)
        states.append(state)
    return np.array(times), states


def _velocity_rhs(grid: Grid, omega: float):
    """The map u^ -> -P div(u (x) u)^ - omega P(e3 x u)^ on the band for divergence-free u:
    the curl of P div(u (x) u) is u . grad w, so its first term is the Biot-Savart velocity
    (i xi_2, -i xi_1)/|xi|^2 of _vorticity_rhs at w^ = i (xi_1 u_2^ - xi_2 u_1^)."""
    xi1, xi2, inv_xi_sq = grid.band_symbols
    vorticity_rhs = _vorticity_rhs(grid)

    def rhs(u_hat):
        w_rhs = vorticity_rhs(1j * (xi1 * u_hat[1:] - xi2 * u_hat[:1]))
        out = 1j * inv_xi_sq * w_rhs * np.stack([xi2, -xi1])
        if omega != 0.0:
            out -= omega * leray(np.stack([-u_hat[1], u_hat[0]]), (xi1, xi2), inv_xi_sq)
        return out
    return rhs


def advance_velocity(u: SpectralField, dt: float, steps: int,
                     omega: float = 0.0) -> SpectralField:
    """Projected 2d momentum equation with the rotation term of rate omega
    (none at omega = 0); because the Coriolis term is a gradient on
    divergence-free fields, trajectories at any two rates agree to rounding."""
    if u.ncomp != 2 or u.grid.dim != 2:
        raise ValueError("velocity stepping expects a 2-component field on a 2d grid")
    _check_step(dt, steps)
    grid = u.grid
    band = _if_rk4(grid.pack(helmholtz_project(u).coeffs), grid, dt, steps, _velocity_rhs(grid, omega))
    return SpectralField(grid, grid.unpack(band))


def coriolis_projection_identity(u: SpectralField) -> float:
    """Relative size of P(e3 x u) = P(-u2, u1); zero for divergence-free u
    because the rotated field is modewise parallel to xi."""
    if u.ncomp != 2 or u.grid.dim != 2:
        raise ValueError("expects a 2-component field on a 2d grid")
    rotated = SpectralField(u.grid, np.stack([-u.coeffs[1], u.coeffs[0]]))
    residual = helmholtz_project(rotated)
    scale = u.l2()
    return residual.l2() / scale if scale > 0 else 0.0


# ---------------------------------------------------------------------------
# rotating frame

def _domain_center(grid: Grid) -> np.ndarray:
    return np.array([grid.box_length / 2.0, grid.box_length / 2.0])


def _lattice_points(grid: Grid) -> np.ndarray:
    x1, x2 = np.broadcast_arrays(grid.x_axis(0), grid.x_axis(1))
    return np.stack([x1.ravel(), x2.ravel()], axis=1)


def rotating_frame_transform(field: SpectralField, t: float, omega: float,
                             center=None, points: np.ndarray | None = None) -> np.ndarray:
    """Evaluate a field at the rotated points c + exp(tM)(x - c) by direct
    Fourier summation (spectrally accurate interpolation at arbitrary
    positions).

    Vector fields additionally get their components rotated by exp(-tM).
    With points=None the whole lattice is evaluated and the result has
    shape (n, n) for scalars, (2, n, n) for vectors; an explicit (m, 2)
    point array yields (m,) respectively (2, m).  Rotation is about the
    domain center by default.
    """
    grid = field.grid
    if grid.dim != 2:
        raise ValueError("rotating-frame transforms are two-dimensional")
    c = _domain_center(grid) if center is None else np.asarray(center, dtype=float)
    on_lattice = points is None
    pts = _lattice_points(grid) if on_lattice else np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must have shape (m, 2)")

    rot = frame_rotation(omega, t)
    d1 = pts[:, 0] - c[0]
    d2 = pts[:, 1] - c[1]
    y1 = c[0] + rot[0, 0] * d1 + rot[0, 1] * d2
    y2 = c[1] + rot[1, 0] * d1 + rot[1, 1] * d2

    xi1, xi2 = (grid.xi_axis(ax).ravel() for ax in (0, 1))
    # a real field is the real part of the sum over its stored modes, each
    # counted as often as it occurs in the full spectrum
    weighted = field.coeffs * grid.multiplicity
    m = pts.shape[0]
    values = np.empty((field.ncomp, m))
    # plane-wave sum in chunks of points so the phase matrices stay small
    chunk = max(256, int(2_000_000 // max(grid.n, 1)))
    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        e1 = np.exp(1j * y1[lo:hi, None] * xi1[None, :])
        e2 = np.exp(1j * y2[lo:hi, None] * xi2[None, :])
        for comp in range(field.ncomp):
            partial = e2 @ weighted[comp].T  # [point, k1] after summing k2
            values[comp, lo:hi] = np.sum(e1 * partial, axis=1).real
    if field.ncomp == 2:
        back = frame_rotation(omega, -t)  # exp(-tM)
        values = np.stack([back[0, 0] * values[0] + back[0, 1] * values[1],
                           back[1, 0] * values[0] + back[1, 1] * values[1]])
    if on_lattice:
        values = values.reshape((field.ncomp,) + grid.shape)
    return values[0] if field.ncomp == 1 else values


def rotating_frame_residual(times, w_fields, omega: float, mask_radius: float,
                            center=None) -> dict:
    """Pointwise residual of the rotating-frame vorticity equation

        dw/dt - lap(w) + v . grad(w) - (M (x - c)) . grad(w) = 0

    for transported inertial-frame solutions, evaluated on the lattice
    points inside the disk |x - c| <= mask_radius.  The time derivative
    uses central differences on the uniform sample grid; spatial terms are
    computed spectrally in the inertial frame and transported, so the only
    discretization entering the residual is the time sampling.

    Raises SupportError if the vorticity varies measurably in the outer
    annulus |x - c| >= BOUNDARY_FRAC * (pi L): a rotated torus field is only
    meaningful while its non-constant part stays clear of the boundary.
    The annulus is rotation invariant, so the check runs on the inertial
    samples directly.
    """
    times = np.asarray(times, dtype=float)
    w_fields = list(w_fields)
    if times.size != len(w_fields) or times.size < 3:
        raise ValueError("need at least three aligned samples")
    steps = np.diff(times)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
        raise ValueError("sample times must be uniform")
    h = float(steps[0])
    grid = w_fields[0].grid
    c = _domain_center(grid) if center is None else np.asarray(center, dtype=float)

    pts = _lattice_points(grid)
    d1 = pts[:, 0] - c[0]
    d2 = pts[:, 1] - c[1]
    rad_sq = d1**2 + d2**2
    inside = rad_sq <= mask_radius**2
    if not inside.any():
        raise ValueError("interior mask is empty")
    mask_pts = pts[inside]
    annulus = rad_sq >= (BOUNDARY_FRAC * math.pi * grid.period_l) ** 2

    for k in range(times.size):
        samples = inverse_transform(w_fields[k])[0].ravel()
        spread = float(np.ptp(samples[annulus]))
        scale = float(np.ptp(samples))
        if scale > 0 and spread > SUPPORT_TOL * scale:
            raise SupportError(
                "vorticity support reaches the boundary annulus "
                f"(relative variation {spread / scale:.3e} at t={times[k]:.4f})")

    # rigid drift M (x - c) with M = -(omega/2) [[0,-1],[1,0]]
    drift1 = (omega / 2.0) * d2[inside]
    drift2 = -(omega / 2.0) * d1[inside]

    w_tilde = [rotating_frame_transform(w_fields[k], float(times[k]), omega, c,
                                        points=mask_pts)
               for k in range(times.size)]
    per_time = []
    for k in range(1, times.size - 1):
        t = float(times[k])
        w_hat = w_fields[k]
        lap_t = rotating_frame_transform(laplacian(w_hat), t, omega, c,
                                         points=mask_pts)
        grad_t = rotating_frame_transform(gradient(w_hat), t, omega, c,
                                          points=mask_pts)
        v_t = rotating_frame_transform(biot_savart(w_hat), t, omega, c,
                                       points=mask_pts)
        dwdt = (w_tilde[k + 1] - w_tilde[k - 1]) / (2.0 * h)
        residual = (dwdt - lap_t
                    + v_t[0] * grad_t[0] + v_t[1] * grad_t[1]
                    - drift1 * grad_t[0] - drift2 * grad_t[1])
        per_time.append(float(np.max(np.abs(residual))))
    return {
        "max_residual": max(per_time),
        "per_time": per_time,
        "interior_times": [float(t) for t in times[1:-1]],
        "mask_points": int(inside.sum()),
    }


def gaussian_vortex(grid: Grid, width_sq: float = 0.1, center=None,
                    amplitude: float = 1.0) -> SpectralField:
    """exp(-|x - c|^2 / width_sq) with the lattice mean removed (the torus
    Biot-Savart needs zero total circulation; the constant shift does not
    change any term of the vorticity equation)."""
    if not 0 < width_sq < math.inf:
        raise ValueError(f"width_sq must be positive and finite, got {width_sq}")
    c = _domain_center(grid) if center is None else np.asarray(center, dtype=float)
    d_sq = np.sum((_lattice_points(grid) - c) ** 2, axis=1).reshape(grid.shape)
    return zero_mean(forward_transform(amplitude * np.exp(-d_sq / width_sq), grid))


# ---------------------------------------------------------------------------
# Lebesgue diagnostics

def czero_constant(p: float) -> float:
    """Gradient-from-vorticity bound p^2/(p-1), exact equality at p = 2."""
    if not 2 <= p < float("inf"):
        raise ValueError(f"the gradient bound is used for 2 <= p < inf, got {p}")
    return p * p / (p - 1.0)


def _lambert_w0(x: float) -> float:
    """The principal branch W0 on [0, inf): the w >= 0 with w e^w = x, by
    Halley's iteration on w - x e^-w (no overflow) started at log1p(x).
    Like scipy.special.lambertw, W0(inf) = inf and W0(nan) = nan."""
    if x < 0:
        raise ValueError(f"W0 is taken of x >= 0, got {x}")
    if not x < math.inf:
        return x
    w = math.log1p(x)
    for _ in range(20):  # Halley converges cubically: six steps at most on [0, float max]
        r = x * math.exp(-w)
        step = 2 * (w - r) * (1 + r) / (2 * (1 + r) ** 2 + (w - r) * r)
        w -= step
        if abs(step) <= 4e-16 * w:
            return w
    raise ArithmeticError(f"W0({x}) did not converge")


@dataclass
class GronwallRow:
    t: float
    p: float
    v_lp: float
    w_lp: float
    gradv_lp: float
    cz_margin: float
    gronwall_margin: float


def gronwall_diagnostic(times, states, p_values, t1_index: int = 0) -> dict:
    """Trajectory-wise checks of the a-priori velocity estimates.

    For each p: vorticity L^p non-growth past the reference time, the
    gradient bound ||grad v||_p <= p^2/(p-1) ||w||_p, and the minimal
    constant C for which ||v(t)||_p <= C ||v(t1)||_p exp(C (t - t1)
    ||w(t1)||_p) holds along the whole trajectory (per sample the root of
    c e^(a c) = b in closed form W0(a b)/a, reported as the max).
    """
    times = np.asarray(times, dtype=float)
    states = list(states)
    if times.size != len(states) or times.size < 2:
        raise ValueError("need at least two aligned samples")
    if not 0 <= t1_index < times.size - 1:
        raise ValueError("t1_index out of range")

    cell = states[0].w.grid.dx ** 2  # the quadrature weight of a lattice point
    # each state is transformed once, for every p
    mags = [[magnitude(inverse_transform(f)) for f in (st.velocity, st.w, gradient(st.velocity))]
            for st in states]
    rows = []
    summary = {}
    for p in p_values:
        if not p >= 1:
            raise ValueError(f"p must be >= 1, got {p}")
        v_norms, w_norms, g_norms = ([float(lebesgue(m[i], p, cell)) for m in mags]
                                     for i in range(3))
        if p == float("inf"):
            g_norms = [math.nan] * len(states)
        v1, w1 = v_norms[t1_index], w_norms[t1_index]
        t1 = times[t1_index]

        roots = []
        for k in range(t1_index, times.size):
            tau = times[k] - t1
            target = v_norms[k]
            if target <= 0 or v1 <= 0:
                continue
            a, b = tau * w1, target / v1
            roots.append(b if a == 0 else _lambert_w0(a * b) / a)
        # np.min and np.max, unlike min and max, keep a nan that a norm brings in
        c_needed = float(np.max(roots, initial=0.0))

        has_cz = p != float("inf") and p >= 2
        czc = czero_constant(p) if has_cz else math.nan
        cz = [czc * w - g for w, g in zip(w_norms, g_norms)]
        for k in range(times.size):
            tau = max(times[k] - t1, 0.0)
            try:
                growth = math.exp(c_needed * tau * w1)
            except OverflowError:  # the bound exceeds every double
                growth = math.inf
            bound = c_needed * v1 * growth if v1 > 0 else 0.0
            rows.append(GronwallRow(float(times[k]), float(p), v_norms[k],
                                    w_norms[k], g_norms[k], cz[k],
                                    bound - v_norms[k]))
        summary[p] = {
            "gronwall_constant": c_needed,
            "vorticity_margin": float(np.min(np.subtract(w1, w_norms[t1_index + 1:]))),
            "cz_margin": float(np.min(cz)) if has_cz else math.inf,
            "cz_ratio_t1": (g_norms[t1_index] / w_norms[t1_index]
                            if p != float("inf") and w_norms[t1_index] > 0 else math.nan),
        }
    return {"rows": rows, "summary": summary}
