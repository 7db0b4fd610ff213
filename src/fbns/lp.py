"""Dyadic frequency decomposition, Fourier-Besov and Chemin-Lerner norms,
paraproduct splitting, and Bernstein-scaling slopes.

The dyadic partition is built from a smooth radial cutoff chi with
chi(xi) = 1 for |xi| <= 3/4 and chi(xi) = 0 for |xi| >= 4/3; the shell
function phi(xi) = chi(xi/2) - chi(xi) is supported on 3/4 <= |xi| <= 8/3
and the dilates phi_j(xi) = phi(xi / 2^j) sum to 1 away from xi = 0.

Norms use frequency-side Lebesgue quadrature on the wavenumber lattice:
||g||_{L^p} ~ (dxi)^(dim/p) (sum |g|^p)^(1/p) over the full spectrum (each
stored mode counted with its Grid.multiplicity), with the lattice max for
p = infinity.  Vector-valued spectra enter through their pointwise
Euclidean magnitude over components, which makes L^2-based quantities
agree with Plancherel and makes rotation multipliers isometries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .spectral import (Grid, SpectralField, forward_transform,
                       inverse_transform)

INF = float("inf")

SHELL_INNER = 0.75      # support of phi starts at 3/4 * 2^j
SHELL_OUTER = 8.0 / 3.0  # and ends at 8/3 * 2^j


def _bump(t: np.ndarray) -> np.ndarray:
    # exp(-1/t) for t > 0, extended by 0; smooth on the real line
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    with np.errstate(divide="ignore", over="ignore"):
        out[pos] = np.exp(-1.0 / t[pos])
    return out


def smooth_cutoff(s) -> np.ndarray:
    """chi(s): 1 for s <= 3/4, 0 for s >= 4/3, smooth monotone in between."""
    s = np.asarray(s, dtype=float)
    t = (4.0 / 3.0 - s) / (4.0 / 3.0 - 0.75)
    a = _bump(t)
    b = _bump(1.0 - t)
    out = np.empty_like(t)
    lower = t <= 0.0
    upper = t >= 1.0
    mid = ~(lower | upper)
    out[lower] = 0.0
    out[upper] = 1.0
    out[mid] = a[mid] / (a[mid] + b[mid])
    return out


def shell_profile(s, j: int) -> np.ndarray:
    """phi_j(s) = chi(s / 2^(j+1)) - chi(s / 2^j) evaluated at radii s."""
    s = np.asarray(s, dtype=float)
    return smooth_cutoff(s * 2.0 ** (-(j + 1))) - smooth_cutoff(s * 2.0 ** (-j))


@dataclass(frozen=True)
class ShellRange:
    """Dyadic indices whose shells meet the resolved band [xi_min, xi_max].

    partial lists the shells whose support sticks out of the band on either
    side; their lattice quadrature is truncated.
    """

    j_min: int
    j_max: int
    partial: tuple = ()

    @property
    def indices(self) -> range:
        return range(self.j_min, self.j_max + 1)

    def __contains__(self, j) -> bool:
        return self.j_min <= j <= self.j_max


def shell_range_for(xi_min: float, xi_max: float) -> ShellRange:
    if not (0 < xi_min <= xi_max):
        raise ValueError("need 0 < xi_min <= xi_max")
    j_min = math.ceil(math.log2(xi_min * 3.0 / 8.0))
    j_max = math.floor(math.log2(xi_max * 4.0 / 3.0))
    partial = tuple(
        j for j in range(j_min, j_max + 1)
        if SHELL_INNER * 2.0 ** j < xi_min or SHELL_OUTER * 2.0 ** j > xi_max
    )
    return ShellRange(j_min, j_max, partial)


class DyadicPartition:
    """Shell multipliers of a grid, cached as half-spectrum arrays, and their
    sparse support in each coefficient layout (Grid.layout), built when
    that layout is first measured."""

    def __init__(self, grid: Grid):
        self.grid = grid
        self.shell_range = shell_range_for(grid.dxi, grid.band_max)
        self.masks = np.stack([shell_profile(grid.xi_abs, j) for j in self.js])
        self._supports = {}

    def support(self, coeffs: np.ndarray) -> SimpleNamespace:
        """The shell support in the layout of coeffs, grouped by shell: by
        almost-orthogonality every lattice point lies in at most two shells,
        so all shells of a sample reduce in one pass.  Each stored mode is
        listed once, its power weighted by its Grid.multiplicity."""
        layout = self.grid.layout(coeffs)
        if layout not in self._supports:
            flat = self.grid.gather(self.masks, layout).reshape(len(self.masks), -1)
            rows, index = np.nonzero(flat)
            counts = np.bincount(rows, minlength=len(flat))
            sizes = counts[counts > 0]
            self._supports[layout] = SimpleNamespace(
                size=flat.shape[1], index=index, weights=flat[rows, index],
                filled=counts > 0, sizes=sizes, offsets=np.cumsum(sizes) - sizes,
                multiplicity=self.grid.gather(self.grid.multiplicity, layout).ravel()[index])
        return self._supports[layout]

    @property
    def js(self) -> list:
        return list(self.shell_range.indices)

    def _offset(self, j: int) -> int:
        return j - self.shell_range.j_min

    def shell_mask(self, j: int) -> np.ndarray:
        if j not in self.shell_range:
            return np.zeros(self.grid.spectral_shape)
        return self.masks[self._offset(j)]

    def unity_defect(self) -> float:
        """max |sum_j phi_j - 1| over the dealiased band, excluding xi = 0."""
        defect = np.abs(self.grid.pack(self.masks.sum(axis=0)) - 1.0)
        return float(np.max(defect.ravel()[1:]))  # the band's first mode is xi = 0


@lru_cache(maxsize=32)
def get_partition(grid: Grid) -> DyadicPartition:
    return DyadicPartition(grid)


def dyadic_block(field: SpectralField, j: int) -> SpectralField:
    """Frequency localization to shell j; zero field if j is out of range."""
    return SpectralField(field.grid, field.coeffs * get_partition(field.grid).shell_mask(j))


# ---------------------------------------------------------------------------
# norms

def _validate_lebesgue(name: str, value: float):
    if not value >= 1.0:
        raise ValueError(f"{name} must satisfy {name} >= 1.0, got {value}")


def _magnitude(coeffs: np.ndarray, axis: int = 0) -> np.ndarray:
    # pointwise Euclidean norm over the component axis
    return np.sqrt(np.sum(np.abs(coeffs) ** 2, axis=axis))


def lebesgue(values: np.ndarray, p: float, weight=1.0, axis=None) -> np.ndarray:
    """(sum weight values^p)^(1/p) of non-negative values along axis (over
    all of them by default), their max for p = inf.  Each slice is divided
    by its max before powering, as LAPACK xNRM2 does, so large p neither
    underflows nor overflows."""
    top = np.max(values, axis=axis, keepdims=True, initial=0.0)
    if p == INF:
        return np.squeeze(top, axis)
    scale = np.where(top > 0.0, top, 1.0)
    total = np.sum(weight * (values / scale) ** p, axis=axis, keepdims=True)
    return np.squeeze(scale * total ** (1.0 / p), axis)


def shell_series(coeffs: np.ndarray, p: float,
                 partition: DyadicPartition) -> np.ndarray:
    """Frequency L^p norms ||phi_j f_hat||_{L^p} of every shell j, the
    values every other norm of this module is built from.

    coeffs has shape lead + (ncomp,) + grid.spectral_shape, or the band
    shape (Grid.layout); the result has shape lead + (shells,).
    One pass reduces every field of the stack: the magnitudes on the shell
    support are gathered into a (support, fields) array whose shells are
    reduced down axis 0.  Each shell is divided by its largest value before
    powering, as LAPACK xNRM2 does, so large finite p neither underflows nor
    overflows.
    """
    _validate_lebesgue("p", p)
    grid = partition.grid
    sup = partition.support(coeffs)
    lead = coeffs.shape[:coeffs.ndim - grid.dim - 1]
    mag = _magnitude(coeffs, -grid.dim - 1).reshape(-1, sup.size)
    vals = mag.T[sup.index]
    vals *= sup.weights[:, None]
    norms = np.maximum.reduceat(vals, sup.offsets)
    if p != INF:
        scale = np.where(norms > 0.0, norms, 1.0)
        vals /= np.repeat(scale, sup.sizes, axis=0)
        vals **= p
        vals *= sup.multiplicity[:, None]
        sums = np.add.reduceat(vals, sup.offsets)
        norms = grid.dxi ** (grid.dim / p) * scale * sums ** (1.0 / p)
    out = np.zeros(lead + (len(partition.js),))
    out[..., sup.filled] = norms.T.reshape(lead + (-1,))
    return out


@dataclass
class NormReport:
    """Per-shell breakdown of a Fourier-Besov type norm."""

    params: dict
    shells: list
    total: float
    truncation_flags: list

    def as_dict(self) -> dict:
        return {
            "params": self.params,
            "shells": [[int(j), float(v)] for j, v in self.shells],
            "total": float(self.total),
            "truncation_flags": [int(j) for j in self.truncation_flags],
        }


def fb_norm_of_series(series: np.ndarray, s: float, r: float,
                      partition: DyadicPartition) -> np.ndarray:
    """Fourier-Besov norms from shell_series values (shells on the last axis)."""
    return lebesgue(series * 2.0 ** (s * np.array(partition.js)), r, axis=-1)


def fb_norm(field: SpectralField, s: float, p: float, r: float) -> NormReport:
    """Fourier-Besov norm: l^r over shells of 2^(j s) ||phi_j f_hat||_{L^p}."""
    _validate_lebesgue("r", r)
    if not math.isfinite(s):
        raise ValueError(f"regularity s must be finite, got {s}")
    part = get_partition(field.grid)
    values = shell_series(field.coeffs, p, part) * 2.0 ** (s * np.array(part.js))
    return NormReport({"s": s, "p": p, "r": r}, list(zip(part.js, values.tolist())),
                      float(lebesgue(values, r, axis=-1)),
                      list(part.shell_range.partial))


def fb_norm_value(field: SpectralField, s: float, p: float, r: float) -> float:
    return fb_norm(field, s, p, r).total


def chemin_lerner_norm(series: np.ndarray, times, s: float, r: float, q: float,
                       partition: DyadicPartition) -> float:
    """Time-inside-shell norm from the shell_series of every sample
    (samples x shells): l^r over shells of
    2^(j s) || ||phi_j u_hat(t)||_{L^p} ||_{L^q([0, T])}.

    q = inf takes the max over samples; finite q uses composite trapezoid
    quadrature on the uniform sample grid.
    """
    _validate_lebesgue("r", r)
    _validate_lebesgue("q", q)
    if q == INF:
        values = np.max(series, axis=0)
    elif len(times) < 2:
        raise ValueError("time quadrature needs at least two samples")
    else:
        half = 0.5 * np.diff(times)  # composite trapezoid weights
        weight = np.append(half, 0.0) + np.append(0.0, half)
        values = lebesgue(series, q, weight[:, None], axis=0)
    return float(fb_norm_of_series(values, s, r, partition))


def critical_index(p: float) -> float:
    """Scaling-critical regularity 2 - 3/p of the 3d problem."""
    return 2.0 - 3.0 / p


def mild_norm(series: np.ndarray, times, p: float, r: float,
              partition: DyadicPartition) -> float:
    """Contraction metric of the small-data solver, from the L^p shell_series
    of every sample: the sup-in-time critical norm plus the time-integrated
    smoothing norm (regularity gain 2)."""
    s = critical_index(p)
    return (chemin_lerner_norm(series, times, s, r, INF, partition)
            + chemin_lerner_norm(series, times, s + 2.0, r, 1.0, partition))


# ---------------------------------------------------------------------------
# rescaling

def dyadic_rescale(field: SpectralField, lam: float) -> SpectralField:
    """Critical rescale g_hat(xi) = lam^(-2) f_hat(xi / lam).

    The rescaled field lives on the torus with period L / lam: the same
    coefficient array is reinterpreted on the dilated frequency lattice,
    which is exactly the continuum change of variables restricted to
    lattice points (the quadrature weight follows the new dxi).
    """
    if not lam > 0:
        raise ValueError("rescale factor must be positive")
    grid = field.grid
    new_grid = Grid(grid.dim, grid.n, grid.period_l / lam)
    return SpectralField(new_grid, field.coeffs * lam ** (-2.0))


# ---------------------------------------------------------------------------
# paraproduct

def bony_decompose(u: SpectralField, v: SpectralField, j: int):
    """Split the shell-j localization of a pointwise product u v into
    (low u)(high v), (low v)(high u) and the diagonal remainder.

    Pairs (a, b) of shell indices are grouped disjointly: term one takes
    a <= b - 2, term two b <= a - 2, and the remainder |a - b| <= 1 with
    the width-one fattened block on the second factor.  Because the
    grouping is a complete disjoint partition of the double shell sum, the
    three terms reconstruct the shell-j part of the product exactly (to
    rounding), whether or not the product aliases on the lattice.
    """
    if u.grid != v.grid:
        raise ValueError("fields live on different grids")
    if not (u.is_scalar and v.is_scalar):
        raise ValueError("paraproduct split expects scalar fields; apply componentwise")
    grid = u.grid
    js = get_partition(grid).js

    u_blocks = np.stack([inverse_transform(dyadic_block(u, k))[0] for k in js])
    v_blocks = np.stack([inverse_transform(dyadic_block(v, k))[0] for k in js])
    u_low = np.cumsum(u_blocks, axis=0)  # low-pass partial sums, shell by shell
    v_low = np.cumsum(v_blocks, axis=0)

    prod_one, prod_two, prod_rem = np.zeros((3,) + grid.shape)
    for i in range(len(js)):  # shell js[i]
        if i >= 2:
            prod_one += u_low[i - 2] * v_blocks[i]
            prod_two += v_low[i - 2] * u_blocks[i]
        prod_rem += u_blocks[i] * v_blocks[max(i - 1, 0):i + 2].sum(axis=0)

    def localize(phys):
        return dyadic_block(forward_transform(phys, grid), j)

    return localize(prod_one), localize(prod_two), localize(prod_rem)


def shell_product(u: SpectralField, v: SpectralField, j: int) -> SpectralField:
    """Shell-j localization of the plain pointwise product, for comparing
    against the paraproduct split."""
    phys = inverse_transform(u)[0] * inverse_transform(v)[0]
    return dyadic_block(forward_transform(phys, u.grid), j)


# ---------------------------------------------------------------------------
# Bernstein inequalities

def bernstein_slope(gamma, p: float, q: float, js, dim: int = 3,
                    dxi: float = 1.0) -> dict:
    """Least-squares slope of log2 of the normalized derivative norm
    ||xi^gamma phi_j||_{L^q} / ||phi_j||_{L^p} against the shell index.

    The shell profiles are evaluated on a dedicated frequency lattice with
    spacing dxi, large enough to hold the top shell; norms are accumulated
    slab by slab so the lattice is never materialized whole.
    """
    gamma = tuple(int(g) for g in gamma)
    if len(gamma) != dim:
        raise ValueError("gamma length must match dim")
    js = sorted(int(j) for j in js)
    extent = SHELL_OUTER * 2.0 ** js[-1]
    kmax = int(math.ceil(extent / dxi)) + 1
    axis = np.arange(-kmax, kmax + 1) * dxi

    # the lattice minus its first axis, and the monomial over it
    rest = np.meshgrid(*([axis] * (dim - 1)), indexing="ij", sparse=True)
    rest_sq = sum(x ** 2 for x in rest)
    rest_mono = 1.0
    for x, g in zip(rest, gamma[1:]):
        rest_mono = rest_mono * np.abs(x) ** g

    logs = []
    for j in js:
        lhs = rhs = 0.0  # max for an infinite exponent, else sum of powers
        for x1 in axis:
            prof = shell_profile(np.sqrt(x1 ** 2 + rest_sq), j)
            weighted = np.abs(x1) ** gamma[0] * rest_mono * prof
            lhs = (max(lhs, float(np.max(weighted))) if q == INF
                   else lhs + float(np.sum(weighted ** q)))
            rhs = (max(rhs, float(np.max(prof))) if p == INF
                   else rhs + float(np.sum(prof ** p)))
        lhs = lhs if q == INF else dxi ** (dim / q) * lhs ** (1.0 / q)
        rhs = rhs if p == INF else dxi ** (dim / p) * rhs ** (1.0 / p)
        logs.append(math.log2(lhs / rhs))

    slope = float(np.polyfit(js, logs, 1)[0])
    target = sum(gamma) + dim * (1.0 / q - 1.0 / p)
    return {"slope": slope, "target": target, "js": js, "log2_values": logs}
