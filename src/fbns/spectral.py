"""Periodic spectral fields and Fourier-symbol operators.

Fields live on a uniform lattice over the torus [0, 2*pi*L)^dim and are
real.  They are stored as complex coefficients c_k of the expansion

    f(x) = sum_k c_k exp(i k.x / L),

with integer wavevectors k in FFT order.  The continuous wavenumber of
index k is xi = k / L, so the frequency lattice has spacing 1/L per axis.
As c_{-k} = conj(c_k), only the half spectrum of real transforms is stored
(the scipy.fft.rfftn layout, last axis k = 0 ... n/2) or only its dealiased
band (Grid.pack); Grid alone knows both, and reads an array's from its shape.

The torus with large period stands in for the whole space: norms carry the
frequency quadrature weight (1/L)^(dim/p) so that lattice sums approximate
integrals over R^dim, and refining 1/L tightens the approximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice on [0, 2*pi*period_l)^dim.

    n must be even (FFT layout with an explicit Nyquist index, which is
    excluded from the dealiased band).  The dealiased band keeps integer
    wavenumbers with |k_i| <= kcut = (n-1)//3 on every axis; with that cutoff
    triple products of band-limited fields are alias-free on the lattice.
    """

    dim: int
    n: int
    period_l: float = 4.0

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"n must be even and >= 8, got {self.n}")
        if not 0 < self.period_l < np.inf:
            raise ValueError(f"period_l must be positive and finite, got {self.period_l}")

    @property
    def shape(self) -> tuple:
        """The physical lattice."""
        return (self.n,) * self.dim

    @property
    def spectral_shape(self) -> tuple:
        """The stored half spectrum: last-axis wavenumbers 0 ... n/2 only."""
        return (self.n,) * (self.dim - 1) + (self.n // 2 + 1,)

    @property
    def dxi(self) -> float:
        """Frequency lattice spacing 1/L."""
        return 1.0 / self.period_l

    @property
    def box_length(self) -> float:
        return TWO_PI * self.period_l

    @property
    def dx(self) -> float:
        return self.box_length / self.n

    @property
    def kcut(self) -> int:
        return (self.n - 1) // 3

    def _along(self, axis: int, values: np.ndarray) -> np.ndarray:
        # a 1d array shaped for broadcasting along one axis
        shape = [1] * self.dim
        shape[axis] = values.size
        return values.reshape(shape)

    def xi_axis(self, axis: int) -> np.ndarray:
        """Stored wavenumbers k / L of one axis, shaped for broadcasting: k in
        FFT order 0, 1, ..., n/2-1, -n/2, ..., -1, or 0, ..., n/2 on the last."""
        last = axis % self.dim == self.dim - 1
        k = np.arange(self.n // 2 + 1) if last else np.fft.fftfreq(self.n, 1.0 / self.n)
        return self._along(axis, k * self.dxi)

    @cached_property
    def multiplicity(self) -> np.ndarray:
        """How often each stored mode occurs in the full spectrum, the weight
        of every lattice sum: once on the last-axis k = 0 and n/2 planes,
        twice (c_k and c_(-k)) elsewhere.  Broadcasts against spectral_shape."""
        weight = np.full(self.n // 2 + 1, 2.0)
        weight[[0, -1]] = 1
        return self._along(self.dim - 1, weight)

    @cached_property
    def xi_sq(self) -> np.ndarray:
        out = np.zeros(self.spectral_shape)
        for ax in range(self.dim):
            out = out + self.xi_axis(ax) ** 2
        return out

    @cached_property
    def xi_abs(self) -> np.ndarray:
        return np.sqrt(self.xi_sq)

    @cached_property
    def inv_xi_sq(self) -> np.ndarray:
        """1/|xi|^2 with the zero mode mapped to 0 (zero-mean convention)."""
        safe = self.xi_sq.copy()
        safe[(0,) * self.dim] = 1.0
        out = 1.0 / safe
        out[(0,) * self.dim] = 0.0
        return out

    @cached_property
    def band(self) -> tuple:
        """Index of the dealiased band in (...,) + spectral_shape arrays, in
        storage order: k = 0 ... kcut, -kcut ... -1 on full axes, 0 ... kcut last."""
        full = np.r_[0:self.kcut + 1, self.n - self.kcut:self.n]
        return (Ellipsis,) + np.ix_(*[full] * (self.dim - 1)) + (slice(self.kcut + 1),)

    @property
    def band_shape(self) -> tuple:
        """The band-packed layout (pack): 2 kcut + 1 wavenumbers per full axis."""
        return (2 * self.kcut + 1,) * (self.dim - 1) + (self.kcut + 1,)

    def layout(self, coeffs: np.ndarray) -> str:
        """'half' or 'band', as coeffs ends in spectral_shape or band_shape;
        any other shape is refused."""
        for name, shape in (("half", self.spectral_shape), ("band", self.band_shape)):
            if coeffs.shape[-self.dim:] == shape:
                return name
        raise ValueError(f"coefficient shape {coeffs.shape} is in neither layout: "
                         f"half spectrum {self.spectral_shape} or band {self.band_shape}")

    def gather(self, arr: np.ndarray, layout: str) -> np.ndarray:
        """A stored array, or a symbol broadcasting against one, as a new
        C-contiguous array in the layout, whatever the leading axes."""
        full = np.broadcast_to(arr, np.broadcast_shapes(arr.shape, self.spectral_shape))
        return np.ascontiguousarray(full[self.band]) if layout == "band" else full.copy()

    def pack(self, arr: np.ndarray) -> np.ndarray:
        """The band of a stored array or symbol (gather to 'band')."""
        return self.gather(arr, "band")

    @cached_property
    def band_symbols(self) -> tuple:
        """xi_1, ..., xi_dim and 1/|xi|^2, each gathered to the band (pack)."""
        return tuple(self.pack(s) for s in (*map(self.xi_axis, range(self.dim)), self.inv_xi_sq))

    def unpack(self, coeffs: np.ndarray) -> np.ndarray:
        """Band-packed coefficients in the half spectrum, zero outside the band."""
        out = np.zeros(coeffs.shape[:-self.dim] + self.spectral_shape, dtype=np.complex128)
        out[self.band] = coeffs
        return out

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        mask = np.zeros(self.spectral_shape, dtype=bool)
        mask[self.band] = True
        return mask

    @cached_property
    def band_max(self) -> float:
        """Largest |xi| inside the dealiased band."""
        return float(np.sqrt(self.dim) * self.kcut * self.dxi)

    def x_axis(self, axis: int) -> np.ndarray:
        return self._along(axis, np.arange(self.n) * self.dx)

    def reflect(self, coeffs: np.ndarray) -> np.ndarray:
        """c_(-k) for full-spectrum coefficients of shape (...,) + shape."""
        index = (-np.arange(self.n)) % self.n
        for ax in range(-self.dim, 0):
            coeffs = np.take(coeffs, index, axis=ax)
        return coeffs

    def half_spectrum(self, full: np.ndarray) -> np.ndarray:
        """The stored part of a full spectrum of shape (...,) + shape."""
        return full[..., :self.n // 2 + 1]

    def full_spectrum(self, coeffs: np.ndarray) -> np.ndarray:
        """The full spectrum of stored coefficients, the modes that are not
        stored filled in by exact conjugate reflection c_(-k) = conj(c_k)."""
        full = np.zeros(coeffs.shape[:-1] + (self.n,), dtype=np.complex128)
        stored = coeffs.shape[-1]
        full[..., :stored] = coeffs
        full[..., stored:] = np.conj(self.reflect(full)[..., stored:])
        return full


@dataclass(frozen=True)
class SpectralField:
    """Fourier coefficients of a (possibly vector-valued) field.

    coeffs has shape (ncomp,) + grid.spectral_shape, complex128.  Scalars
    use ncomp = 1.  Instances are treated as immutable; operators return new
    fields.
    """

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        c = self.coeffs
        if c.shape == self.grid.spectral_shape:
            # accept a bare lattice array for scalars
            c = c[np.newaxis]
        if c.ndim != self.grid.dim + 1 or c.shape[1:] != self.grid.spectral_shape:
            raise ValueError(f"coefficient shape {self.coeffs.shape} does not match "
                             f"grid spectrum {self.grid.spectral_shape}")
        if c.dtype != np.complex128:
            c = c.astype(np.complex128)
        object.__setattr__(self, "coeffs", c)

    @property
    def ncomp(self) -> int:
        return self.coeffs.shape[0]

    @property
    def is_scalar(self) -> bool:
        return self.ncomp == 1

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())

    def l2(self) -> float:
        """Full-spectrum 2-norm (physical L2 up to the fixed volume factor)."""
        c = self.coeffs
        return float(np.sqrt(np.sum(self.grid.multiplicity * (c.real ** 2 + c.imag ** 2))))

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_same_layout(self, other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _check_same_layout(self, other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, alpha) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * alpha)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.grid, -self.coeffs)


def _check_same_layout(a: SpectralField, b: SpectralField):
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")
    if a.ncomp != b.ncomp:
        raise ValueError(f"component mismatch: {a.ncomp} vs {b.ncomp}")


def zeros(grid: Grid, ncomp: int = 1) -> SpectralField:
    return SpectralField(grid, np.zeros((ncomp,) + grid.spectral_shape, dtype=np.complex128))


def forward_transform(samples: np.ndarray, grid: Grid) -> SpectralField:
    """Real physical samples -> coefficients.  A mode cos(k.x/L) maps to
    the coefficient 1/2 at the stored one of the indices k and -k (both
    when k_last = 0)."""
    arr = np.asarray(samples)
    if arr.shape == grid.shape:
        arr = arr[np.newaxis]
    if arr.shape[1:] != grid.shape:
        raise ValueError(f"sample shape {samples.shape} does not match grid {grid.shape}")
    axes = tuple(range(1, grid.dim + 1))
    coeffs = scipy.fft.rfftn(arr, axes=axes, norm="forward")
    return SpectralField(grid, coeffs)


def inverse_transform(field: SpectralField) -> np.ndarray:
    """Coefficients -> real physical samples, exact inverse of
    forward_transform."""
    grid = field.grid
    axes = tuple(range(1, grid.dim + 1))
    return scipy.fft.irfftn(field.coeffs, s=grid.shape, axes=axes, norm="forward")


def dealias(field: SpectralField) -> SpectralField:
    return SpectralField(field.grid, field.coeffs * field.grid.dealias_mask)


def zero_mean(field: SpectralField) -> SpectralField:
    c = field.coeffs.copy()
    c[(slice(None),) + (0,) * field.grid.dim] = 0.0
    return SpectralField(field.grid, c)


# ---------------------------------------------------------------------------
# differential operators (exact Fourier symbols)

def derivative(field: SpectralField, axis: int) -> SpectralField:
    if not 0 <= axis < field.grid.dim:
        raise ValueError(f"axis {axis} out of range for dim {field.grid.dim}")
    return SpectralField(field.grid, 1j * field.grid.xi_axis(axis) * field.coeffs)


def gradient(field: SpectralField) -> SpectralField:
    """Every first derivative d_j f_i, axis by axis: d_1 f, ..., d_dim f for
    a scalar f."""
    grid = field.grid
    return SpectralField(grid, np.concatenate([1j * grid.xi_axis(ax) * field.coeffs
                                               for ax in range(grid.dim)]))


def divergence(field: SpectralField) -> SpectralField:
    grid = field.grid
    if field.ncomp != grid.dim:
        raise ValueError(f"divergence expects {grid.dim} components, got {field.ncomp}")
    out = np.zeros(grid.spectral_shape, dtype=np.complex128)
    for ax in range(grid.dim):
        out += 1j * grid.xi_axis(ax) * field.coeffs[ax]
    return SpectralField(grid, out[np.newaxis])


def curl(field: SpectralField) -> SpectralField:
    """3d vector -> 3d vector; 2d vector -> scalar rotation d1 f2 - d2 f1."""
    grid = field.grid
    if field.ncomp != grid.dim:
        raise ValueError(f"curl expects {grid.dim} components, got {field.ncomp}")
    c = field.coeffs
    if grid.dim == 2:
        xi1, xi2 = grid.xi_axis(0), grid.xi_axis(1)
        rot = 1j * xi1 * c[1] - 1j * xi2 * c[0]
        return SpectralField(grid, rot[np.newaxis])
    xi = [grid.xi_axis(ax) for ax in range(3)]
    out = np.stack([
        1j * xi[1] * c[2] - 1j * xi[2] * c[1],
        1j * xi[2] * c[0] - 1j * xi[0] * c[2],
        1j * xi[0] * c[1] - 1j * xi[1] * c[0],
    ])
    return SpectralField(grid, out)


def laplacian(field: SpectralField) -> SpectralField:
    return SpectralField(field.grid, -field.grid.xi_sq * field.coeffs)


def divergence_defect(field: SpectralField) -> float:
    """max |xi . f_hat| / max |f_hat|, zero for divergence-free fields."""
    scale = np.max(np.abs(field.coeffs))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(divergence(field).coeffs)) / scale)


def helmholtz_project(field: SpectralField) -> SpectralField:
    """Leray projection onto divergence-free fields: symbol
    delta_ij - xi_i xi_j / |xi|^2, with the xi = 0 mode set to zero."""
    grid = field.grid
    if field.ncomp != grid.dim:
        raise ValueError(f"projection expects {grid.dim} components, got {field.ncomp}")
    xi = [grid.xi_axis(ax) for ax in range(grid.dim)]
    return SpectralField(grid, leray(field.coeffs, xi, grid.inv_xi_sq))


def leray(coeffs: np.ndarray, xi: list, inv_xi_sq: np.ndarray) -> np.ndarray:
    """helmholtz_project of coefficients laid out like the symbols, stored or packed."""
    dot = sum(x * c for x, c in zip(xi, coeffs)) * inv_xi_sq
    out = np.empty_like(coeffs)  # one buffer, written component by component
    for ax, x in enumerate(xi):
        np.subtract(coeffs[ax], np.multiply(x, dot, out=out[ax]), out=out[ax])
    out[(slice(None),) + (0,) * len(xi)] = 0.0
    return out


def coriolis_matrix(xi) -> np.ndarray:
    """Skew matrix R(xi) with R(xi) a = (a x xi)/|xi|.

    Rows: [0, xi3, -xi2; -xi3, 0, xi1; xi2, -xi1, 0] / |xi|.  On the plane
    orthogonal to xi it is a rotation by a quarter turn (R^2 = -Id there).
    """
    v = np.asarray(xi, dtype=float)
    if v.shape != (3,):
        raise ValueError("coriolis_matrix expects a single 3-vector")
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ValueError("coriolis_matrix is undefined at xi = 0")
    x1, x2, x3 = v / norm
    return np.array([
        [0.0, x3, -x2],
        [-x3, 0.0, x1],
        [x2, -x1, 0.0],
    ])


# ---------------------------------------------------------------------------
# random fields

def _random_coeffs(grid: Grid, seed, ncomp: int, cutoff: float | None) -> np.ndarray:
    if cutoff is None:
        cutoff = 0.4 * grid.band_max
    rng = np.random.default_rng(seed)
    shape = (ncomp,) + grid.shape
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # drawn on the full lattice, so a seed gives the same field as ever
    raw = grid.half_spectrum(0.5 * (raw + np.conj(grid.reflect(raw))))
    coeffs = raw * np.exp(-grid.xi_sq / cutoff**2) * grid.dealias_mask
    coeffs[(slice(None),) + (0,) * grid.dim] = 0.0
    return coeffs


def random_scalar_field(grid: Grid, seed, cutoff: float | None = None,
                        amplitude: float = 1.0) -> SpectralField:
    """Zero-mean real random scalar with a smooth decaying spectrum,
    bit-reproducible for a given seed."""
    field = SpectralField(grid, _random_coeffs(grid, seed, 1, cutoff))
    norm = field.l2()
    if norm > 0:
        field = field * (amplitude / norm)
    return field


def random_divfree_field(grid: Grid, seed, cutoff: float | None = None,
                         amplitude: float = 1.0) -> SpectralField:
    """Zero-mean real divergence-free random vector field (dim components),
    bit-reproducible for a given seed."""
    coeffs = _random_coeffs(grid, seed, grid.dim, cutoff)
    field = helmholtz_project(SpectralField(grid, coeffs))
    norm = field.l2()
    if norm > 0:
        field = field * (amplitude / norm)
    return field


def taylor_green_2d(grid: Grid, amplitude: float = 1.0) -> SpectralField:
    """Velocity (cos x1 sin x2, -sin x1 cos x2); needs integer period_l so
    the unit wavenumber sits on the lattice."""
    if grid.dim != 2:
        raise ValueError("taylor_green_2d expects a 2d grid")
    x1, x2 = grid.x_axis(0), grid.x_axis(1)
    u1 = amplitude * np.cos(x1) * np.sin(x2)
    u2 = -amplitude * np.sin(x1) * np.cos(x2)
    return forward_transform(np.stack([np.broadcast_to(u1, grid.shape),
                                       np.broadcast_to(u2, grid.shape)]), grid)


def taylor_green_3d(grid: Grid, amplitude: float = 1.0) -> SpectralField:
    """The 2d Taylor-Green cell embedded in 3d with zero third component."""
    if grid.dim != 3:
        raise ValueError("taylor_green_3d expects a 3d grid")
    x1, x2 = grid.x_axis(0), grid.x_axis(1)
    u1 = amplitude * np.cos(x1) * np.sin(x2)
    u2 = -amplitude * np.sin(x1) * np.cos(x2)
    zero = np.zeros(grid.shape)
    return forward_transform(np.stack([np.broadcast_to(u1, grid.shape),
                                       np.broadcast_to(u2, grid.shape), zero]), grid)
