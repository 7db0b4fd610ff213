"""Periodic spectral fields and Fourier-symbol operators.

Fields live on a uniform lattice over the torus [0, 2*pi*L)^dim and are
real.  They are stored as complex coefficients c_k of the expansion

    f(x) = sum_k c_k exp(i k.x / L),

with integer wavevectors k in FFT order.  The continuous wavenumber of
index k is xi = k / L, so the frequency lattice has spacing 1/L per axis.
As c_{-k} = conj(c_k), only the half spectrum of real transforms is stored
(the numpy.fft.rfftn layout, last axis k = 0 ... n/2) or only its dealiased
band (Grid.pack); Grid alone knows both, and reads an array's from its shape.
numpy.fft is called in this module only: every complex pass of a band
transform is one Grid._pass, and the half spectrum takes rfftn/irfftn.

The torus with large period stands in for the whole space: norms carry the
frequency quadrature weight (1/L)^(dim/p) so that lattice sums approximate
integrals over R^dim, and refining 1/L tightens the approximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

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
        with np.errstate(over="ignore", under="ignore"):  # the band's top symbol, the weights
            scales = np.array([self.band_max, self.dxi, self.dx]) ** [2, self.dim, self.dim]
        if not (np.isfinite(scales).all() and scales.all()):
            raise ValueError(f"period_l={self.period_l} puts the band's symbols or weights out of range")

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
        k = np.arange(self.n // 2 + 1) if last else np.r_[:self.n // 2, -(self.n // 2):0]
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
    def xi_odd(self) -> tuple:
        """xi_axis of every axis as an odd symbol: 0 at the n/2 index, whose one
        stored row stands for both k and -k, so odd symbols keep real fields real."""
        xi = tuple(map(self.xi_axis, range(self.dim)))
        for x in xi:
            x.flat[self.n // 2] = 0.0
        return xi

    @cached_property
    def inv_xi_odd_sq(self) -> np.ndarray:
        """1/|xi_odd|^2, mapped to 0 where xi_odd = 0 (zero-mean convention)."""
        sq = sum(x * x for x in self.xi_odd)
        return np.divide(1.0, sq, out=np.zeros_like(sq), where=sq != 0)

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
        """xi_odd and inv_xi_odd_sq, each gathered to the band (pack)."""
        return tuple(self.pack(s) for s in (*self.xi_odd, self.inv_xi_odd_sq))

    @lru_cache(maxsize=16)
    def _frame(self, layout: str) -> tuple:
        """i e1/sqrt 2 (e1_3 = 0 is left out) and e2/sqrt 2 of the helical frame
        in a layout, of xi = xi_odd as the Leray projection reads it: e1 =
        (xi_2, -xi_1, 0)/|(xi_1, xi_2)|, or e_x on the xi_3 axis, and e2 = xi/|xi|
        x e1; all zero where xi_odd = 0, at xi = 0 and on the n/2 corners."""
        k1, k2, k3 = (self.gather(x, layout) for x in self.xi_odd)
        flat, norm = np.hypot(k1, k2), np.sqrt(k1 * k1 + k2 * k2 + k3 * k3)
        e1 = np.stack([np.where(flat == 0.0, 1.0, k2), -k1]) / np.where(flat == 0.0, 1.0, flat)
        zero = norm == 0.0
        e1[:, zero], norm[zero] = 0.0, 1.0
        u1, u2, u3 = k1 / norm, k2 / norm, k3 / norm
        e2 = np.stack([-u3 * e1[1], u3 * e1[0], u1 * e1[1] - u2 * e1[0]])
        return (1j * np.sqrt(0.5)) * e1, (np.sqrt(0.5) + 0j) * e2

    def helical(self, u: np.ndarray) -> np.ndarray:
        """The amplitudes a+- = conj(h+-) . u, h+- = (e2 -+ i e1)/sqrt 2 (_frame),
        (2,) + layout, of 3d coefficients (3,) + either layout: R h+- = +-i h+-
        for R(xi) a = (a x xi)/|xi|, and any part of u along xi is dropped."""
        ie1, e2 = self._frame(self.layout(u))
        p = e2[0] * u[0] + e2[1] * u[1] + e2[2] * u[2]
        q = ie1[0] * u[0] + ie1[1] * u[1]
        return np.stack([p + q, p - q])

    def cartesian(self, a: np.ndarray) -> np.ndarray:
        """The divergence-free h+ a+ + h- a-, (3,) + layout, of helical
        amplitudes (2,) + either layout: the inverse of helical."""
        ie1, e2 = self._frame(self.layout(a))
        s, d = a[0] + a[1], a[0] - a[1]
        return np.stack([e2[0] * s - ie1[0] * d, e2[1] * s - ie1[1] * d, e2[2] * s])

    def unpack(self, coeffs: np.ndarray) -> np.ndarray:
        """Band-packed coefficients in the half spectrum, zero outside the band."""
        out = np.zeros(coeffs.shape[:-self.dim] + self.spectral_shape, dtype=np.complex128)
        out[self.band] = coeffs
        return out

    @cached_property
    def _rows(self) -> dict:
        """Index tuples of the band's rows of each axis read as a full axis: 0...kcut
        and -kcut...-1, then the rows between them (the real last axis keeps the first)."""
        k = self.kcut
        return {axis: tuple((Ellipsis, r) + (slice(None),) * (-1 - axis)
                            for r in (slice(k + 1), slice(-k, None), slice(k + 1, -k)))
                for axis in range(-self.dim, 0)}

    def _outermost(self, shape: tuple, axis: int, dtype=np.complex128) -> np.ndarray:
        """An empty array of this shape stored with `axis` outermost of the grid
        axes.  numpy.fft builds its plan afresh for every run of lines it
        cannot merge, so a pass along a middle axis pays once per outer index;
        along this axis it pays once per leading index."""
        stored = list(shape)
        stored[axis], stored[-self.dim] = stored[-self.dim], stored[axis]
        return np.empty(stored, dtype).swapaxes(axis, -self.dim)

    def _pass(self, coeffs: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
        """One pruned complex 1d pass along a full axis into out, its direction read
        from coeffs: the inverse of the band's rows, spread over out's n rows with
        zeros between, or the forward of all n rows in place, of which out keeps the band's."""
        low, high, gap = self._rows[axis]
        if coeffs.shape[axis] < self.n:
            out[low], out[high], out[gap] = coeffs[low], coeffs[high], 0
            return np.fft.ifft(out, axis=axis, norm="forward", out=out)
        np.fft.fft(coeffs, axis=axis, norm="forward", out=coeffs)
        out[low], out[high] = coeffs[low], coeffs[high]
        return out

    def _to_samples(self, coeffs: np.ndarray) -> np.ndarray:
        """Real samples of coefficients in either layout, any leading axes: irfftn
        of the half spectrum, or the pruned FFT of the band, one 1d pass per axis
        in irfftn's order fed only the band's rows, equal to irfftn of unpack.
        Samples of the band are stored as the last complex pass left them
        (Grid._outermost): in 3d the first two grid axes are swapped in memory."""
        if self.layout(coeffs) == "half":
            return np.fft.irfftn(coeffs, s=self.shape, axes=range(-self.dim, 0), norm="forward")
        for axis in range(-self.dim, -1):
            full = self._outermost(coeffs.shape[:axis] + (self.n,) + coeffs.shape[axis + 1:], axis)
            coeffs = self._pass(coeffs, axis, full)
        out = self._outermost(coeffs.shape[:-1] + (self.n,), -2, np.float64)
        return np.fft.irfft(coeffs, n=self.n, axis=-1, norm="forward", out=out)

    def _to_band(self, samples: np.ndarray) -> np.ndarray:
        """The band of real samples, C-contiguous, by the pruned FFT: keeping
        only the band's rows after each pass is the dealiasing.  One 1d pass
        per axis in rfftn's order, innermost full axis first, so equal to pack
        of rfftn; each complex pass runs in place on a copy stored with its
        axis outermost (Grid._outermost)."""
        shape = samples.shape[:-1] + (self.n // 2 + 1,)  # rfft's output, stored as the samples
        coeffs = np.fft.rfft(samples, axis=-1, norm="forward", out=np.empty_like(samples, np.complex128, shape=shape))
        full = self._outermost(shape[:-1] + (self.kcut + 1,), -2)
        full[...] = coeffs[self._rows[-1][0]]
        for axis in range(-2, -self.dim - 1, -1):
            shape = full.shape[:axis] + (2 * self.kcut + 1,) + full.shape[axis + 1:]
            full = self._pass(full, axis, np.empty(shape, np.complex128))
        return full

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        return self.unpack(np.ones(self.band_shape)) != 0

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


def _check_same_layout(a: SpectralField, b: SpectralField):
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")
    if a.ncomp != b.ncomp:
        raise ValueError(f"component mismatch: {a.ncomp} vs {b.ncomp}")


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
    coeffs = np.fft.rfftn(arr, axes=axes, norm="forward")
    return SpectralField(grid, coeffs)


def inverse_transform(field: SpectralField) -> np.ndarray:
    """Coefficients -> real physical samples, exact inverse of
    forward_transform."""
    return field.grid._to_samples(field.coeffs)


def dealias(field: SpectralField) -> SpectralField:
    return SpectralField(field.grid, field.coeffs * field.grid.dealias_mask)


def zero_mean(field: SpectralField) -> SpectralField:
    c = field.coeffs.copy()
    c[(slice(None),) + (0,) * field.grid.dim] = 0.0
    return SpectralField(field.grid, c)


# ---------------------------------------------------------------------------
# differential operators (exact Fourier symbols)

def gradient(field: SpectralField) -> SpectralField:
    """Every first derivative d_j f_i, axis by axis: d_1 f, ..., d_dim f for
    a scalar f."""
    grid = field.grid
    return SpectralField(grid, np.concatenate([1j * xi * field.coeffs for xi in grid.xi_odd]))


def divergence(field: SpectralField) -> SpectralField:
    grid = field.grid
    if field.ncomp != grid.dim:
        raise ValueError(f"divergence expects {grid.dim} components, got {field.ncomp}")
    out = np.zeros(grid.spectral_shape, dtype=np.complex128)
    for xi, c in zip(grid.xi_odd, field.coeffs):
        out += 1j * xi * c
    return SpectralField(grid, out[np.newaxis])


def curl(field: SpectralField) -> SpectralField:
    """2d vector -> scalar rotation d1 f2 - d2 f1."""
    grid = field.grid
    if grid.dim != 2 or field.ncomp != 2:
        raise ValueError("curl expects a 2-component field on a 2d grid")
    c = field.coeffs
    rot = 1j * grid.xi_odd[0] * c[1] - 1j * grid.xi_odd[1] * c[0]
    return SpectralField(grid, rot[np.newaxis])


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
    delta_ij - xi_i xi_j / |xi|^2 of xi = Grid.xi_odd, with the xi = 0 mode set to zero."""
    grid = field.grid
    if field.ncomp != grid.dim:
        raise ValueError(f"projection expects {grid.dim} components, got {field.ncomp}")
    return SpectralField(grid, leray(field.coeffs, grid.xi_odd, grid.inv_xi_odd_sq))


def leray(coeffs: np.ndarray, xi: list, inv_xi_sq: np.ndarray) -> np.ndarray:
    """helmholtz_project of coefficients laid out like the symbols, stored or packed."""
    dot = sum(x * c for x, c in zip(xi, coeffs)) * inv_xi_sq
    out = np.empty_like(coeffs)  # one buffer, written component by component
    for ax, x in enumerate(xi):
        np.subtract(coeffs[ax], np.multiply(x, dot, out=out[ax]), out=out[ax])
    out[(slice(None),) + (0,) * len(xi)] = 0.0
    return out


# ---------------------------------------------------------------------------
# random fields

@lru_cache(maxsize=16)
def _band_draw(grid: Grid, cutoff: float) -> tuple:
    """Flat lattice indices of the band's modes k and of -k, stacked, and the
    envelope exp(-|xi|^2/cutoff^2), each band-packed."""
    flat = np.arange(grid.n ** grid.dim).reshape(grid.shape)
    pair = np.stack([grid.pack(grid.half_spectrum(k)) for k in (flat, grid.reflect(flat))])
    return pair, grid.pack(np.exp(-grid.xi_sq / cutoff**2))


def random_band(grid: Grid, seed, divfree: bool = False, cutoff: float | None = None,
                amplitude: float = 1.0) -> np.ndarray:
    """A zero-mean real random scalar, or divergence-free field of dim components,
    band-packed, with a smooth decaying spectrum and l2 norm amplitude.  A seed
    gives the same field as ever: the normal draws fill the full lattice, of
    which only the band's k and -k are read, as 0.5 (raw(k) + conj(raw(-k)))."""
    pair, envelope = _band_draw(grid, 0.4 * grid.band_max if cutoff is None else cutoff)
    rng, shape = np.random.default_rng(seed), (grid.dim if divfree else 1, grid.n ** grid.dim)
    re, im = (rng.standard_normal(shape).take(pair, 1) for _ in range(2))  # at k and -k
    coeffs = 0.5 * (re[:, 0] + re[:, 1] + 1j * (im[:, 0] - im[:, 1])) * envelope
    coeffs[(slice(None),) + (0,) * grid.dim] = 0.0
    if divfree:
        coeffs = leray(coeffs, grid.band_symbols[:-1], grid.band_symbols[-1])
    norm = SpectralField(grid, grid.unpack(coeffs)).l2()
    return coeffs * (amplitude / norm) if norm > 0 else coeffs


def random_scalar_field(grid: Grid, seed, cutoff: float | None = None,
                        amplitude: float = 1.0) -> SpectralField:
    """random_band of a scalar, in the half spectrum."""
    return SpectralField(grid, grid.unpack(random_band(grid, seed, False, cutoff, amplitude)))


def random_divfree_field(grid: Grid, seed, cutoff: float | None = None,
                         amplitude: float = 1.0) -> SpectralField:
    """random_band of a divergence-free vector, in the half spectrum."""
    return SpectralField(grid, grid.unpack(random_band(grid, seed, True, cutoff, amplitude)))


def taylor_green_2d(grid: Grid, amplitude: float = 1.0) -> SpectralField:
    """Velocity (cos x1 sin x2, -sin x1 cos x2); needs integer period_l so
    the unit wavenumber sits on the lattice."""
    if grid.dim != 2:
        raise ValueError("taylor_green_2d expects a 2d grid")
    return _taylor_green(grid, amplitude)


def taylor_green_3d(grid: Grid, amplitude: float = 1.0) -> SpectralField:
    """The 2d Taylor-Green cell embedded in 3d with zero third component."""
    if grid.dim != 3:
        raise ValueError("taylor_green_3d expects a 3d grid")
    return _taylor_green(grid, amplitude)


def _taylor_green(grid: Grid, amplitude: float) -> SpectralField:
    if not float(grid.period_l).is_integer():
        raise ValueError(f"the Taylor-Green cell needs an integer period_l, got {grid.period_l}")
    x1, x2 = grid.x_axis(0), grid.x_axis(1)
    cell = [amplitude * np.cos(x1) * np.sin(x2), -amplitude * np.sin(x1) * np.cos(x2)]
    cell += [np.zeros(grid.shape)] * (grid.dim - 2)
    return forward_transform(np.stack([np.broadcast_to(u, grid.shape) for u in cell]), grid)
