"""Periodic 1-D nuclear grid, scaled Fourier analysis, and wavefunction containers.

Operators act on value vectors sampled on a periodic grid, as dense
matrices or matrix-free (`propagation` states which).  Inner products
carry the quadrature weight dx, so ``norm(w) = sqrt(sum |w|^2 dx)``.

Momentum convention: the lattice is ``k_j = 2*pi*j/L`` in standard FFT
ordering ``{0, 1, ..., n/2-1, -n/2, ..., -1}`` (times ``2*pi/L``), plane
waves are ``exp(+i*k*X)``, and the momentum operator is ``eps*(-i d/dX)``
with eigenvalue ``eps*k`` on ``exp(+i*k*X)``.

A Fourier multiplier F^dag diag(s) F commutes with translations, so its
dense matrix is the circulant of ifft(s) (`fourier_multiplier_matrix`):
one FFT and an O(n^2) index gather c[(i - j) mod n], no dense DFT product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "Grid1D",
    "NuclearWave",
    "MolecularWave",
    "make_grid",
    "norm",
    "l2_norm",
    "sobolev_norm",
    "fourier_multiplier_matrix",
    "spectral_derivative_matrix",
]


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid on [x_min, x_max) with 2^m points.

    Attributes
    ----------
    x : ndarray
        Grid points ``x_min + dx*j``, j = 0..n-1 (right endpoint excluded).
    k : ndarray
        Momentum lattice ``2*pi*fftfreq(n, dx)`` in FFT ordering.
    """

    x_min: float
    x_max: float
    n_points: int
    x: np.ndarray = field(repr=False)
    k: np.ndarray = field(repr=False)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_points

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @property
    def dk(self) -> float:
        return 2.0 * np.pi / self.length

    def index_of(self, x0: float) -> int:
        """Index of the grid point closest to x0."""
        return int(np.argmin(np.abs(self.x - x0)))


# the largest bound a grid takes: below it every position, the span, the spacing and each position's square are finite
_BOUND = float(np.sqrt(np.finfo(float).max))


def make_grid(x_min: float, x_max: float, n_points: int) -> Grid1D:
    """Build a periodic grid; n_points must be a power of two >= 8.

    The bounds must be finite and below `_BOUND` (about 1.3e154) in size,
    so that the positions, the span, the spacing and the squares the models
    and observables take of X are finite, and the spacing must leave the
    momentum lattice finite.
    """
    if not (abs(x_min) < _BOUND and abs(x_max) < _BOUND):
        raise ValueError(f"grid bounds [{x_min}, {x_max}] must be finite and below {_BOUND:.3g} in size")
    if not x_max > x_min:
        raise ValueError(f"degenerate interval [{x_min}, {x_max}]")
    if n_points < 8 or (n_points & (n_points - 1)) != 0:
        raise ValueError(f"n_points must be a power of two >= 8, got {n_points}")
    dx = (x_max - x_min) / n_points
    if not (dx > 0 and np.isfinite(np.pi / dx)):
        raise ValueError(f"spacing {dx} of [{x_min}, {x_max}] leaves the momentum lattice non-finite")
    x = x_min + dx * np.arange(n_points)
    k = 2.0 * np.pi * np.fft.fftfreq(n_points, d=dx)
    return Grid1D(x_min=x_min, x_max=x_max, n_points=n_points, x=x, k=k)


@dataclass(frozen=True)
class NuclearWave:
    """Scalar wavefunction phi(X_i) of the nuclei at semiclassical parameter eps."""

    grid: Grid1D
    values: np.ndarray
    eps: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.n_points,):
            raise ValueError(f"values shape {v.shape} does not match grid ({self.grid.n_points},)")
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite wavefunction values")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class MolecularWave:
    """Fiber-valued wavefunction psi(X_i) in C^m, stored as an (n, m) array."""

    grid: Grid1D
    values: np.ndarray
    eps: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.ndim != 2 or v.shape[0] != self.grid.n_points:
            raise ValueError(f"values must be (n_points, m), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite wavefunction values")
        object.__setattr__(self, "values", v)

    @property
    def fiber_dim(self) -> int:
        return self.values.shape[1]

    def flat(self) -> np.ndarray:
        """Flattened (n*m,) vector, grid-major: entry i*m + a is component a at X_i."""
        return self.values.reshape(-1)


def l2_norm(values: np.ndarray, dx: float, axis: int | None = None):
    """sqrt(sum |values|^2 dx): the L^2 norm of grid samples of any shape.

    With axis=None the sum runs over every entry and a float is returned;
    with an axis it runs along that axis only, one norm per remaining index.
    """
    norms = np.sqrt(np.sum(np.abs(values) ** 2, axis=axis) * dx)
    return float(norms) if axis is None else norms


def norm(w: NuclearWave | MolecularWave) -> float:
    """L^2 norm with the quadrature weight dx (fiber components summed)."""
    return l2_norm(w.values, w.grid.dx)


def _sobolev_norms(vals: np.ndarray, grid: Grid1D, eps: float, order: int) -> np.ndarray:
    """``||(eps d/dX)^order w|| + ||w||`` of each of the k waves of an (n, m, k) sample stack, shape (k,).

    The derivative is taken spectrally along X, by one FFT of the stack,
    as the multiplier |eps k|^order.
    """
    ft = np.fft.fft(vals, axis=0) / np.sqrt(grid.n_points)
    weight = (eps * np.abs(grid.k)) ** order
    return l2_norm(weight[:, None, None] * np.abs(ft), grid.dx, axis=(0, 1)) + l2_norm(vals, grid.dx, axis=(0, 1))


def sobolev_norm(w: NuclearWave | MolecularWave, order: int) -> float:
    """Scaled Sobolev norm: ``||(eps d/dX)^order w|| + ||w||``, order 1 or 2.

    Order 1 uses eps*|d/dX|, order 2 uses eps^2*Laplacian, both spectral:
    the one-wave case of `_sobolev_norms`.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    vals = w.values.reshape(w.grid.n_points, -1, 1)
    return float(_sobolev_norms(vals, w.grid, w.eps, order)[0])


def fourier_multiplier_matrix(symbol: np.ndarray) -> np.ndarray:
    """Dense matrix of the Fourier multiplier F^dag diag(symbol) F, complex.

    `symbol` holds s(k) on a grid's momentum lattice in FFT ordering.
    Entry (i, j) is sum_k s(k) e^{i k (X_i - X_j)} / n = ifft(s)[(i - j) mod n],
    so the matrix is the circulant with first column c = ifft(s).  Row i is
    the window of length n at n - 1 - i of c reversed and repeated twice,
    copied by strides, not gathered by an n x n index.
    """
    c = np.fft.ifft(symbol)[::-1]
    return sliding_window_view(np.concatenate([c, c]), c.size)[c.size - 1 :: -1].copy()


def spectral_derivative_matrix(grid: Grid1D) -> np.ndarray:
    """Dense matrix of -i d/dX on the periodic grid: the multiplier of k.

    Hermitian, annihilates constants, and maps exp(i*k0*X) to k0*exp(i*k0*X)
    for every lattice mode k0.
    """
    return fourier_multiplier_matrix(grid.k)
