"""Reference constructions that the tests compare the package against.

They build by the textbook formula or by SciPy, not by the package's fast
path, and nothing in the package calls them.  SciPy is a test dependency
only: the package itself imports numpy alone.
"""

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import circulant


def fourier_matrix(grid) -> np.ndarray:
    """Unitary DFT matrix F with (F psi)_k = sum_x e^{-i k x} psi(x)/sqrt(n)."""
    return np.exp(-1j * np.outer(grid.k, grid.x)) / np.sqrt(grid.n_points)


def unitary(prop, t: float) -> np.ndarray:
    """Dense e^{-iHt/eps} = V diag(e^{-i w t/eps}) V^dag of a SpectralPropagator."""
    V = prop.eigenvectors
    return (V * np.exp(-1j * prop.eigenvalues * t / prop.eps)) @ V.conj().T


def kron_hamiltonian(model, grid, eps, a_ext=None) -> np.ndarray:
    """T kron 1_m + blockdiag(H_e(X_i)) by np.kron.

    Returned as `assemble_full` stores it: real where its data are real, and
    as its Hermitian part (M + M^dag) / 2.
    """
    from adiband.hamiltonians import kinetic_matrix

    n, m = grid.n_points, model.fiber_dim
    a_vals = np.zeros(n) if a_ext is None else np.array([a_ext(X) for X in grid.x])
    T = kinetic_matrix(grid, eps, a_vals)
    fibers = model.h_batch(grid.x)
    if np.isrealobj(T) and not np.any(fibers.imag):
        fibers = fibers.real
    H = np.kron(T, np.eye(m)).astype(fibers.dtype)
    H.reshape(n, m, n, m)[np.arange(n), :, np.arange(n), :] += fibers
    return (H + H.conj().T) / 2


def wigner_values(wave) -> np.ndarray:
    """The marginal Wigner array of `semiclassics.wigner_marginal` by its defining sums.

    One offset at a time, then the dense DFT matrix over the offsets.
    """
    vals = wave.values if wave.values.ndim == 2 else wave.values[:, None]
    grid, eps = wave.grid, wave.eps
    n = grid.n_points
    idx = np.arange(n)
    offsets = np.arange(n) - n // 2
    C = np.zeros((n, n), dtype=complex)
    for jm, mm in enumerate(offsets):
        C[:, jm] = np.sum(vals[(idx + mm) % n].conj() * vals[(idx - mm) % n], axis=1)
    phase = np.exp(2j * np.pi * np.outer(offsets, offsets) / n)
    return ((C @ phase) * (2 * grid.dx / eps) / (2 * np.pi)).real


def circulant_multiplier(symbol) -> np.ndarray:
    """Dense F^dag diag(symbol) F as SciPy's circulant of ifft(symbol)."""
    return circulant(np.fft.ifft(symbol))


def periodic_spline(grid, values):
    """(E, dE) of SciPy's periodic cubic spline through values on the grid, q wrapped into the box."""
    xs = np.concatenate([grid.x, [grid.x_min + grid.length]])
    spline = CubicSpline(xs, np.concatenate([values, [values[0]]]), bc_type="periodic")

    def wrap(q):
        return grid.x_min + np.mod(np.asarray(q, dtype=float) - grid.x_min, grid.length)

    return (lambda q: spline(wrap(q))), (lambda q: spline(wrap(q), 1))
