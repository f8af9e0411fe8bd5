"""Dense reference constructions that the tests compare the package against.

They build by the textbook formula, not by the package's fast path, and
nothing in the package calls them.
"""

import numpy as np


def fourier_matrix(grid) -> np.ndarray:
    """Unitary DFT matrix F with (F psi)_k = sum_x e^{-i k x} psi(x)/sqrt(n)."""
    return np.exp(-1j * np.outer(grid.k, grid.x)) / np.sqrt(grid.n_points)


def unitary(prop, t: float) -> np.ndarray:
    """Dense e^{-iHt/eps} = V diag(e^{-i w t/eps}) V^dag of a SpectralPropagator."""
    V = prop.eigenvectors
    return (V * np.exp(-1j * prop.eigenvalues * t / prop.eps)) @ V.conj().T
