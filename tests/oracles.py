"""Reference constructions that the tests compare the package against.

They build by the textbook formula, by SciPy or by a second method, not by
the package's fast path, and nothing in the package calls them.  SciPy is
a test dependency only: the package itself imports numpy alone.
"""

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import circulant


def fourier_matrix(grid) -> np.ndarray:
    """Unitary DFT matrix F with (F psi)_k = sum_x e^{-i k x} psi(x)/sqrt(n)."""
    return np.exp(-1j * np.outer(grid.k, grid.x)) / np.sqrt(grid.n_points)


def _block_eigenvectors(V):
    """A block's eigenvectors on its rows; the frame form (W, parts) lifted as blockdiag(W_i) Z.

    Z holds each part's eigenvectors V on its frame indices idx, the parts
    side by side in order, zero elsewhere; blockdiag(W_i) is built as a
    dense matrix.
    """
    if not isinstance(V, tuple):
        return V
    W, parts = V
    n, d, _ = W.shape
    frame = np.zeros((n * d, n * d), dtype=W.dtype)
    for i in range(n):
        frame[i * d : (i + 1) * d, i * d : (i + 1) * d] = W[i]
    Z = np.zeros((n * d, n * d), dtype=np.result_type(W, *(pV for *_, pV in parts)))
    start = 0
    for idx, _, pV in parts:
        Z[idx, start : start + pV.shape[1]] = pV
        start += pV.shape[1]
    return frame @ Z


def dense_eigenpairs(prop):
    """(w, V): a SpectralPropagator's blocks scattered into dense N x N eigenpairs.

    Each block's eigenvectors (`_block_eigenvectors`) go into its rows,
    zero elsewhere, and the eigenvalues are sorted ascending by a stable
    sort, the order `np.linalg.eigh` of the dense operator gives.
    """
    N = prop.dim
    w = np.concatenate([bw for _, bw, _ in prop.blocks])
    vectors = [_block_eigenvectors(bV) for *_, bV in prop.blocks]
    V = np.zeros((N, N), dtype=np.result_type(*vectors))
    start = 0
    for (rows, bw, _), bV in zip(prop.blocks, vectors):
        V[rows, start : start + len(bw)] = bV
        start += len(bw)
    order = np.argsort(w, kind="stable")
    return w[order], V[:, order]


def unitary(prop, t: float) -> np.ndarray:
    """Dense e^{-iHt/eps} = V diag(e^{-i w t/eps}) V^dag of a SpectralPropagator."""
    w, V = dense_eigenpairs(prop)
    return (V * np.exp(-1j * w * t / prop.eps)) @ V.conj().T


def cutoff_projection(prop, cutoff: float) -> np.ndarray:
    """Dense spectral projection onto the eigenvalues <= cutoff of a SpectralPropagator."""
    w, V = dense_eigenpairs(prop)
    return (V * (w <= cutoff)) @ V.conj().T


def _dense_times(A, Z):
    """A @ Z, as one real product on Z's float64 view when A is real."""
    if A.dtype == np.float64:
        return (A @ np.ascontiguousarray(Z).view(np.float64)).view(np.complex128)
    return A @ Z


def _dense_coefficients(V, vec):
    """V^dag vec for vec (N,) or (N, k), as an (N, k) block."""
    block = np.asarray(vec, dtype=complex).reshape(np.shape(vec)[0], -1)
    return _dense_times(V.T, block) if V.dtype == np.float64 else (V.T @ block.conj()).conj()


def dense_product_apply(w, V, eps, vec, t):
    """e^{-iHt/eps} vec for a dense eigenpair (w, V) by the products of a one-block propagator.

    A 1-D array of times goes through as one (N, T k) block of phased
    coefficients and one synthesis product.
    """
    c = _dense_coefficients(V, vec)
    ts = np.asarray(t, dtype=float)
    phases = np.exp(-1j * w[:, None] * ts.reshape(-1) / eps)
    out = _dense_times(V, (c[:, None, :] * phases[:, :, None]).reshape(len(w), -1))
    out = np.ascontiguousarray(out.reshape(len(w), ts.size, -1).transpose(1, 0, 2))
    return out.reshape(ts.shape + np.shape(vec))


def dense_product_cutoff(w, V, vec, cutoff):
    """The projection of vec onto eigenvalues <= cutoff by the products of a one-block propagator."""
    c = _dense_coefficients(V, vec)
    c[w > cutoff] = 0.0
    return _dense_times(V, c).reshape(np.shape(vec))


def kinetic_matrix(grid, eps, a_vals=None) -> np.ndarray:
    """Covariant kinetic operator (eps*(-i d/dX) + eps*A(X))^2 / 2, dense.

    `a_vals` holds the vector potential A sampled on the grid (None: zero).
    It is Phi^* C Phi, with Phi the gauge phase of A (`hamiltonians._gauge`)
    and C the circulant of the symbol (eps (k + mean(A)))^2 / 2; at zero
    field (None, or all zeros) C itself, stored real.
    """
    from adiband.hamiltonians import _gauge, _kinetic, _symbol

    phase, a_bar = _gauge(grid, a_vals)
    return _kinetic(_symbol(grid, eps, a_bar), phase)


def kron_hamiltonian(model, grid, eps) -> np.ndarray:
    """T kron 1_m + blockdiag(H_e(X_i)) by np.kron.

    Returned as `assemble_full` stores it: real where its fibers are real
    (the kinetic term T is), and as its Hermitian part (M + M^dag) / 2.
    """
    n, m = grid.n_points, model.fiber_dim
    T = kinetic_matrix(grid, eps)
    fibers = model.h_batch(grid.x)
    H = np.kron(T, np.eye(m)).astype(fibers.dtype)
    H.reshape(n, m, n, m)[np.arange(n), :, np.arange(n), :] += fibers
    return (H + H.conj().T) / 2


def assembled_blocks(model, grid, eps) -> list:
    """The blocks of H as an assembly into zeros leaves them, each checked by `DenseHamiltonian` itself.

    Each block's matrix is T on every fiber component plus the fibers on
    the grid diagonal, and `DenseHamiltonian` checks it and stores its
    Hermitian part (M + M^dag) / 2, on the full matrix.
    """
    from adiband.electronic import _coupled_components
    from adiband.hamiltonians import DenseHamiltonian

    n = grid.n_points
    T = kinetic_matrix(grid, eps)
    fibers = model.h_batch(grid.x)
    blocks = []
    for comp in _coupled_components((fibers != 0).any(axis=0)):
        d = len(comp)
        M = np.zeros((n * d, n * d), dtype=fibers.dtype)
        view = M.reshape(n, d, n, d)
        for a in range(d):
            view[:, a, :, a] = T
        view[np.arange(n), :, np.arange(n), :] += fibers[:, comp[:, None], comp]
        blocks.append((comp, DenseHamiltonian(matrix=M, eps=eps, tag="full", grid=grid, fiber_dim=d)))
    return blocks


def assembled_bo(band, eps, include_a_geo=True):
    """The dense BO operator as kinetic_matrix(A_geo) + diag(E), checked by `DenseHamiltonian` itself.

    E and A_geo are extended at the band's own window and margin.
    """
    from adiband.electronic import berry_connection
    from adiband.hamiltonians import DenseHamiltonian, clamp_field

    grid = band.grid
    E = clamp_field(band.band_energy, grid, band.window, band.delta)
    a_vals = clamp_field(berry_connection(band), grid, band.window, band.delta) if include_a_geo else None
    M = kinetic_matrix(grid, eps, a_vals) + np.diag(E)
    return DenseHamiltonian(matrix=M, eps=eps, tag="bo", grid=grid, fiber_dim=1)


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


def weyl_table_full_box(symbol, grid, eps) -> np.ndarray:
    """The (2n - 1, n) table G of a(q, p)'s Weyl kernel, A[i, l] = G[i + l, (i - l) mod n], in one array.

    The symbol is evaluated at all 2n - 1 midpoints (X_i + X_l)/2 and every
    k, and the span from the first to the last nonzero midpoint row is
    inverse-transformed over k in one call, scaled by n and by the kernel's
    weight dx dk/(2 pi); the other rows stay zero.
    """
    n = grid.n_points
    mids = grid.x[0] + 0.5 * grid.dx * np.arange(2 * n - 1)
    table = np.asarray(symbol(mids[:, None], eps * grid.k[None, :]))
    G = np.zeros(table.shape, dtype=complex)
    rows = np.flatnonzero(table.any(axis=1))
    if rows.size:
        span = slice(rows[0], rows[-1] + 1)
        np.fft.ifft(table[span], axis=1, out=G[span])
        G[span] *= n
        G[span] *= grid.dx * grid.dk / (2 * np.pi)
    return G


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
