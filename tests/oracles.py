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


def diagonalize_blocks(op, eps):
    """The molecular H `op` at eps solved block by block by `propagation.diagonalize`: the full H's dense oracle.

    Each fiber component's block (`FiberedOperator.block`) is solved, and
    the eigenpairs are scattered into one dense SpectralPropagator: each
    block's eigenvectors go into its rows, zero elsewhere, and the
    eigenvalues are sorted ascending by a stable sort, the order
    `np.linalg.eigh` of the dense operator gives.  With one component it is
    `diagonalize` of that block itself.
    """
    from adiband.propagation import SpectralPropagator, diagonalize

    if len(op.components) == 1:
        return diagonalize(op.block(eps, op.components[0]))
    solved = [(op.rows(comp), diagonalize(op.block(eps, comp))) for comp in op.components]
    w = np.concatenate([s.w for _, s in solved])
    V = np.zeros((op.dim, op.dim), dtype=np.result_type(*(s.V for _, s in solved)))
    start = 0
    for rows, s in solved:
        V[rows, start : start + s.dim] = s.V
        start += s.dim
    order = np.argsort(w, kind="stable")
    return SpectralPropagator(w=w[order], V=V[:, order], eps=eps)


def unitary(prop, t: float) -> np.ndarray:
    """Dense e^{-iHt/eps} = V diag(e^{-i w t/eps}) V^dag of a SpectralPropagator."""
    return (prop.V * np.exp(-1j * prop.w * t / prop.eps)) @ prop.V.conj().T


def cutoff_projection(prop, cutoff: float) -> np.ndarray:
    """Dense spectral projection onto the eigenvalues <= cutoff of a SpectralPropagator."""
    return (prop.V * (prop.w <= cutoff)) @ prop.V.conj().T


def split_eigenbases(pair) -> list:
    """(rows, w_d, E_d, w_f, E_f) of each split block of a DecouplingPair, lifted to dense b x b matrices.

    E_d = blockdiag(W_i) Z is the block's eigenbasis of H_diag, with Z
    holding each part's eigenvectors V on its frame indices idx, the parts
    side by side in order, zero elsewhere, and blockdiag(W_i) built as a
    dense matrix; E_f = E_d M is the full block's.
    """
    out = []
    for rows, W, parts, w_d, w_f, M in pair.split:
        n, d, _ = W.shape
        frame = np.zeros((n * d, n * d), dtype=W.dtype)
        for i in range(n):
            frame[i * d : (i + 1) * d, i * d : (i + 1) * d] = W[i]
        Z = np.zeros((n * d, n * d), dtype=np.result_type(W, *(V for _, V in parts)))
        start = 0
        for idx, V in parts:
            Z[idx, start : start + V.shape[1]] = V
            start += V.shape[1]
        E_d = frame @ Z
        out.append((rows, w_d, E_d, w_f, E_d @ M))
    return out


def dense_decoupling_error(band, eps, states, times, cutoff=None) -> np.ndarray:
    """`propagation.decoupling_error` on the grid, (T, k): H and H_diag dense, each solved as one block.

    H is `assemble_full`, H_diag `assemble_diag` of it, and each is solved
    by `diagonalize` and applied to the states on the grid.  With a cutoff
    the states are first projected by the dense spectral projection of H
    and measured against the L^2 norm of their projections; without one,
    against their scaled second Sobolev norms.
    """
    from adiband.grids import l2_norm, sobolev_norm
    from adiband.hamiltonians import assemble_diag, assemble_full
    from adiband.propagation import diagonalize

    H = assemble_full(band.model, band.grid, eps)
    full, diag = diagonalize(H), diagonalize(assemble_diag(H, band))
    vecs = np.column_stack([psi.flat() for psi in states]).astype(complex)
    if cutoff is None:
        denom = np.array([sobolev_norm(psi, 2) for psi in states])
    else:
        vecs = cutoff_projection(full, cutoff) @ vecs
        denom = l2_norm(vecs, band.grid.dx, axis=0)
    d = full.apply(vecs, np.asarray(times, dtype=float)) - diag.apply(vecs, np.asarray(times, dtype=float))
    return l2_norm(d, band.grid.dx, axis=-2) / denom


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
    return assembled_stack_blocks(model.h_batch(grid.x), grid, eps)


def assembled_stack_blocks(fibers, grid, eps) -> list:
    """`assembled_blocks` of a given (n, m, m) fiber stack, which only the dense check of each block sees."""
    from adiband.electronic import _coupled_components
    from adiband.hamiltonians import DenseHamiltonian

    n = grid.n_points
    T = kinetic_matrix(grid, eps)
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


def weyl_gather(G) -> np.ndarray:
    """A[i, l] = G[i + l, (i - l) mod n] of a (2n - 1, n) Weyl table, by one fancy gather of two meshgrid index arrays."""
    n = G.shape[1]
    I, L = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return G[I + L, (I - L) % n]


# -- the per-point and per-state constructions the package's array code replaced ----------


def _point_two_band_complex(g_re=0.5, g_im=0.2):
    def h(X):
        f = np.tanh(X)
        g = g_re + 1j * g_im / np.cosh(X)
        return np.array([[f, g], [np.conj(g), -f]])

    return h


def _point_crossing_trio(g0=0.5, curvature=0.2, offset=3.0):
    def h(X):
        c = g0 * X * np.exp(-(X * X) / 2)
        return np.array(
            [[X, 0.0, c], [0.0, -X, 0.0], [c, 0.0, offset + curvature * (X * X)]],
            dtype=complex,
        )

    return h


def _point_rotated_pair(theta0=0.3, well=4.0):
    def h(X):
        th = theta0 * np.tanh(X)
        a = X * X - well
        c, s = np.cos(th), np.sin(th)
        R = np.array([[c, -s], [s, c]])
        return (R @ np.diag([a, -a]) @ R.T).astype(complex)

    return h


def _point_constant_fiber(levels=(1.0, 2.0)):
    lev = np.asarray(levels, dtype=float)
    return lambda X: np.diag(lev).astype(complex)


POINT_FIBERS = {
    "two_band_complex": _point_two_band_complex,
    "crossing_trio": _point_crossing_trio,
    "rotated_pair": _point_rotated_pair,
    "constant_fiber": _point_constant_fiber,
    "free": lambda: (lambda X: np.zeros((1, 1), dtype=complex)),
}


def point_fiber(tag, X, **params) -> np.ndarray:
    """H_e(X) of a built-in model at one Python float X by its per-point formula, complex (m, m).

    Squares are written X * X, the correctly rounded product that numpy's
    `xs**2` gives on an array.  Python's `X**2` on a float calls the C
    library's pow, which rounds about one double in a thousand differently
    (by one ulp); on the points of the shipped grids the two agree
    (`tests/test_models.py`).
    """
    return POINT_FIBERS[tag](**params)(float(X))


def stacked_fibers(tag, xs, **params) -> np.ndarray:
    """The stack of `point_fiber` over xs, real (contiguous float64) when no entry has an imaginary part."""
    stack = np.stack([point_fiber(tag, X, **params) for X in np.asarray(xs, dtype=float)])
    return stack if np.any(stack.imag) else np.ascontiguousarray(stack.real)


def stepwise_track_band(evals, evecs, start_band, anchor):
    """`electronic._track_band` by its `step` at every point: maximal-overlap continuation from the anchor.

    Levels within `_DEG_TOL` relative of the best-overlap level count as
    degenerate with it, and the previous vector is projected onto their
    eigenspace; a best overlap below 0.7 is refused.
    """
    from adiband.electronic import _DEG_TOL

    n, m, _ = evecs.shape
    chi = np.zeros((n, m), dtype=complex)
    energy = np.zeros(n)
    chi[anchor] = evecs[anchor, :, start_band]
    energy[anchor] = evals[anchor, start_band]

    def step(i, prev):
        v = evecs[i]
        overlaps = np.abs(v.conj().T @ prev)
        j = int(np.argmax(overlaps))
        deg = np.nonzero(np.abs(evals[i] - evals[i, j]) < _DEG_TOL * max(1.0, abs(evals[i, j])))[0]
        if len(deg) > 1:
            sub = v[:, deg]
            cand = sub @ (sub.conj().T @ prev)
            nc = np.linalg.norm(cand)
            if nc > 0.5:
                return cand / nc, evals[i, j]
        if overlaps[j] < 0.7:
            raise RuntimeError(
                f"band tracking lost at grid index {i}: best overlap {overlaps[j]:.3f}"
            )
        return v[:, j], evals[i, j]

    for i in range(anchor + 1, n):
        chi[i], energy[i] = step(i, chi[i - 1])
    for i in range(anchor - 1, -1, -1):
        chi[i], energy[i] = step(i, chi[i + 1])
    return energy, chi


def coherent_wave(grid, eps, q0, p0, profile="gaussian"):
    """The normalized values of `states.coherent_state` by its formula, one state, with its refusals."""
    from adiband.grids import l2_norm
    from adiband.states import envelope

    halo = 5 * np.sqrt(eps)
    if q0 - grid.x_min < halo or grid.x_max - q0 < halo:
        raise ValueError(f"center {q0} closer than {halo:.3f} to the box edge; state would wrap around")
    p_max = eps * np.abs(grid.k).max()
    if abs(p0) + halo > p_max:
        raise ValueError(f"momentum center {p0} too close to the lattice edge {p_max:.3f}")
    u = (grid.x - q0) / np.sqrt(eps)
    vals = eps**-0.25 * np.exp(1j * p0 * (grid.x - q0) / eps) * np.asarray(envelope(profile)(u), dtype=complex)
    nrm = l2_norm(vals, grid.dx)
    if nrm == 0:
        raise ValueError("zero state")
    return vals / nrm


def per_state_family(band, eps, q_centers, p_centers, wkb_params):
    """`harness.standard_state_family` one state at a time: each packet by `coherent_wave`, the WKB
    state by `wkb_state`, and each lifted on its own by `lift_to_band`."""
    from adiband.grids import NuclearWave
    from adiband.harness import _wkb_wave
    from adiband.states import lift_to_band

    grid = band.grid
    out = [lift_to_band(NuclearWave(grid, coherent_wave(grid, eps, q0, p0), eps), band)
           for q0 in q_centers for p0 in p_centers]
    out.append(lift_to_band(_wkb_wave(grid, eps, *wkb_params)[0], band))
    return out
