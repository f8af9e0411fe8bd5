"""Exact unitary evolution, by one-time eigendecomposition or matrix-free
Chebyshev expansion, and the decoupling / effective-dynamics error
functionals.

There is no time stepping: e^{-iHt/eps} is applied through the spectral
decomposition of the assembled operator (`SpectralPropagator`), or through
its Chebyshev expansion, converged to float64 rounding, on the operator's
parts (`ChebyshevPropagator`), so every error measured here is an
adiabatic or semiclassical error of the model, never a time-integration
artifact.

The rule is: only the decoupling pair is dense, and every propagator of
an H applied on its own is matrix-free.  The Born-Oppenheimer operator is
a Fourier multiplier dressed by its gauge phase plus a potential, and the
molecular H is the kinetic multiplier on every fiber component plus the
fiber stack, so the Chebyshev recurrence applies either by two FFTs of
the grid per step, with no N x N matrix and no N^3 solve
(`harness.PropagatorCache.bo` and `.full`); the dense solves of a single
H (`diagonalize` of `assemble_bo` or `assemble_full`, or of each block of
H) stay as the tests' oracles and the `identities` suite's.  On the effective-ladder benchmark the
matrix-free errors lie within 5.2e-11 relative of the dense references,
at the eps = 0.025 point, inside their 1e-10 gate, and they are the same
floats at one and two BLAS threads, where the dense full H moved that
point by 4.5e-11.  Each term of the recurrence is one step of two FFTs
along a contiguous axis, the symbol's product and V's, run in place on
the grid-last layout (m, k, n) (`ChebyshevPropagator`,
`hamiltonians.FiberedOperator.action`), allocating only V's products.
The decoupling pair stays dense because it is read in H_diag's
eigenbasis, where the band-preserving evolution is a phase: a family of
k states at a row of T times costs one product of a b x b matrix with a
(b, T k) block per split block of dimension b, and nothing goes back to
the grid, where a Chebyshev pair would run two recurrences over the whole
row.  And the energy cutoff projects onto total energies by the full
blocks' eigenvalues.

The decoupling pair (`diagonalize_pair`, a `DecouplingPair`) holds
e^{-iHt/eps} and e^{-iH_diag t/eps}, H_diag = P H P + Q H Q, of the
molecular H, one fiber component at a time
(`hamiltonians.FiberedOperator.block`).  H_diag has the blocks of H.
Where P is 0 or 1 on a whole block of H, H_diag equals H there, the two
evolutions are the same on its rows, and their difference is exactly
zero: such a shared block is built and solved only when an energy cutoff
needs its eigenvalues, and then once per pair.  Every other block of
H_diag commutes with P, so in the frame W of P's fiber blocks on it, it
is its ran P part plus its ran Q part (`hamiltonians._split_block`).
Each part is solved on its own frame indices, and the parts give the
block's eigenbasis of
H_diag, W blockdiag(V_P, V_Q), with the eigenvalues w_d; no b x b
eigenvector matrix of H_diag is formed.  The full block of H is solved as
well, and its eigenvectors V_f are kept only as their coordinates in
that basis, the unitary M = blockdiag(V_P, V_Q)^dag W^dag V_f, formed
when the pair is built and written over V_f.  `crossing_trio`'s full H
splits into blocks of 2n and n.  For bands (0, 1), P is 1 on the n block
at every point, so the pair keeps the 2n block as two parts of n with
its M, and neither builds nor solves the n block; with a window, P is 1
inside and 0 outside, and both blocks are split.

`decoupling_error` measures the pair in those coordinates.  With
c_d = V_d^dag W^dag psi a state's coordinates and c_f = M^dag c_d its
full ones, the difference of the two evolutions at time t is
D(t) = M (e^{-i w_f t/eps} c_f) - e^{-i w_d t/eps} c_d, and its norm is
the grid norm of the difference, since W V_d is unitary on the block's
rows.  The phases of a row of T times multiply the k states' c_f into
one (b, T k) block, and one product with M maps it; an energy cutoff
acts on c_f, before c_d = M c_f is formed.

A real-stored operator keeps its real eigenvectors, frames and M as
float64.  A real matrix applies to a vector or a block of k vectors as a
real product on the block's float64 view, an (N, 2k) array of
interleaved real and imaginary parts, so one real GEMM does the work of
a complex one at half the storage.  A complex-stored operator takes the
complex products.

Times form a row as well.  Given a 1-D array of T times, `apply` forms
the coefficients V^dag vec with one analysis product, multiplies in the
phases of every time as one (N, T k) block, and maps that block back with
one synthesis product; the batch takes N k T 16 bytes.

The error functionals have one call form: a row of T times goes in (and,
for `decoupling_error`, a list of k molecular waves, taken as one (N, k)
block), and one error per time comes out, (T, k) or (T,).  Each
propagator applies the whole row at once, so a scan of many times makes
one apply, or one product with M per split block, per eps.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .electronic import BandData
from .grids import MolecularWave, NuclearWave, _sobolev_norms, l2_norm, norm
from .hamiltonians import DenseHamiltonian, FiberedOperator, _band_fibers, _split_block, u_map

__all__ = [
    "SpectralPropagator",
    "ChebyshevPropagator",
    "DecouplingPair",
    "diagonalize",
    "diagonalize_pair",
    "evolve",
    "decoupling_error",
    "effective_dynamics_error",
]


def _times(A: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """A @ Z; for a real A and a complex Z, one real product on Z's float64 view."""
    if A.dtype == np.float64 and Z.dtype == np.complex128:
        return (A @ np.ascontiguousarray(Z).view(np.float64)).view(np.complex128)
    return A @ Z


def _coefficients(V: np.ndarray, block: np.ndarray) -> np.ndarray:
    """V^dag block, for a (rows, k) block."""
    if V.dtype == np.float64:
        return _times(V.T, block)
    # V^dag block as conj(V^T conj(block)): no conjugate copy of V
    return (V.T @ block.conj()).conj()


def _phased(w: np.ndarray, c: np.ndarray, times: np.ndarray, eps: float) -> np.ndarray:
    """The (d, T k) block e^{-i w t/eps} c of the d coefficients c, (d, k), at each time of a row of T."""
    phases = np.exp(-1j * w[:, None] * times.reshape(-1) / eps)
    return (c[:, None, :] * phases[:, :, None]).reshape(len(w), -1)


@dataclass(frozen=True)
class SpectralPropagator:
    """Eigendecomposition of a DenseHamiltonian, reusable for any time.

    `w` holds the ascending eigenvalues and `V` the eigenvectors as columns,
    float64 when the operator is stored real, complex128 otherwise.
    """

    w: np.ndarray = field(repr=False)
    V: np.ndarray = field(repr=False)
    eps: float

    @property
    def dim(self) -> int:
        return len(self.w)

    def apply(self, vec: np.ndarray, t) -> np.ndarray:
        """e^{-iHt/eps} vec without forming the dense unitary.

        vec may be one vector (N,) or a block of columns (N, k); a wrong row
        count is refused rather than folded into columns.  A scalar t gives
        a result of vec's shape.  A 1-D array of T times gives shape
        (T,) + shape(vec): the coefficients V^dag vec are formed once, the
        phases of all T times multiply them into one (N, T k) block, and one
        synthesis product maps that block back, so the batch takes N k T 16
        bytes.
        """
        times = np.asarray(t, dtype=float)
        if times.ndim > 1:
            raise ValueError(f"t must be a scalar or a 1-D array of times, got shape {times.shape}")
        block = np.asarray(vec, dtype=complex).reshape(np.shape(vec)[0], -1)
        if len(block) != self.dim:
            raise ValueError(f"dimension mismatch: vector has {len(block)} rows, operator {self.dim}")
        out = _times(self.V, _phased(self.w, _coefficients(self.V, block), times, self.eps))
        # (N, T, k) columns to one contiguous (N,) or (N, k) result per time
        out = np.ascontiguousarray(out.reshape(self.dim, times.size, -1).transpose(1, 0, 2))
        return out.reshape(times.shape + np.shape(vec))


def _bessel_rows(z: np.ndarray, degrees) -> np.ndarray:
    """J_0(z) .. J_d(z) for each z of a row and its degree d, zero past d: shape (len(z), max d + 1).

    Miller's recurrence: for each z, J_{k-1} = (2k/z) J_k - J_{k+1} runs
    down from 0 and 1 at index d + |z| + 10 |z|^(1/3) + 40, far inside J's
    decay, where the recurrence is stable; values are scaled by 1e-250
    whenever one passes 1e250.  The sequence is normalized by the identity
    J_0 + 2 sum_k J_2k = 1, which holds for negative z as well.  Below
    |z| = 1e-8 the row is (1, z/2, 0, ..., 0), the series to rounding (the
    first term left out, J_2 = z^2/8, is under 2e-17), where the
    recurrence's steps 2k/z would overflow.  A row depends only on its own
    z and d.
    """
    degrees = np.broadcast_to(degrees, np.shape(z))
    rows = np.zeros((len(degrees), int(degrees.max(initial=0)) + 1))
    for row, x, d in zip(rows, np.asarray(z, dtype=float), degrees):
        if abs(x) < 1e-8:
            row[:2] = 1.0, x / 2
            continue
        start = d + int(abs(x) + 10 * abs(x) ** (1 / 3)) + 40
        vals = [0.0] * (start + 1)
        above, here = 0.0, 1.0
        vals[start] = here
        two_over_x = 2.0 / x
        for k in range(start, 0, -1):
            above, here = here, k * two_over_x * here - above
            vals[k - 1] = here
            if abs(here) > 1e250:
                vals = [v * 1e-250 for v in vals]
                above, here = above * 1e-250, here * 1e-250
        J = np.array(vals)
        row[: d + 1] = J[: d + 1] / (J[0] + 2 * J[2::2].sum())
    return rows


@dataclass(frozen=True)
class ChebyshevPropagator:
    """e^{-iHt/eps} applied matrix-free, by a Chebyshev expansion on an operator's parts.

    `operator` is a `hamiltonians.FiberedOperator`; H is its operator at
    eps, never formed: each step of the recurrence is one `action`, O(N
    log n) per column (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)).
    With [lo, hi] = operator.spectral_bounds(eps), c its centre and r its
    half-width widened by 1.01, H' = (H - c)/r has its spectrum inside
    [-1, 1], and

        e^{-iHt/eps} = e^{-ict/eps} sum_k (2 - delta_k0) (-i)^k J_k(z) T_k(H'),   z = r t/eps.

    The sum for a time is cut at the degree ceil(z + 10 z^(1/3) + 20) of its
    |z| (`degrees`), past which J_k(z) is below the float64 rounding of the
    sum.  A row of times shares one recurrence, run to the largest degree:
    each T_k(H') vec is formed once and added into the result of every time
    whose degree reaches k, with that time's Bessel coefficient
    (`_bessel_rows`).  So a time's result does not depend on the other
    times of its row.

    The recurrence runs on the grid-last layout (m, k, n) of the molecular
    block (N, k), N = n m, in which every FFT of a step runs along a
    contiguous axis.  `apply` copies its input into that layout once, into
    the first of three preallocated buffers.  Each step writes (2 H') T_k
    into the buffer of T_{k-2}, no longer needed, and subtracts T_{k-1} in
    place to give T_{k+1}, so the buffers rotate and no step allocates one.
    The sum of the times' terms is kept (T, m, k, n) and taken back to the
    molecular layout once, at the end.  The input is never one of the
    buffers, and the result never a view of it.
    """

    operator: FiberedOperator = field(repr=False)
    eps: float

    @property
    def dim(self) -> int:
        return self.operator.dim

    def _window(self) -> tuple:
        """(c, r): the centre of the spectral bounds and their half-width widened by 1.01."""
        lo, hi = self.operator.spectral_bounds(self.eps)
        return (hi + lo) / 2, 1.01 * (hi - lo) / 2

    def degrees(self, times) -> np.ndarray:
        """The Chebyshev degree of each time: ceil(z + 10 z^(1/3) + 20) with z = r |t|/eps."""
        z = self._window()[1] * np.abs(np.asarray(times, dtype=float)) / self.eps
        return np.ceil(z + 10 * np.cbrt(z) + 20).astype(int)

    def apply(self, vec: np.ndarray, t) -> np.ndarray:
        """e^{-iHt/eps} vec, for one vector (N,) or a block (N, k), at a scalar t or a 1-D row of T times.

        The shapes are `SpectralPropagator.apply`'s: vec's shape for a
        scalar t, (T,) + shape(vec) for a row.
        """
        times = np.asarray(t, dtype=float)
        if times.ndim > 1:
            raise ValueError(f"t must be a scalar or a 1-D array of times, got shape {times.shape}")
        block = np.asarray(vec).reshape(np.shape(vec)[0], -1)
        if len(block) != self.dim:
            raise ValueError(f"dimension mismatch: vector has {len(block)} rows, operator {self.dim}")
        row = times.reshape(-1)
        c, r = self._window()
        J = _bessel_rows(r * row / self.eps, self.degrees(row))
        k = np.arange(J.shape[1])
        coef = J * ((-1j) ** (k % 4) * np.where(k == 0, 1.0, 2.0)) * np.exp(-1j * c * row / self.eps)[:, None]
        coef = coef[:, :, None, None, None]
        # the block laid out (m, k, n) is copied into a buffer, never used as one: for m = k = 1 that
        # layout of the caller's array is the array itself, and the recurrence writes into its buffers
        n, m = self.operator.grid.n_points, self.operator.fiber_dim
        prev, cur, nxt = (np.empty((m, block.shape[1], n), dtype=complex) for _ in range(3))
        prev[...] = block.reshape(n, m, -1).transpose(1, 2, 0)
        # twice H' = 2 (H - c)/r, so that T_{k+1} = (2 H') T_k - T_{k-1} is one step and one subtraction
        twice = self.operator.action(self.eps, shift=c, scale=2 / r)
        twice(prev, cur)
        cur *= 0.5
        out = coef[:, 0] * prev + coef[:, 1] * cur
        term = np.empty_like(out)
        for j in range(2, len(k)):
            twice(cur, nxt)
            nxt -= prev
            np.multiply(coef[:, j], nxt, out=term)
            out += term
            prev, cur, nxt = cur, nxt, prev
        # (T, m, k, n) back to the molecular layout, one contiguous (N,) or (N, k) result per time
        return out.transpose(0, 3, 1, 2).reshape(times.shape + np.shape(vec))


def diagonalize(H: DenseHamiltonian, validate: bool = False) -> SpectralPropagator:
    """Eigendecompose an assembled operator as one dense block.

    The propagator holds the eigenpair (w, V) of `np.linalg.eigh` of H's
    matrix; the block structure is the caller's, who passes each block on
    its own (`diagonalize_pair`).  A real-stored operator runs the real-symmetric
    solver and keeps its eigenvectors float64; a complex-stored one runs
    the Hermitian solver.  With validate=True the reconstruction
    V diag(w) V^dag is checked against H to 1e-10 relative, and the
    eigenvectors for orthonormality to 1e-11 times H's dimension (two extra
    dense products).
    """
    w, v = np.linalg.eigh(H.matrix)
    if validate:
        err = np.abs((v * w) @ v.conj().T - H.matrix).max()
        if err > 1e-10 * max(1.0, np.abs(H.matrix).max()):
            raise AssertionError(f"eigendecomposition reconstruction error {err:.2e}")
        unit = np.abs(v.conj().T @ v - np.eye(len(w))).max()
        if unit > 1e-11 * len(w):
            raise AssertionError(f"eigenvector matrix not unitary ({unit:.2e})")
    return SpectralPropagator(w=w, V=v, eps=H.eps)


def _frame_coordinates(W: np.ndarray, parts: tuple, block: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """blockdiag(V_P, V_Q)^dag W^dag block: a split block's rows, (b, k), in H_diag's eigenbasis.

    W^dag goes fiber by fiber, O(n d^2) per column; each part (idx, V)
    then maps its own frame indices into its rows of the result.  The
    block may be complex (states) or real (the full block's eigenvectors,
    for M); real frames and eigenvectors take real products on a complex
    block's float64 view.  With overwrite=True the result is written into
    the block's own storage when their dtypes agree, so that forming M
    takes no second b x b array.
    """
    n, d, _ = W.shape
    in_frame = _times(W.conj().transpose(0, 2, 1), block.reshape(n, d, -1)).reshape(n * d, -1)
    out = block if overwrite and block.dtype == in_frame.dtype else np.empty_like(in_frame)
    start = 0
    for idx, V in parts:
        out[start : start + len(idx)] = _coefficients(V, in_frame[idx])
        start += len(idx)
    return out


@dataclass(frozen=True)
class DecouplingPair:
    """e^{-iHt/eps} and e^{-iH_diag t/eps} of the molecular H, block by block, kept in H_diag's eigenbasis.

    `split` holds one (rows, W, parts, w_d, w_f, M) per block of H that P
    splits, in H's order: the block's ascending molecular rows, its frame W
    (n, d, d) of P's fiber blocks, its parts (idx, V), ran P before ran Q,
    with idx a part's ascending frame-basis indices i d + c and V its
    eigenvectors on them, the parts' eigenvalues w_d in that order, the
    full block's ascending eigenvalues w_f, and the unitary
    M = blockdiag(V_P, V_Q)^dag W^dag V_f (b x b).  `shared` holds the
    indices into `operator.components` of the blocks of H on which P is 0
    or 1 at every point, where H_diag equals H.  `operator` builds those
    blocks, for `shared_solves`.  Arrays are float64 when H and the frames
    are real, complex128 otherwise.
    """

    operator: FiberedOperator = field(repr=False)
    eps: float
    split: tuple = field(repr=False)
    shared: tuple

    @property
    def dim(self) -> int:
        return self.operator.dim

    @functools.cached_property
    def shared_solves(self) -> tuple:
        """(rows, w, V) of each shared block, built and solved by `diagonalize` on the first call and kept.

        Only an energy cutoff reads them: the two evolutions are the same on
        a shared block's rows, and only its kept mass enters the norm.  Only
        the shared blocks are built, one at a time.
        """
        op = self.operator
        comps = [op.components[k] for k in self.shared]
        solved = [(op.rows(comp), diagonalize(op.block(self.eps, comp))) for comp in comps]
        return tuple((rows, s.w, s.V) for rows, s in solved)


def diagonalize_pair(operator: FiberedOperator, band: BandData, eps: float) -> DecouplingPair:
    """The decoupling pair of the molecular H (`operator` at eps) and the band's P.

    P's fiber blocks on each component of H (`_band_fibers`) are read
    once.  Each block of H that P splits is built (`FiberedOperator.block`)
    when it is solved, and solved whole by `diagonalize` first, b^3 for a
    block of dimension b; `_split_block` (which refuses a P that is not a
    spectral projection of H_e) then gives its ran P and ran Q parts, each
    solved by `diagonalize`, r^3 + (b - r)^3, and the full block's
    eigenvectors V_f go into the parts' eigenbasis as M, written over V_f.
    Each block is finished before the next is built; the pair keeps W, the
    parts' eigenvectors, the eigenvalues and M.  A shared block is neither
    built nor solved here (`DecouplingPair.shared_solves`).  Nothing is
    checked here: the operator's fibers were checked where their stack was
    made (`models.ElectronicModel.h_batch`), so every block, built or not,
    is made from checked parts.
    """
    fibers = _band_fibers(operator, band)
    shared = tuple(k for k, P in enumerate(fibers) if P is None)
    split = []
    for comp, P in zip(operator.components, fibers):
        if P is None:
            continue
        block = operator.block(eps, comp)
        full = diagonalize(block)
        W, parts = _split_block(block, P)
        solved = [(idx, diagonalize(G)) for idx, G in parts]
        parts = tuple((idx, s.V) for idx, s in solved)
        M = _frame_coordinates(W, parts, full.V, overwrite=True)
        split.append((operator.rows(comp), W, parts, np.concatenate([s.w for _, s in solved]), full.w, M))
    return DecouplingPair(operator=operator, eps=eps, split=tuple(split), shared=shared)


def evolve(prop: SpectralPropagator | ChebyshevPropagator, wave: NuclearWave | MolecularWave, t: float):
    """Propagate a wave for time t; norm-preserving and a one-parameter group."""
    flat = wave.values.reshape(-1)
    if len(flat) != prop.dim:
        raise ValueError(f"dimension mismatch: wave {len(flat)}, operator {prop.dim}")
    out = prop.apply(flat, t).reshape(wave.values.shape)
    return type(wave)(grid=wave.grid, values=out, eps=wave.eps)


def _time_row(times) -> np.ndarray:
    """A row of T times as a 1-D float array; a scalar or a nested sequence is refused."""
    row = np.asarray(times, dtype=float)
    if row.ndim != 1:
        raise ValueError(f"times must be a 1-D sequence of times, got shape {row.shape}")
    return row


def decoupling_error(pair: DecouplingPair, states: list, times, energy_cutoff: float | None = None) -> np.ndarray:
    """Distance between the full and the band-preserving evolution of the pair, per time and state.

    `states` is a list of k molecular waves on the pair's grid and `times`
    a sequence of T times; the result is (T, k).  On a shared block of the
    pair the two evolutions are the same and their difference is exactly
    zero, so only the split blocks are read: each takes the states' rows
    into H_diag's eigenbasis, c_d, and c_f = M^dag c_d, and measures
    D = M (e^{-i w_f t/eps} c_f) - e^{-i w_d t/eps} c_d for the whole row
    with one product with M (`DecouplingPair`).  Without a cutoff each
    difference is normalized by the scaled second Sobolev norm of its
    initial state (applied-state proxy for the operator norm on
    W^{2,eps}).  With a cutoff, the states are first projected onto total
    energies <= cutoff, once for all times: the projection keeps the c_f
    of the eigenvalues w_f <= cutoff, and c_d = M c_f.  Each difference is
    then measured relative to the plain L^2 norm of its projected state,
    to which each shared block adds the mass of its coefficients of
    eigenvalues <= cutoff (`shared_solves`).  A zero state, or one the
    cutoff annihilates, is refused.
    """
    times = _time_row(times)
    dx = states[0].grid.dx
    vecs = np.column_stack([w.flat() for w in states]).astype(complex, copy=False)
    if len(vecs) != pair.dim:
        raise ValueError(f"dimension mismatch: states have {len(vecs)} rows, pair {pair.dim}")
    if not np.all(vecs.any(axis=0)):
        raise ValueError("zero initial state")
    coords = []
    for rows, W, parts, _, w_f, M in pair.split:
        c_d = _frame_coordinates(W, parts, vecs[rows])
        c_f = _coefficients(M, c_d)
        if energy_cutoff is not None:
            c_f[w_f > energy_cutoff] = 0.0
            c_d = _times(M, c_f)
        coords.append((c_d, c_f))
    if energy_cutoff is not None:
        # the squared norm of the projection: each shared block's kept coefficients, then each split block's c_f
        kept = [_coefficients(V, vecs[rows])[w <= energy_cutoff] for rows, w, V in pair.shared_solves]
        mass = sum(np.sum(np.abs(c) ** 2, axis=0) for c in kept + [c_f for _, c_f in coords])
        denom = np.sqrt(mass * dx)
        if np.any(denom == 0.0):
            raise ValueError("energy cutoff annihilated the state")
    else:
        denom = _sobolev_norms(np.stack([w.values for w in states], axis=-1), states[0].grid, states[0].eps, 2)
    squared = np.zeros(len(times) * vecs.shape[1])
    for (_, _, _, w_d, w_f, M), (c_d, c_f) in zip(pair.split, coords):
        D = _times(M, _phased(w_f, c_f, times, pair.eps))
        D -= _phased(w_d, c_d, times, pair.eps)
        # |D|^2 summed down each column, on D's float64 view: (real, imaginary) pairs of columns
        re_im = D.view(np.float64)
        squared += np.einsum("ij,ij->j", re_im, re_im).reshape(-1, 2).sum(axis=1)
    return np.sqrt(squared * dx).reshape(len(times), -1) / denom


def effective_dynamics_error(
    prop_full: SpectralPropagator | ChebyshevPropagator,
    prop_bo: SpectralPropagator | ChebyshevPropagator,
    band: BandData,
    projected: MolecularWave,
    times,
) -> np.ndarray:
    """Full evolution versus the band-identified effective evolution, one error per time.

    Measures ||(e^{-iHt/eps} - U* e^{-iH_bo t/eps} U) P psi0|| / ||P psi0||
    on the projected initial state P psi0 at each of T `times`, shape (T,).
    P is the approximate phase-space projection
    (`semiclassics.apply_phase_space_projection`) and U the band
    identification, applied fiberwise.  Each propagator applies the whole
    row in one `apply`.  The bound holds only for t inside the hitting-time
    window; `ExperimentConfig.validate()` refuses scan times outside it.
    """
    times = _time_row(times)
    nP = norm(projected)
    if nP < 1e-12:
        raise ValueError("projected initial state vanishes; state and region are disjoint")
    reduced = prop_bo.apply(u_map(projected, band).values, times)
    lifted = reduced[:, :, None] * band.chi_clamped()
    d = prop_full.apply(projected.flat(), times) - lifted.reshape(len(times), -1)
    return l2_norm(d, projected.grid.dx, axis=-1) / nP
