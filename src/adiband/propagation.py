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
H (`diagonalize` of `assemble_bo` or `assemble_full`) stay as the tests'
oracles and the `identities` suite's, and `diagonalize_blocks` solves
the decoupling pair's full H.  On the effective-ladder benchmark the
matrix-free errors lie within 5.2e-11 relative of the dense references,
at the eps = 0.025 point, inside their 1e-10 gate, and they are the same
floats at one and two BLAS threads, where the dense full H moved that
point by 4.5e-11.  Each term of the recurrence is one step of two FFTs
along a contiguous axis, the symbol's product and V's, run in place on
the grid-last layout (m, k, n) (`ChebyshevPropagator`,
`hamiltonians.FiberedOperator.action`), allocating only V's products.
The decoupling pair stays dense for two reasons.  It applies a family of
states to both H and H_diag, whose shared and split blocks are cheaper
dense: at n = 512 the dense pair takes 0.41-0.49 s per eps against
1.2-2.1 s by Chebyshev.  And `SpectralPropagator.energy_cutoff_apply`
projects onto total energies by the eigenpairs.

A propagator is stored as blocks.  The block structure is decided in
`hamiltonians`: the decoupling scans assemble the molecular H by its exactly
decoupled blocks (`hamiltonians.assemble_blocks`, read from the fibers'
pattern), and `diagonalize_blocks` solves each on its own: a dense solve
of a block of dimension d costs d^3, so the blocks together cost far less
than N^3.  `diagonalize` solves the operator it is given as one dense
block and reads no pattern.  Each block keeps its rows, its d eigenvalues
and its eigenvectors on those rows only, stored as a (rows, d) matrix or,
for a split block of H_diag, in the frame form below.  The blocks split
the rows into disjoint sets, so `apply` works block by block and writes
each block's product into its own rows: an apply costs the sum over
blocks of rows x d per column instead of N^2 (r^2 + (b - r)^2, plus the
O(b d) fiber products, for a split block of dimension b with a ran P
part of dimension r).  An operator of one block (the full H of
`rotated_pair`, `two_band_complex` and `free`, or a dense Born-Oppenheimer
oracle) is one block over all rows, solved and applied by the dense
products unchanged.

The band-preserving generator H_diag = P H P + Q H Q has the blocks of H,
and its propagator has the full propagator's block partition: one triple
per block of H, in H's order, on the same rows
(`diagonalize_band_preserving`).  Where P is 0 or 1 on a whole block of
H, H_diag equals H there, and the triple is the full propagator's: the
same object, solved once.  Every other block of H_diag commutes with P,
so in the frame W of P's fiber blocks on it, it is its ran P part plus
its ran Q part (`hamiltonians.split_band_preserving`); each part is
solved on its own and kept on its own frame indices.  The block's triple
holds them in the frame form (W, parts): an apply takes the block into
the frame by W^dag, fiber by fiber, maps each part by its own products,
and takes the result back by W.  No b x b eigenvector matrix of the block
is formed.  `crossing_trio`'s full H splits into blocks of 2n and n.  For
bands (0, 1), P is 1 on the n block at every point, so H_diag shares it
and keeps the 2n block as two parts of n; with a window, P is 1 inside
and 0 outside, and no block is shared.  `decoupling_error` drops the
rows of every shared triple, where the two evolutions are the same
products, and applies the pair on the other rows only.

A real-stored operator keeps its real eigenvectors as float64.  Its
propagator applies a vector or a block of k vectors as real products on
the block's float64 view, an (N, 2k) array of interleaved real and
imaginary parts, so one real GEMM does the work of a complex one at half
the storage.  A complex-stored operator takes the complex products.
Both storage types go through the same two products per block for every
input shape.

Times form a row as well.  Given a 1-D array of T times, `apply` forms
the coefficients V^dag vec of each block, or of each part of a split
block, with one analysis product, multiplies in the phases of every time
as one (d, T k) block, and maps that block back with one synthesis
product; the batch takes N k T 16 bytes.

The error functionals have one call form: a row of T times goes in (and,
for `decoupling_error`, a list of k molecular waves, applied as one (N, k)
block), and one error per time comes out, (T, k) or (T,).  Each
propagator applies the whole row in one `apply`, so a scan of many times
makes one apply per propagator and eps.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .electronic import BandData
from .grids import MolecularWave, NuclearWave, l2_norm, norm, sobolev_norm
from .hamiltonians import BlockHamiltonian, DenseHamiltonian, FiberedOperator, split_band_preserving, u_map

__all__ = [
    "SpectralPropagator",
    "ChebyshevPropagator",
    "diagonalize",
    "diagonalize_blocks",
    "diagonalize_band_preserving",
    "evolve",
    "decoupling_error",
    "effective_dynamics_error",
]


def _real_times(R: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """R @ Z for real R and a complex block Z, (N, k) or a stack of them, as one real product on Z's float64 view."""
    return (R @ np.ascontiguousarray(Z).view(np.float64)).view(np.complex128)


def _coefficients(V: np.ndarray, block: np.ndarray) -> np.ndarray:
    """V^dag block for a complex (rows, k) block."""
    if V.dtype == np.float64:
        return _real_times(V.T, block)
    # V^dag block as conj(V^T conj(block)): no conjugate copy of V
    return (V.T @ block.conj()).conj()


def _synthesize(V: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """V coeffs for complex (d, k) coefficients."""
    return _real_times(V, coeffs) if V.dtype == np.float64 else V @ coeffs


def _by_fibers(W: np.ndarray, block: np.ndarray) -> np.ndarray:
    """blockdiag(W_i) block for an (n, d, d) stack W and a complex (n d, k) block, fiber by fiber."""
    n, d, _ = W.shape
    fibers = block.reshape(n, d, -1)
    return (_real_times(W, fibers) if W.dtype == np.float64 else W @ fibers).reshape(n * d, -1)


def _map_blocks(blocks, block: np.ndarray, coefficient_map) -> np.ndarray:
    """V coefficient_map(w, V^dag block[rows]) of every (rows, w, V) triple, written into its rows.

    V is a block's eigenvectors on its rows, or its frame form (W, parts):
    there the block's rows go into the frame by W^dag, fiber by fiber, this
    same loop maps each part (idx, w, V) on its own frame indices, analysis,
    coefficient map and synthesis, and W takes the result back.  The rows
    of the triples are disjoint, so each product is assigned, not added.
    """
    out = None
    for rows, w, V in blocks:
        if isinstance(V, tuple):
            W, parts = V
            in_frame = _by_fibers(W.conj().transpose(0, 2, 1), block[rows])
            part = _by_fibers(W, _map_blocks(parts, in_frame, coefficient_map))
        else:
            part = _synthesize(V, coefficient_map(w, _coefficients(V, block[rows])))
        if isinstance(rows, slice):
            # the one block over every row: its product is the result
            return part
        if out is None:
            out = np.empty((len(block), part.shape[1]), dtype=complex)
        out[rows] = part
    return out


@dataclass(frozen=True)
class SpectralPropagator:
    """Eigendecomposition of a DenseHamiltonian, reusable for any time, stored block by block.

    `blocks` holds one (rows, eigenvalues, eigenvectors) triple per exactly
    decoupled block: the block's d eigenpairs, with entries outside `rows`
    exactly zero and not stored.  The blocks' rows split range(N) into
    disjoint sets.  The eigenvectors are one of two forms:

    - a (len(rows), d) matrix.  An operator of one block is
      ((slice(None), w, V),), the dense pair itself.
    - the frame form (W, parts) of a block of H_diag split into its ran P
      and ran Q parts: W, (n, d_f, d_f), is the frame of P's fiber blocks
      on the block, and parts holds one (idx, w, V) triple per part, ran P
      first, with idx the part's ascending frame-basis indices i d_f + c
      and V its eigenvectors on idx.  The block's eigenvalues join the
      parts' in that order.

    Eigenvalues are ascending within a solved block or part, and no order
    is kept across blocks.  Eigenvectors and frames are float64 when the
    operator and its frames are stored real, complex128 otherwise.
    """

    blocks: tuple = field(repr=False)
    eps: float
    tag: str

    @property
    def dim(self) -> int:
        return sum(len(w) for _, w, _ in self.blocks)

    def _map(self, vec, coefficient_map) -> np.ndarray:
        """V coefficient_map(w, V^dag vec[rows]) of every block, written into its rows (`_map_blocks`).

        vec, (N,) or (N, k), is taken as a complex (N, k) block; a wrong
        row count is refused rather than folded into columns.  The result
        has N rows and the mapped coefficients' column count.
        """
        block = np.asarray(vec, dtype=complex).reshape(np.shape(vec)[0], -1)
        if len(block) != self.dim:
            raise ValueError(f"dimension mismatch: vector has {len(block)} rows, operator {self.dim}")
        return _map_blocks(self.blocks, block, coefficient_map)

    def apply(self, vec: np.ndarray, t) -> np.ndarray:
        """e^{-iHt/eps} vec without forming the dense unitary.

        vec may be one vector (N,) or a block of columns (N, k).  A scalar t
        gives a result of vec's shape.  A 1-D array of T times gives shape
        (T,) + shape(vec): per block (per part of a split block), the
        coefficients V^dag vec are formed once, the phases of all T times
        multiply them into one (d, T k) block, and one synthesis product
        maps that block back, so the batch takes N k T 16 bytes.
        """
        times = np.asarray(t, dtype=float)
        if times.ndim > 1:
            raise ValueError(f"t must be a scalar or a 1-D array of times, got shape {times.shape}")

        def phased(w, c):
            phases = np.exp(-1j * w[:, None] * times.reshape(-1) / self.eps)
            return (c[:, None, :] * phases[:, :, None]).reshape(len(w), -1)

        out = self._map(vec, phased)
        # (N, T, k) columns to one contiguous (N,) or (N, k) result per time
        out = np.ascontiguousarray(out.reshape(self.dim, times.size, -1).transpose(1, 0, 2))
        return out.reshape(times.shape + np.shape(vec))

    def energy_cutoff_apply(self, vec: np.ndarray, cutoff: float) -> np.ndarray:
        """Project vec, (N,) or (N, k), onto total energies <= cutoff."""

        def kept(w, c):
            c[w > cutoff] = 0.0
            return c

        return self._map(vec, kept).reshape(np.shape(vec))


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

    The propagator holds the one triple (slice(None), w, V) of
    `np.linalg.eigh` of H's matrix; the block structure is the caller's,
    who passes each block on its own (`diagonalize_blocks`,
    `diagonalize_band_preserving`).  A real-stored operator runs the
    real-symmetric solver and keeps its eigenvectors float64; a
    complex-stored one runs the Hermitian solver.  With validate=True the
    reconstruction V diag(w) V^dag is checked against H to 1e-10 relative,
    and the eigenvectors for orthonormality to 1e-11 times H's dimension
    (two extra dense products).
    """
    w, v = np.linalg.eigh(H.matrix)
    if validate:
        err = np.abs((v * w) @ v.conj().T - H.matrix).max()
        if err > 1e-10 * max(1.0, np.abs(H.matrix).max()):
            raise AssertionError(f"eigendecomposition reconstruction error {err:.2e}")
        unit = np.abs(v.conj().T @ v - np.eye(len(w))).max()
        if unit > 1e-11 * len(w):
            raise AssertionError(f"eigenvector matrix not unitary ({unit:.2e})")
    return SpectralPropagator(blocks=((slice(None), w, v),), eps=H.eps, tag=H.tag)


def _lift(W: np.ndarray, parts: list) -> tuple:
    """One block's solved parts (idx, w, V) in the frame W, as the pair (w, (W, parts)) of its triple.

    W is (n, d, d) and idx holds a part's ascending frame-basis indices
    i d + c; V is the part's eigenvectors on idx alone.  w joins the
    parts' eigenvalues in order, and each part keeps its own as a view of
    w.  No eigenvector is lifted: `_map_blocks` applies W and W^dag fiber
    by fiber, O(n d^2) per column, around the parts' own products.
    """
    w = np.concatenate([pw for _, pw, _ in parts])
    views = np.split(w, np.cumsum([len(pw) for _, pw, _ in parts])[:-1])
    return w, (W, tuple((idx, pw, V) for (idx, _, V), pw in zip(parts, views)))


def diagonalize_blocks(H: BlockHamiltonian) -> SpectralPropagator:
    """Eigendecompose a block-stored H, each block by `diagonalize`.

    The propagator holds one (rows, eigenvalues, eigenvectors) triple per
    block of H, in H's order, with the block's molecular rows; with one
    block it is `diagonalize` of that block itself, rows slice(None).
    """
    if len(H.blocks) == 1:
        return diagonalize(H.blocks[0][1])
    triples = []
    for comp, block in H.blocks:
        ((_, w, V),) = diagonalize(block).blocks
        triples.append((H.rows(comp), w, V))
    return SpectralPropagator(blocks=tuple(triples), eps=H.eps, tag="full")


def diagonalize_band_preserving(H: BlockHamiltonian, band: BandData, full: SpectralPropagator) -> SpectralPropagator:
    """Eigendecompose H_diag = P H P + Q H Q for the block-stored H and the band's P.

    `full` is `diagonalize_blocks(H)`, and the propagator has its block
    partition: one triple per block of H, in H's order, on full's rows for
    that block.  Where P is 0 or 1 on a whole block of H, H_diag equals H
    there, and the triple is full's, the same object; its eigenvalues must
    sum to the trace of H's block to 1e-10 of their absolute sum, an O(d)
    check that refuses the full propagator of another H.  Every other
    block of H is split in the frame of P's fiber blocks into its ran P
    and ran Q parts (`split_band_preserving`); `diagonalize` solves each
    part, at cost r^3 + (b - r)^3 for a block of dimension b with a ran P
    part of dimension r, instead of b^3, and `_lift` keeps both in the
    block's frame form, ran P part first, with r^2 + (b - r)^2 eigenvector
    entries instead of b^2.  The eigenvectors are float64 when H and the
    frames are real, complex128 otherwise.
    """
    if (full.dim, len(full.blocks), full.eps) != (H.dim, len(H.blocks), H.eps):
        raise ValueError("full is not the block-by-block propagator of H")
    blocks = []
    for (_, block), triple, entry in zip(H.blocks, full.blocks, split_band_preserving(H, band)):
        if entry is None:
            # the eigenvalues of a shared triple sum to the trace of its block of H
            w = triple[1]
            if abs(w.sum() - np.trace(block.matrix)) > 1e-10 * np.abs(w).sum():
                raise ValueError("full is not the block-by-block propagator of H")
            blocks.append(triple)
            continue
        W, parts = entry
        solved = [(idx,) + diagonalize(G).blocks[0][1:] for idx, G in parts]
        blocks.append((triple[0],) + _lift(W, solved))
    return SpectralPropagator(blocks=tuple(blocks), eps=H.eps, tag="diag")


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


def _unshared(prop_full: SpectralPropagator, prop_diag: SpectralPropagator) -> tuple:
    """(rows, pair, shared): the rows on which the two propagators share no triple, both restricted to them, and the shared triples.

    A triple that is the same object in both propagators gives both
    evolutions the same products on its rows, so their difference there is
    exactly zero.  `rows` indexes the remaining rows, and each propagator
    of `pair` holds its other triples, renumbered onto them; with nothing
    shared that is (slice(None), (prop_full, prop_diag), ()), and with
    every row shared `pair` is empty.  `shared` holds the shared triples,
    in prop_full's order.
    """
    shared = {id(b) for b in prop_full.blocks} & {id(b) for b in prop_diag.blocks}
    if not shared:
        return slice(None), (prop_full, prop_diag), ()
    keep = np.ones(prop_full.dim, dtype=bool)
    for b in prop_full.blocks:
        if id(b) in shared:
            keep[b[0]] = False
    triples = tuple(b for b in prop_full.blocks if id(b) in shared)
    if not keep.any():
        return keep, (), triples
    renumber = np.cumsum(keep) - 1
    pair = tuple(
        replace(prop, blocks=tuple((renumber[b[0]],) + b[1:] for b in prop.blocks if id(b) not in shared))
        for prop in (prop_full, prop_diag)
    )
    return keep, pair, triples


def _kept_mass(triple: tuple, block: np.ndarray, cutoff: float) -> np.ndarray:
    """sum |c|^2 per column over the coefficients c = V^dag block[rows] of a (rows, w, V) triple's eigenvalues <= cutoff.

    V is orthonormal, so this is the squared norm of block's projection
    onto those eigenvalues, by one analysis product and no synthesis.
    """
    rows, w, V = triple
    c = _coefficients(V, block[rows])[w <= cutoff]
    return np.sum(np.abs(c) ** 2, axis=0)


def decoupling_error(
    prop_full: SpectralPropagator,
    prop_diag: SpectralPropagator,
    states: list,
    times,
    energy_cutoff: float | None = None,
) -> np.ndarray:
    """Distance between the full and the band-preserving evolution, per time and state.

    `states` is a list of k molecular waves on the propagators' grid and
    `times` a sequence of T times; the result is (T, k).  On the rows of a
    triple that both propagators hold, the same object, the two evolutions
    are the same products and their difference is exactly zero, so those
    rows are dropped (`_unshared`).  The states' other rows go to each
    propagator's `apply` as one block with the whole row of times, so a
    family at many times costs one apply per propagator; when every row is
    shared, the result is zero and nothing is applied.  Without a cutoff
    each difference is normalized by the scaled second Sobolev norm of its
    initial state (applied-state proxy for the operator norm on
    W^{2,eps}).  With a cutoff, the states are first projected onto total
    energies <= cutoff, once for all times, and each difference is
    measured relative to the plain L^2 norm of its projected state.  The
    projection is formed on the unshared rows only; a shared triple's rows
    enter only that norm, and there its share is the norm of the kept
    coefficients (`_kept_mass`).  A zero state, or one the cutoff
    annihilates, is refused.
    """
    times = _time_row(times)
    dx = states[0].grid.dx
    vecs = np.column_stack([w.flat() for w in states]).astype(complex, copy=False)
    if not np.all(vecs.any(axis=0)):
        raise ValueError("zero initial state")
    rows, pair, shared = _unshared(prop_full, prop_diag)
    vecs_rows = vecs[rows] if pair else None
    if energy_cutoff is not None:
        mass = sum(_kept_mass(triple, vecs, energy_cutoff) for triple in shared)
        if pair:
            vecs_rows = pair[0].energy_cutoff_apply(vecs_rows, energy_cutoff)
            mass = mass + np.sum(np.abs(vecs_rows) ** 2, axis=0)
        denom = np.sqrt(mass * dx)
        if np.any(denom == 0.0):
            raise ValueError("energy cutoff annihilated the state")
    else:
        denom = np.array([sobolev_norm(w, 2) for w in states])
    if not pair:
        return np.zeros((len(times), vecs.shape[1]))
    d = pair[0].apply(vecs_rows, times) - pair[1].apply(vecs_rows, times)
    return l2_norm(d, dx, axis=-2) / denom


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
