"""Exact unitary evolution by one-time eigendecomposition, and the
decoupling / effective-dynamics error functionals.

Time stepping is exact: e^{-iHt/eps} is applied through the spectral
decomposition of the assembled operator, so every error measured here is
an adiabatic or semiclassical error of the model, never a time-integration
artifact.

A propagator is stored as blocks.  The block structure is decided in
`hamiltonians`: the scans assemble the molecular H by its exactly
decoupled blocks (`hamiltonians.assemble_blocks`, read from the fibers'
pattern), and `diagonalize_blocks` solves each on its own: a dense solve
of a block of dimension d costs d^3, so the blocks together cost far less
than N^3.  `diagonalize` solves the operator it is given as one dense
block and reads no pattern.  Each block keeps its rows, its d eigenvalues
and its eigenvectors on those rows only.  The blocks split the rows into
disjoint sets, so `apply` works block by block and writes each block's
product into its own rows: an apply costs the sum over blocks of rows x d
per column instead of N^2.  An operator of one block (every
Born-Oppenheimer H, the full H of `rotated_pair`, `two_band_complex` and
`free`) is one block over all rows, solved and applied by the dense
products unchanged.

The band-preserving generator H_diag = P H P + Q H Q has the blocks of H,
and its propagator has the full propagator's block partition: one triple
per block of H, in H's order, on the same rows
(`diagonalize_band_preserving`).  Where P is 0 or 1 on a whole block of
H, H_diag equals H there, and the triple is the full propagator's: the
same object, solved once.  Every other block of H_diag commutes with P,
so in the frame of P's fiber blocks on it, it is its ran P part plus its
ran Q part (`hamiltonians.split_band_preserving`); each part is solved on
its own, and both are lifted back into the one triple of that block.
`crossing_trio`'s full H splits into blocks of 2n and n.  For bands
(0, 1), P is 1 on the n block at every point, so H_diag shares it and
solves the 2n block again as two parts of n; with a window, P is 1 inside
and 0 outside, and no block is shared.

A real-stored operator keeps its real eigenvectors as float64.  Its
propagator applies a vector or a block of k vectors as real products on
the block's float64 view, an (N, 2k) array of interleaved real and
imaginary parts, so one real GEMM does the work of a complex one at half
the storage.  A complex-stored operator takes the complex products.
Both storage types go through the same two products per block for every
input shape.

Times form a row as well.  Given a 1-D array of T times, `apply` forms
each block's coefficients V^dag vec with one analysis product, multiplies
in the phases of every time as one (d, T k) block, and maps that block
back with one synthesis product; the batch takes N k T 16 bytes.

The error functionals have one call form: a row of T times goes in (and,
for `decoupling_error`, a list of k molecular waves, applied as one (N, k)
block), and one error per time comes out, (T, k) or (T,).  Each
propagator applies the whole row in one `apply`, so a scan of many times
makes one apply per propagator and eps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .electronic import BandData
from .grids import MolecularWave, NuclearWave, l2_norm, norm, sobolev_norm
from .hamiltonians import BlockHamiltonian, DenseHamiltonian, split_band_preserving, u_map

__all__ = [
    "SpectralPropagator",
    "diagonalize",
    "diagonalize_blocks",
    "diagonalize_band_preserving",
    "evolve",
    "decoupling_error",
    "effective_dynamics_error",
]


def _real_times(R: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """R @ Z for real R and a complex (N, k) block Z, as one real product on Z's float64 view."""
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


@dataclass(frozen=True)
class SpectralPropagator:
    """Eigendecomposition of a DenseHamiltonian, reusable for any time, stored block by block.

    `blocks` holds one (rows, eigenvalues, eigenvectors) triple per exactly
    decoupled block: the block's d eigenpairs, with eigenvectors of shape
    (len(rows), d) whose entries outside `rows` are exactly zero and are not
    stored.  The blocks' rows split range(N) into disjoint sets.  An
    operator of one block is ((slice(None), w, V),), the dense pair itself.
    Eigenvalues are ascending within a solved block; a block of H_diag
    split into ran P and ran Q lists its ran P part's, then its ran Q
    part's, and no order is kept across blocks.  Eigenvectors are float64
    when the operator and its frames are stored real, complex128 otherwise.
    """

    blocks: tuple = field(repr=False)
    eps: float
    tag: str

    @property
    def dim(self) -> int:
        return sum(len(w) for _, w, _ in self.blocks)

    def _map(self, vec, coefficient_map) -> np.ndarray:
        """V coefficient_map(w, V^dag vec[rows]) of every block, written into its rows.

        vec, (N,) or (N, k), is taken as a complex (N, k) block; a wrong
        row count is refused rather than folded into columns.  The result
        has N rows and the mapped coefficients' column count.
        """
        block = np.asarray(vec, dtype=complex).reshape(np.shape(vec)[0], -1)
        if len(block) != self.dim:
            raise ValueError(f"dimension mismatch: vector has {len(block)} rows, operator {self.dim}")
        out = None
        for rows, w, V in self.blocks:
            part = _synthesize(V, coefficient_map(w, _coefficients(V, block[rows])))
            if isinstance(rows, slice):
                # the one block over every row: its product is the result
                return part
            if out is None:
                out = np.empty((len(block), part.shape[1]), dtype=complex)
            out[rows] = part
        return out

    def apply(self, vec: np.ndarray, t) -> np.ndarray:
        """e^{-iHt/eps} vec without forming the dense unitary.

        vec may be one vector (N,) or a block of columns (N, k).  A scalar t
        gives a result of vec's shape.  A 1-D array of T times gives shape
        (T,) + shape(vec): per block, the coefficients V^dag vec are formed
        once, the phases of all T times multiply them into one (d, T k)
        block, and one synthesis product maps that block back, so the batch
        takes N k T 16 bytes.
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
    """One block's solved parts (idx, w, V) in the frame W, as the pair (w, blockdiag(W_i) Z).

    W is (n, d, d) and idx holds a part's ascending frame-basis indices
    i d + c.  The parts' eigenvectors sit side by side, in order, as the
    columns of Z, each zero off its own idx, and their eigenvalues are
    joined in the same order.  The lift is a fiber product, O(n d^2) per
    eigenvector.
    """
    n, d, _ = W.shape
    Z = np.zeros((n * d, n * d), dtype=np.result_type(*(V for *_, V in parts)))
    start = 0
    for idx, _, V in parts:
        Z[idx, start : start + V.shape[1]] = V
        start += V.shape[1]
    return np.concatenate([w for _, w, _ in parts]), np.matmul(W, Z.reshape(n, d, -1)).reshape(n * d, -1)


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
    there, and the triple is full's, the same object.  Every other block
    of H is split in the frame of P's fiber blocks into its ran P and ran Q
    parts (`split_band_preserving`); `diagonalize` solves each part, at
    cost r^3 + (b - r)^3 for a block of dimension b with a ran P part of
    dimension r, instead of b^3, and `_lift` maps both back, by
    fiber products, into the block's one triple, ran P part first.  The
    eigenvectors are float64 when H and the frames are real, complex128
    otherwise.
    """
    if (full.dim, len(full.blocks), full.eps) != (H.dim, len(H.blocks), H.eps):
        raise ValueError("full is not the block-by-block propagator of H")
    blocks = []
    for triple, entry in zip(full.blocks, split_band_preserving(H, band)):
        if entry is None:
            blocks.append(triple)
            continue
        W, parts = entry
        solved = [(idx,) + diagonalize(G).blocks[0][1:] for idx, G in parts]
        blocks.append((triple[0],) + _lift(W, solved))
    return SpectralPropagator(blocks=tuple(blocks), eps=H.eps, tag="diag")


def evolve(prop: SpectralPropagator, wave: NuclearWave | MolecularWave, t: float):
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


def decoupling_error(
    prop_full: SpectralPropagator,
    prop_diag: SpectralPropagator,
    states: list,
    times,
    energy_cutoff: float | None = None,
) -> np.ndarray:
    """Distance between the full and the band-preserving evolution, per time and state.

    `states` is a list of k molecular waves on the propagators' grid and
    `times` a sequence of T times; the result is (T, k).  The states go to
    each propagator's `apply` as one (N, k) block with the whole row of
    times, so a family at many times costs one apply per propagator.
    Without a cutoff each difference is normalized by the scaled second
    Sobolev norm of its initial state (applied-state proxy for the
    operator norm on W^{2,eps}).  With a cutoff, the states are first
    projected onto total energies <= cutoff, once for all times, and each
    difference is measured relative to the plain L^2 norm of its projected
    state.  A zero state, or one the cutoff annihilates, is refused.
    """
    times = _time_row(times)
    dx = states[0].grid.dx
    vecs = np.column_stack([w.flat() for w in states])
    if not np.all(vecs.any(axis=0)):
        raise ValueError("zero initial state")
    if energy_cutoff is not None:
        vecs = prop_full.energy_cutoff_apply(vecs, energy_cutoff)
        denom = l2_norm(vecs, dx, axis=0)
        if np.any(denom == 0.0):
            raise ValueError("energy cutoff annihilated the state")
    else:
        denom = np.array([sobolev_norm(w, 2) for w in states])
    d = prop_full.apply(vecs, times) - prop_diag.apply(vecs, times)
    return l2_norm(d, dx, axis=-2) / denom


def effective_dynamics_error(
    prop_full: SpectralPropagator,
    prop_bo: SpectralPropagator,
    band: BandData,
    projected: MolecularWave,
    times,
    delta: float = 0.5,
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
    reduced = prop_bo.apply(u_map(projected, band, delta).values, times)
    lifted = reduced[:, :, None] * band.chi_clamped(delta / 2)
    d = prop_full.apply(projected.flat(), times) - lifted.reshape(len(times), -1)
    return l2_norm(d, projected.grid.dx, axis=-1) / nP
