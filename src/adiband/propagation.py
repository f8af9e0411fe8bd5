"""Exact unitary evolution by one-time eigendecomposition, and the
decoupling / effective-dynamics error functionals.

Time stepping is exact: e^{-iHt/eps} is applied through the spectral
decomposition of the assembled operator, so every error measured here is
an adiabatic or semiclassical error of the model, never a time-integration
artifact.

A real-stored operator keeps its real eigenvectors as float64.  Its
propagator applies a vector or a block of k vectors as real products on
the block's float64 view, an (N, 2k) array of interleaved real and
imaginary parts, so one real GEMM does the work of a complex one at half
the storage.  A complex-stored operator takes the complex products.
Both storage types go through the same two products for every input
shape; the error functionals pass whole state families as one block.

Times form a row as well.  Given a 1-D array of T times, `apply` forms the
coefficients V^dag vec with one analysis product, multiplies in the phases
of every time as one (N, T k) block, and maps that block back with one
synthesis product; the batch takes N k T 16 bytes.  `decoupling_error`
passes its times through, so a scan of many times makes two such applies
per eps.

`diagonalize` solves each exactly decoupled block of an operator on its
own (`electronic.eigh_by_blocks`): a dense solve of a block of dimension
d costs d^3, so the blocks together cost far less than N^3, and an
operator of one block goes to the dense solver unchanged.  The
band-preserving generator H_diag = P H P + Q H Q commutes with P, so in
the fiber frame of P it has no entry between ran P and ran Q, and
`diagonalize_band_preserving` solves it there: at least as two blocks,
ran P (dimension r) and ran Q (N - r), and as finer ones where the model
leaves fiber components uncoupled.  `crossing_trio`'s full H splits into
blocks of 2n and n, and its H_diag for bands (0, 1) into three of n.
Either way the result is one ordinary SpectralPropagator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .electronic import BandData, eigh_by_blocks
from .grids import Grid1D, MolecularWave, NuclearWave, l2_norm, norm, sobolev_norm
from .hamiltonians import DenseHamiltonian, split_band_preserving, u_map, u_star_map

__all__ = [
    "SpectralPropagator",
    "StateBlock",
    "diagonalize",
    "diagonalize_band_preserving",
    "evolve",
    "decoupling_error",
    "effective_dynamics_error",
]


def _real_times(R: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """R @ Z for real R and a complex (N, k) block Z, as one real product on Z's float64 view."""
    return (R @ np.ascontiguousarray(Z).view(np.float64)).view(np.complex128)


def _as_block(vec) -> np.ndarray:
    """vec, (N,) or (N, k), as a complex (N, k) block.

    The rows stay the input's own, so a wrong-length input fails the
    product with the eigenvectors instead of being folded into columns.
    """
    return np.asarray(vec, dtype=complex).reshape(np.shape(vec)[0], -1)


@dataclass(frozen=True)
class SpectralPropagator:
    """Eigendecomposition of a DenseHamiltonian, reusable for any time.

    `eigenvectors` are float64 when the operator is stored real, complex128
    otherwise.
    """

    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)
    eps: float
    tag: str

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    def _coefficients(self, block: np.ndarray) -> np.ndarray:
        """V^dag block for a complex (N, k) block."""
        V = self.eigenvectors
        if V.dtype == np.float64:
            return _real_times(V.T, block)
        # V^dag block as conj(V^T conj(block)): no dim^2 conjugate copy of V
        return (V.T @ block.conj()).conj()

    def _synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """V coeffs for complex (N, k) coefficients."""
        V = self.eigenvectors
        return _real_times(V, coeffs) if V.dtype == np.float64 else V @ coeffs

    def apply(self, vec: np.ndarray, t) -> np.ndarray:
        """e^{-iHt/eps} vec without forming the dense unitary.

        vec may be one vector (N,) or a block of columns (N, k).  A scalar t
        gives a result of vec's shape.  A 1-D array of T times gives shape
        (T,) + shape(vec): the coefficients V^dag vec are formed once, the
        phases of all T times multiply them into one (N, T k) block, and
        one synthesis product maps that block back, so the batch takes
        N k T 16 bytes.
        """
        times = np.asarray(t, dtype=float)
        if times.ndim > 1:
            raise ValueError(f"t must be a scalar or a 1-D array of times, got shape {times.shape}")
        c = self._coefficients(_as_block(vec))
        phases = np.exp(-1j * self.eigenvalues[:, None] * times.reshape(-1) / self.eps)
        out = self._synthesize((c[:, None, :] * phases[:, :, None]).reshape(self.dim, -1))
        # (N, T, k) columns to one contiguous (N,) or (N, k) result per time
        out = np.ascontiguousarray(out.reshape(self.dim, times.size, -1).transpose(1, 0, 2))
        return out.reshape(times.shape + np.shape(vec))

    def energy_cutoff_apply(self, vec: np.ndarray, cutoff: float) -> np.ndarray:
        """Project vec, (N,) or (N, k), onto total energies <= cutoff."""
        c = self._coefficients(_as_block(vec))
        c[self.eigenvalues > cutoff] = 0.0
        return self._synthesize(c).reshape(np.shape(vec))


def diagonalize(H: DenseHamiltonian, validate: bool = False) -> SpectralPropagator:
    """Eigendecompose an assembled operator, one exactly decoupled block at a time.

    `eigh_by_blocks` solves each connected component of the operator's
    exact-zero pattern on its own and merges the eigenvalues in ascending
    order; an operator of one component is solved as one dense matrix.  A
    real-stored operator runs the real-symmetric solver and keeps its
    eigenvectors float64; a complex-stored one runs the Hermitian solver.
    With validate=True the reconstruction U diag(w) U^dag is checked
    against H to 1e-10 (costs two extra dense products).
    """
    w, v = eigh_by_blocks(H.matrix)
    if validate:
        recon = (v * w) @ v.conj().T
        err = np.abs(recon - H.matrix).max()
        if err > 1e-10 * max(1.0, np.abs(H.matrix).max()):
            raise AssertionError(f"eigendecomposition reconstruction error {err:.2e}")
        unit = np.abs(v.conj().T @ v - np.eye(H.dim)).max()
        if unit > 1e-11 * H.dim:
            raise AssertionError(f"eigenvector matrix not unitary ({unit:.2e})")
    return SpectralPropagator(eigenvalues=w, eigenvectors=v, eps=H.eps, tag=H.tag)


def diagonalize_band_preserving(H: DenseHamiltonian, band: BandData) -> SpectralPropagator:
    """Eigendecompose H_diag = P H P + Q H Q for the full H and the band's P.

    `split_band_preserving` gives G = W^dag H_diag W in the fiber frame
    W = blockdiag(F_i), where ran P and ran Q share no entry; `diagonalize`
    solves G block by block, at cost r^3 + (N - r)^3 or less instead of
    N^3, and its eigenvectors are lifted back as W V by fiber products,
    O(N^2 m).  Eigenvalues come out ascending; eigenvectors are float64
    when H and the frames are real, complex128 otherwise.
    """
    F, G = split_band_preserving(H, band)
    prop = diagonalize(G)
    n, m, _ = F.shape
    V = np.matmul(F, prop.eigenvectors.reshape(n, m, H.dim)).reshape(H.dim, H.dim)
    return SpectralPropagator(eigenvalues=prop.eigenvalues, eigenvectors=V, eps=H.eps, tag="diag")


def evolve(prop: SpectralPropagator, wave: NuclearWave | MolecularWave, t: float):
    """Propagate a wave for time t; norm-preserving and a one-parameter group."""
    flat = wave.values.reshape(-1)
    if len(flat) != prop.dim:
        raise ValueError(f"dimension mismatch: wave {len(flat)}, operator {prop.dim}")
    out = prop.apply(flat, t).reshape(wave.values.shape)
    return type(wave)(grid=wave.grid, values=out, eps=wave.eps)


@dataclass(frozen=True)
class StateBlock:
    """Molecular waves on one grid as the columns of an (N, k) array.

    Keeps each column's scaled second Sobolev norm, so a family applied at
    many times has its norms computed once.
    """

    grid: Grid1D
    columns: np.ndarray = field(repr=False)
    sobolev: np.ndarray = field(repr=False)

    @classmethod
    def stack(cls, waves) -> "StateBlock":
        return cls(
            grid=waves[0].grid,
            columns=np.column_stack([w.flat() for w in waves]),
            sobolev=np.array([sobolev_norm(w, 2) for w in waves]),
        )


def decoupling_error(
    prop_full: SpectralPropagator,
    prop_diag: SpectralPropagator,
    psi0: StateBlock | MolecularWave,
    t,
    energy_cutoff: float | None = None,
):
    """Distance between the full and the band-preserving evolution, per state.

    psi0 is a StateBlock of k states, applied as one (N, k) block, and the
    result holds one error per column; a single MolecularWave gives one
    float.  t is a scalar or a sequence of T times; a sequence goes to
    `SpectralPropagator.apply` as one row and adds a leading axis of T to
    the result, (T, k) or (T,).  Without a cutoff each difference is
    normalized by the scaled second Sobolev norm of its initial state
    (applied-state proxy for the operator norm on W^{2,eps}).  With a
    cutoff, the states are first projected onto total energies <= cutoff,
    once for all times, and each difference is measured relative to the
    plain L^2 norm of its projected state.
    """
    block = psi0 if isinstance(psi0, StateBlock) else StateBlock.stack([psi0])
    if np.any(block.sobolev == 0.0):
        raise ValueError("zero initial state")
    dx = block.grid.dx
    vecs = block.columns
    if energy_cutoff is not None:
        vecs = prop_full.energy_cutoff_apply(vecs, energy_cutoff)
        denom = l2_norm(vecs, dx, axis=0)
        if np.any(denom == 0.0):
            raise ValueError("energy cutoff annihilated the state")
    else:
        denom = block.sobolev
    d = prop_full.apply(vecs, t) - prop_diag.apply(vecs, t)
    errors = l2_norm(d, dx, axis=-2) / denom
    if isinstance(psi0, StateBlock):
        return errors
    return float(errors[0]) if np.ndim(t) == 0 else errors[:, 0]


def effective_dynamics_error(
    prop_full: SpectralPropagator,
    prop_bo: SpectralPropagator,
    band: BandData,
    projected: MolecularWave,
    t: float,
    delta: float = 0.5,
) -> float:
    """Full evolution versus the band-identified effective evolution.

    Measures ||(e^{-iHt/eps} - U* e^{-iH_bo t/eps} U) P psi0|| / ||P psi0||
    on the projected initial state P psi0, where P is the approximate
    phase-space projection (`semiclassics.apply_phase_space_projection`)
    and U the band identification.  The bound holds only for t inside the
    hitting-time window; `ExperimentConfig.validate()` refuses scan times
    outside it.
    """
    nP = norm(projected)
    if nP < 1e-12:
        raise ValueError("projected initial state vanishes; state and region are disjoint")
    reduced = evolve(prop_bo, u_map(projected, band, delta), t)
    d = prop_full.apply(projected.flat(), t) - u_star_map(reduced, band, delta).flat()
    return l2_norm(d, projected.grid.dx) / nP
