"""Hermitian operators on the discretized molecular and nuclear spaces, dense or by blocks.

Matrices act on value vectors; molecular vectors are grid-major, entry
``i*m + a`` holding fiber component ``a`` at grid point ``X_i``.  The
nuclear kinetic energy is assembled exactly, as the circulant of its
symbol, so the only approximation anywhere is the spatial discretization.

The molecular Hamiltonian is stored as its exactly decoupled blocks
(`assemble_blocks`, a `BlockHamiltonian`).  The kinetic term couples
every grid point of one fiber component, and H_e(X_i) couples components
only where its entries are nonzero, so the blocks of H are the connected
components of the m x m union over the grid of the fibers' exact-zero
pattern, each over the rows i m + a of its components a.  Each block is
built directly on its rows and checked as a DenseHamiltonian; no N x N
matrix is formed.  `assemble_full` scatters the same blocks into the dense
N x N H, for the dense oracles, `identities.offdiag_scaling` and the
demos.  Most models are one block; `crossing_trio`, whose -X level
couples to nothing, is two (2n and n), and so is `constant_fiber`.

Operators are stored real (float64) when their data is real.  The
molecular Hamiltonian has no vector potential, so its kinetic term is
always real and `assemble_blocks` stores every block real whenever the
model's H_e(X_i) all have exactly zero imaginary part.  A band projection
with real fiber blocks is real, and so is the effective Hamiltonian of
`assemble_bo` when its gauge field, the clamped A_geo, is zero on the
grid, as it is for a band with a real frame or with the connection
dropped.  Real storage sends `eigh` to the real-symmetric solver, several
times faster than the complex one.  Complex data (complex fibers, a
nonzero A_geo) keeps complex128.  This module is the only place that
decides the storage type of an operator; `assemble_diag` and
`split_band_preserving` follow the dtype of their inputs.

The band projection P and the identification U act pointwise in X, so the
package carries them as the band's fiber data: the m x m fiber blocks of
P (`_fiber_blocks`, the one source of them) and their orthonormal frames.
P is a function of H_e(X_i) at each point, so it couples no two blocks of
H, and the band-preserving H_diag = P H P + Q H Q commutes with P: its
blocks are known by construction, each block of H split into its ran P
and ran Q parts.  `split_band_preserving` builds them.  On a block where P
is 0 at every grid point, or 1 at every grid point, H_diag equals H, and
the block is shared.  Every other block is written in the frame columns
that span its fibers and restricted to the ran P columns, and to the
ran Q columns: two checked operators, from which the scans build the
propagator.  A P that couples two blocks of H is refused.  This module
decides every block the scans solve; no N x N exact-zero pattern is read.
`assemble_diag` forms H_diag densely; no package code calls it, and it
stays as the tests' oracle of the split solve and a span the benchmark
traces.  `u_map` / `u_star_map` apply U fiberwise.  `full_projection` and
`u_matrix` build the dense N x N and n x N matrices; they are the oracles
the tests compare against.

Band functions defined on an isolation window are extended to the whole
periodic box before entering an operator.  The band energy and the
geometric vector potential (`clamp_field`, window shrunk by delta/5) keep
value and first derivative at the clamp boundary, turn constant beyond a
short ramp, and have the two constants blended across the periodic seam.
The eigenvector frame (`BandData.chi_clamped`, window shrunk by delta/2)
holds its boundary value: it is constant beyond each boundary point.
States in all experiments stay far from both the window edge and the seam,
so the extension policy only has to keep operators bounded and smooth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .electronic import BandData, _coupled_components, berry_connection, eigh_by_blocks, fd_derivative
from .grids import Grid1D, MolecularWave, NuclearWave, fourier_multiplier_matrix
from .indicators import ramp_to_constant, smooth_step
from .models import ElectronicModel

__all__ = [
    "DenseHamiltonian",
    "BlockHamiltonian",
    "assemble_blocks",
    "assemble_full",
    "assemble_diag",
    "split_band_preserving",
    "assemble_bo",
    "full_projection",
    "u_matrix",
    "u_map",
    "u_star_map",
    "clamp_field",
    "kinetic_matrix",
]


@dataclass(frozen=True)
class DenseHamiltonian:
    """An assembled Hermitian operator with its discretization metadata.

    The raw assembly is checked for Hermiticity to 1e-12 relative; the
    stored matrix is its Hermitian part (M + M^dag) / 2, exactly Hermitian.
    A non-finite entry makes its entry of M - M^dag non-finite (inf - inf
    is nan), so the residual refuses it too.  The residual and then the
    Hermitian part are formed in one buffer of M's size.
    """

    matrix: np.ndarray = field(repr=False)
    eps: float
    tag: str
    grid: Grid1D
    fiber_dim: int

    def __post_init__(self):
        M = self.matrix
        S = np.empty_like(M)
        with np.errstate(invalid="ignore"):
            np.subtract(M, np.conjugate(M.T, out=S), out=S)
            # the largest modulus of real data without a |M - M^dag| temporary
            herm = np.abs(S).max() if np.iscomplexobj(S) else max(S.max(), -S.min())
        if not np.isfinite(herm):
            raise AssertionError(f"{self.tag}: non-finite entries")
        # the scale is at least 1, so a residual under 1e-12 passes without it
        if herm > 1e-12 and herm > 1e-12 * np.abs(M).max():
            raise AssertionError(f"{self.tag}: non-Hermitian assembly ({herm:.2e})")
        np.add(M, np.conjugate(M.T, out=S), out=S)
        S *= 0.5
        object.__setattr__(self, "matrix", S)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def kinetic_matrix(grid: Grid1D, eps: float, a_vals: np.ndarray | None = None) -> np.ndarray:
    """Covariant kinetic operator (eps*(-i d/dX) + eps*A(X))^2 / 2, dense.

    `a_vals` holds the vector potential A sampled on the grid (None: zero).
    With Phi = exp(i Theta), Theta' = A - mean(A), the phase-dressed
    derivative M = Phi^* D Phi + mean(A) equals -i d/dX + A(X) to spectral
    accuracy on resolved states, and a periodic gauge shift theta conjugates
    it exactly (the antiderivative map is linear and lattice-exact on
    band-limited fields).  Since |Phi| = 1, M^2 = Phi^* (D + mean(A))^2 Phi,
    and (D + mean(A))^2 is the Fourier multiplier of (k + mean(A))^2, so one
    construction serves every field: Phi^* C Phi, with C the circulant of
    the symbol (eps (k + mean(A)))^2 / 2.  At zero field (None, or all
    zeros) Phi = 1, so C is returned directly: the symbol is even on the
    lattice (the Nyquist mode pairs with itself), so C is real up to
    rounding and is stored as its real part.
    """
    if a_vals is None or not np.any(a_vals):
        return fourier_multiplier_matrix((eps * grid.k) ** 2 / 2).real.copy()
    a_bar = float(a_vals.mean())
    ft = np.fft.fft(a_vals - a_bar)
    with np.errstate(divide="ignore", invalid="ignore"):
        ft_theta = np.where(grid.k != 0.0, ft / (1j * grid.k), 0.0)
    phase = np.exp(1j * np.fft.ifft(ft_theta).real)
    C = fourier_multiplier_matrix((eps * (grid.k + a_bar)) ** 2 / 2)
    return phase.conj()[:, None] * C * phase[None, :]


@dataclass(frozen=True)
class BlockHamiltonian:
    """The molecular H stored as its exactly decoupled blocks.

    `blocks` holds one (component, DenseHamiltonian) pair per connected
    component of the union over the grid of the fibers' exact-zero pattern:
    component is the block's ascending fiber indices, and its
    DenseHamiltonian (fiber dimension len(component)) acts on the molecular
    rows `rows(component)`, i m + a for a in the component, in ascending
    order.  The kinetic term couples every grid point of a fiber index, so
    each block is connected and H has no entry between two blocks.
    """

    blocks: tuple = field(repr=False)
    eps: float
    grid: Grid1D
    fiber_dim: int

    @property
    def dim(self) -> int:
        return self.grid.n_points * self.fiber_dim

    def rows(self, component: np.ndarray) -> np.ndarray:
        """The ascending molecular rows i m + a of the fiber indices a in `component`."""
        return (np.arange(self.grid.n_points)[:, None] * self.fiber_dim + component).ravel()


def assemble_blocks(model: ElectronicModel, grid: Grid1D, eps: float) -> BlockHamiltonian:
    """Molecular Hamiltonian, kinetic term tensor identity plus fiberwise H_e(X_i), by blocks.

    The blocks are the connected components of the m x m union over the grid
    of the fibers' exact-zero pattern (`crossing_trio`: {0, 2} and {1}), and
    each block's matrix is built directly on its rows; no N x N matrix is
    formed.  The kinetic term is real; H is stored real when every H_e(X_i)
    has zero imaginary part.
    """
    n, m = grid.n_points, model.fiber_dim
    T = kinetic_matrix(grid, eps)
    fibers = model.h_batch(grid.x)
    if not np.any(fibers.imag):
        fibers = fibers.real
    diag = np.arange(n)
    blocks = []
    for comp in _coupled_components((fibers != 0).any(axis=0)):
        d = len(comp)
        H = np.zeros((n * d, n * d), dtype=fibers.dtype)
        view = H.reshape(n, d, n, d)
        for a in range(d):
            view[:, a, :, a] = T
        view[diag, :, diag, :] += fibers[:, comp[:, None], comp]
        blocks.append((comp, DenseHamiltonian(matrix=H, eps=eps, tag="full", grid=grid, fiber_dim=d)))
    return BlockHamiltonian(blocks=tuple(blocks), eps=eps, grid=grid, fiber_dim=m)


def assemble_full(model: ElectronicModel, grid: Grid1D, eps: float) -> DenseHamiltonian:
    """The molecular Hamiltonian as one dense N x N matrix: `assemble_blocks`, scattered.

    Its entries are those of the blocks, zero between them.  It serves the
    dense oracles, `identities.offdiag_scaling` and the demos; the scans
    solve the blocks.
    """
    H = assemble_blocks(model, grid, eps)
    M = np.zeros((H.dim, H.dim), dtype=H.blocks[0][1].matrix.dtype)
    for comp, block in H.blocks:
        rows = H.rows(comp)
        M[np.ix_(rows, rows)] = block.matrix
    return DenseHamiltonian(matrix=M, eps=eps, tag="full", grid=grid, fiber_dim=H.fiber_dim)


def _fiber_sandwich(H: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """blockdiag(left_i) H blockdiag(right_i) for (n, m, m) blocks, as batched products."""
    n, m, _ = left.shape
    N = n * m
    # left H is dropped once the right product has used it: two N x N arrays at a time, not three
    LHR = np.matmul(np.matmul(left, H.reshape(n, m, N)).reshape(N, n, m).transpose(1, 0, 2), right)
    return LHR.transpose(1, 0, 2).reshape(N, N)


def _fiber_blocks(band: BandData) -> np.ndarray:
    """The (n, m, m) fiber blocks of P: band.proj on the window, zero outside.

    Real when the fiber projections have zero imaginary part.
    """
    proj = band.proj if np.any(band.proj.imag) else band.proj.real
    return np.where(band.mask[:, None, None], proj, 0)


def _check_dims(H: DenseHamiltonian | BlockHamiltonian, band: BandData):
    n, m = band.grid.n_points, band.fiber_dim
    if (H.dim, H.fiber_dim) != (n * m, m):
        raise ValueError(
            f"dimension mismatch: H is {H.dim} with fiber {H.fiber_dim}, band is {n} x {m}"
        )


def _fiber_frame(band: BandData) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal frames of the fiber blocks of P, split into ran P_i and ran Q_i.

    Returns (F, in_p).  F[i] is the m x m unitary of eigenvectors of the
    block P_i (`_fiber_blocks`), real for real blocks, solved by
    `eigh_by_blocks`, so a fiber component that P never couples to the
    others keeps frame columns of its own; in_p (n, m) marks the columns
    with eigenvalue 1, which span ran P_i; the others span ran Q_i.  The
    rank of P_i may vary with i (zero outside the window).  Refuses
    (ValueError) blocks that are not Hermitian or have an eigenvalue more
    than 1e-10 from both 0 and 1: they are not orthogonal projections.
    """
    B = _fiber_blocks(band)
    herm = np.abs(B - B.conj().transpose(0, 2, 1)).max()
    lam, F = eigh_by_blocks(B)
    in_p = lam > 0.5
    dev = max(herm, np.abs(lam - in_p).max())
    if dev > 1e-10:
        raise ValueError(f"fiber blocks of P are not orthogonal projections (off by {dev:.2e})")
    return F, in_p


def split_band_preserving(H: BlockHamiltonian, band: BandData) -> tuple[tuple, tuple]:
    """H_diag = P H P + Q H Q by blocks of H, as ran P and ran Q parts in the fiber frame of P.

    P is a function of H_e(X_i) at each point, so its fiber blocks
    (`_fiber_blocks`) couple no two blocks of H, and H_diag commutes with
    P: on each block of H it is that block's ran P part plus its ran Q
    part.  A P whose fiber blocks couple two blocks of H is not a spectral
    projection of H_e and is refused (ValueError).  Returns (shared, split).

    - shared: the indices k of the blocks of H on which P is 0 at every
      grid point, or 1 at every grid point.  There H_diag equals H.
    - split: one (component, W, idx, G) per nonempty part of every other
      block, its ran P part before its ran Q part.  component holds the
      block's d ascending fiber indices; W, (n, d, d), the columns of the
      frame F_i of P (`_fiber_frame`) that span them, in ascending order;
      idx the ascending frame-basis indices i d + c of the part's columns,
      those `_fiber_frame` marks in ran P_i, or those it does not; G the
      DenseHamiltonian (tag "diag", fiber dimension d) of W^dag H W on idx,
      formed by batched fiber products, which is H_diag on the part.
    """
    _check_dims(H, band)
    F, in_p = _fiber_frame(band)
    B = _fiber_blocks(band)
    n = band.grid.n_points
    shared, split = [], []
    for k, (comp, block) in enumerate(H.blocks):
        if np.any(np.delete(B[:, comp], comp, axis=2)):
            raise ValueError("fiber blocks of P couple two blocks of H: P is not a spectral projection of H_e")
        P = B[:, comp[:, None], comp]
        if not P.any() or np.all(P == np.eye(len(comp))):
            shared.append(k)
            continue
        # the frame columns of each point that span the block's fibers: exactly len(comp) of them
        cols = np.nonzero((F[:, comp, :] != 0).any(axis=1))[1].reshape(n, len(comp))
        W = np.take_along_axis(F[:, comp, :], cols[:, None, :], axis=2)
        G = _fiber_sandwich(block.matrix, W.conj().transpose(0, 2, 1), W)
        p = np.take_along_axis(in_p, cols, axis=1).ravel()
        for idx in (np.flatnonzero(p), np.flatnonzero(~p)):
            if len(idx):
                part = DenseHamiltonian(matrix=G[np.ix_(idx, idx)], eps=H.eps, tag="diag", grid=H.grid,
                                        fiber_dim=len(comp))
                split.append((comp, W, idx, part))
    return tuple(shared), tuple(split)


def assemble_diag(H: DenseHamiltonian, band: BandData) -> DenseHamiltonian:
    """Band-preserving reference Hamiltonian P H P + (1-P) H (1-P), dense.

    P is the band projection, block-diagonal in X with the m x m fiber
    blocks of `band`, so both products cost O(N^2 m) instead of O(N^3).
    No package code forms it: `propagation.diagonalize_band_preserving`
    solves H_diag by the parts of `split_band_preserving`, and
    `identities.offdiag_scaling` forms H - H_diag as P H Q + Q H P.  It
    stays as the tests' dense oracle of the split solve, and as a span the
    benchmark traces by name.
    """
    _check_dims(H, band)
    m = band.fiber_dim
    B = _fiber_blocks(band)
    C = np.eye(m) - B
    Hd = _fiber_sandwich(H.matrix, B, B) + _fiber_sandwich(H.matrix, C, C)
    return DenseHamiltonian(matrix=Hd, eps=H.eps, tag="diag", grid=H.grid, fiber_dim=H.fiber_dim)


def clamp_field(
    values: np.ndarray,
    grid: Grid1D,
    window: tuple | None,
    shrink: float,
    ramp_width: float = 0.5,
) -> np.ndarray:
    """Extend a window-defined field to the periodic box.

    Inside (window shrunk by `shrink`) the samples are kept.  Beyond each
    boundary the field continues with matched value and first derivative,
    flattening to a constant within `ramp_width`.  The two constants are
    blended smoothly across the periodic seam.
    """
    vals = np.asarray(values, dtype=float)
    if window is None:
        return vals.copy()
    a, b = window
    x = grid.x
    ia = int(np.searchsorted(x, a + shrink))
    ib = int(np.searchsorted(x, b - shrink)) - 1
    if ib <= ia:
        raise ValueError(f"window {window} shrunk by {shrink} is empty")
    dv = fd_derivative(vals, grid.dx)
    out = vals.copy()
    out[ib:] = vals[ib] + dv[ib] * ramp_to_constant(x[ib:] - x[ib], ramp_width)
    out[: ia + 1] = vals[ia] - dv[ia] * ramp_to_constant(x[ia] - x[: ia + 1], ramp_width)

    c_right = vals[ib] + dv[ib] * ramp_width / 2
    c_left = vals[ia] - dv[ia] * ramp_width / 2
    if abs(c_right - c_left) > 1e-14 * (1 + abs(c_right)):
        seam = x[-1] + grid.dx
        avail_r = seam - (x[ib] + ramp_width)
        avail_l = (x[ia] - ramp_width) - x[0]
        wb = min(1.0, 0.8 * avail_r, 0.8 * avail_l)
        if wb <= 2 * grid.dx:
            raise ValueError("no room between the clamp ramps and the periodic seam")
        c_mid = 0.5 * (c_left + c_right)
        tail_r = x >= seam - wb
        out[tail_r] += (c_mid - c_right) * smooth_step((x[tail_r] - (seam - wb)) / wb)
        tail_l = x <= x[0] + wb
        out[tail_l] += (c_mid - c_left) * smooth_step(((x[0] + wb) - x[tail_l]) / wb)
    return out


def assemble_bo(
    band: BandData,
    eps: float,
    include_a_geo: bool = True,
    delta: float = 0.5,
    berry: np.ndarray | None = None,
) -> DenseHamiltonian:
    """Effective nuclear Hamiltonian of the tracked band.

    (eps*(-i d/dX) + eps*A_geo)^2 / 2 + E(X): `kinetic_matrix` of the
    geometric vector potential A_geo, with the band energy and A_geo clamped
    outside the window shrunk by delta/5.  `berry` overrides the connection
    samples (used by gauge-covariance checks); with include_a_geo=False the
    connection is dropped entirely.  Stored real when A_geo is zero on the
    grid.
    """
    if band.band_energy is None:
        raise ValueError("effective Hamiltonian requires a tracked single band")
    grid = band.grid
    E_ext = clamp_field(band.band_energy, grid, band.window, delta / 5)
    a_vals = None
    if include_a_geo:
        if berry is None:
            berry = berry_connection(band)
        a_vals = clamp_field(berry, grid, band.window, delta / 5)
    H = kinetic_matrix(grid, eps, a_vals) + np.diag(E_ext)
    return DenseHamiltonian(matrix=H, eps=eps, tag="bo", grid=grid, fiber_dim=1)


def full_projection(band: BandData) -> np.ndarray:
    """Dense block-diagonal projection onto the band set over the window.

    Stored real when the fiber projections have zero imaginary part.
    """
    n, m = band.grid.n_points, band.fiber_dim
    B = _fiber_blocks(band)
    P = np.zeros((n * m, n * m), dtype=B.dtype)
    diag = np.arange(n)
    P.reshape(n, m, n, m)[diag, :, diag, :] = B
    return P


def u_matrix(band: BandData, delta: float) -> np.ndarray:
    """Dense matrix of the band identification U: molecular -> nuclear.

    Row i pairs the fiber value at X_i with the tracked eigenvector,
    extended by its boundary values outside the window shrunk by delta/2.
    U U* = 1 exactly; U* U is the projection onto the extended band frame.
    """
    chi = band.chi_clamped(delta / 2)
    n, m = chi.shape
    U = np.zeros((n, n * m), dtype=complex)
    for i in range(n):
        U[i, i * m : (i + 1) * m] = chi[i].conj()
    return U


def u_map(psi: MolecularWave, band: BandData, delta: float = 0.5) -> NuclearWave:
    """(U psi)(X) = <chi(X), psi(X)>, fiberwise."""
    chi = band.chi_clamped(delta / 2)
    vals = np.einsum("ia,ia->i", chi.conj(), psi.values)
    return NuclearWave(grid=psi.grid, values=vals, eps=psi.eps)


def u_star_map(phi: NuclearWave, band: BandData, delta: float = 0.5) -> MolecularWave:
    """(U* phi)(X) = phi(X) chi(X): lift a nuclear wave onto the band frame."""
    chi = band.chi_clamped(delta / 2)
    return MolecularWave(grid=phi.grid, values=phi.values[:, None] * chi, eps=phi.eps)
