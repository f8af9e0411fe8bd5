"""Hermitian operators on the discretized molecular and nuclear spaces, dense or by blocks.

Matrices act on value vectors; molecular vectors are grid-major, entry
``i*m + a`` holding fiber component ``a`` at grid point ``X_i``.  The
nuclear kinetic energy is assembled exactly, as the circulant of its
symbol, so the only approximation anywhere is the spatial discretization.

Both Hamiltonians of the paper have one form, kept as its parts
(`FiberedOperator`): a Fourier multiplier dressed by a gauge phase, the
same on every fiber component, plus a fiber stack V(X_i).  The molecular
H (`molecular_operator`) has no phase and V = H_e; the effective
Hamiltonian of a band (`bo_operator`) has the phase of its Berry
connection and V = its clamped band energy.  The dense blocks and the
O(N log n) matvec both derive from the parts.  The decoupling pair
solves the molecular H from its dense blocks; every H applied on its own,
molecular or BO, goes by its matvec (`propagation.ChebyshevPropagator`),
by the rule `propagation` states.  The parts are checked where they are
made, once and independently of eps: the fiber stack by
`models.ElectronicModel.h_batch` (non-finite or non-Hermitian fibers are
refused there, through `models._refuse_non_hermitian`), and the gauge
phase by `_gauge` (a non-finite vector potential is refused).  So every
`FiberedOperator` holds checked parts, and its dense blocks, its matvec
and its spectral bounds trust them.  A dense block is written from the
Hermitian parts of the kinetic matrix and of the stack: bit for bit the
matrix `DenseHamiltonian` stores for their assembly.

The fiber component is the unit of the molecular Hamiltonian.  The
kinetic term couples every grid point of one fiber index, and H_e(X_i)
couples fiber indices only where its entries are nonzero, so H decouples
exactly into blocks, one per connected component of the m x m union over
the grid of the fibers' exact-zero pattern (`FiberedOperator.components`,
read once per operator), each over the rows i m + a of its fiber indices a
(`FiberedOperator.rows`).  `FiberedOperator.block(eps, comp)` builds one
component's block directly on its rows, checked as a DenseHamiltonian, so
a caller holds only the blocks it solves, one at a time; no N x N matrix
is formed.  `assemble_full` scatters every block into the dense N x N H,
for the tests' dense oracles, `identities.offdiag_scaling` and the
`identities` suite.  Most models are one component; `crossing_trio`,
whose -X level couples to nothing, is two (2n and n), and so is
`constant_fiber`.

Operators are stored real (float64) when their data is real.  The
molecular Hamiltonian has no vector potential, so its kinetic term is
always real, and its blocks are real whenever the fiber stack is.  Whether
the fibers are real is decided once, in `models.ElectronicModel.h_batch`:
it returns a real stack when every H_e(X_i) has exactly zero imaginary
part, and both `molecular_operator` and `electronic.band_decompose` take
that stack as given.  A band projection
with real fiber blocks is real, and so is the effective Hamiltonian of
`assemble_bo` when its gauge field, the clamped A_geo, is zero on the
grid, as it is for a band with a real frame or with the connection
dropped.  Real storage sends `eigh` to the real-symmetric solver, several
times faster than the complex one.  Complex data (complex fibers, a
nonzero A_geo) keeps complex128.  Given its parts, this module is the
only place that decides the storage type of an operator; `assemble_diag`
and `_split_block` follow the dtype of their inputs.

The band projection P and the identification U act pointwise in X, so the
package carries them as the band's fiber data: the m x m fiber blocks of
P (`_fiber_blocks`, the one source of them) and their orthonormal frames.
P is a function of H_e(X_i) at each point, so it couples no two blocks of
H, and the band-preserving H_diag = P H P + Q H Q commutes with P: it has
exactly the blocks of H, each split into its ran P and ran Q parts.
`_band_fibers` reads P's fiber blocks on each component of H.  On a block
where P is 0 at every grid point, or 1 at every grid point, H_diag equals
H, and the block is shared.  `_split_block` writes every other block in
the frame of its own stack of P's fiber blocks (one `np.linalg.eigh` of
that (n, d, d) stack) and restricts it to the ran P columns, and to the
ran Q columns: two checked operators, which the decoupling pair solves,
each on its own frame indices, as that block's eigenbasis of H_diag
(`propagation.diagonalize_pair`).  A P that couples two blocks of H is
refused.  This module decides every block the scans solve; no exact-zero
pattern is read on the H_diag path.
`assemble_diag` forms H_diag densely; no package code calls it, and it
stays as the tests' oracle of the split solve and a span the benchmark
traces.  `u_map` / `u_star_map` apply U fiberwise.  `full_projection` and
`u_matrix` build the dense N x N and n x N matrices; they are the oracles
the tests compare against.

Band functions defined on an isolation window are extended to the whole
periodic box before entering an operator (Spohn & Teufel, Commun. Math.
Phys. 224, 113 (2001)).  The window margin delta lives on the band
(`BandData.delta`, set by `band_decompose`): every function here that
takes a band reads it there, and each extension applies its own shrink,
written once:
- `clamp_field(values, grid, window, delta)` shrinks the window by
  delta/5.  It acts on a bare window, so it takes the window and delta as
  arguments; `bo_operator` and `semiclassics.band_energy_interpolant`
  pass it the band's.  It extends the band energy and the geometric
  vector potential for the BO operator, and the band energy for the
  classical flow, so the two extend the same energy.  The field keeps
  value and first derivative at the clamp boundary, turns constant beyond
  a ramp of width `_RAMP_WIDTH` = 0.5, and has the two constants blended
  across the periodic seam.
- `BandData.chi_clamped()` shrinks it by delta/2.  The eigenvector
  frame holds its boundary value: it is constant beyond each boundary
  point.  U, U* and every lift onto the band frame read the frame there.
States in all experiments stay far from both the window edge and the seam,
so the extension policy only has to keep operators bounded and smooth.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .electronic import BandData, _coupled_components, berry_connection, fd_derivative
from .grids import Grid1D, MolecularWave, NuclearWave, fourier_multiplier_matrix
from .indicators import ramp_to_constant, smooth_step
from .models import ElectronicModel, _absmax, _refuse_non_hermitian

__all__ = [
    "DenseHamiltonian",
    "assemble_full",
    "assemble_diag",
    "FiberedOperator",
    "molecular_operator",
    "bo_operator",
    "assemble_bo",
    "full_projection",
    "u_matrix",
    "u_map",
    "u_star_map",
    "clamp_field",
]

_RAMP_WIDTH = 0.5


@dataclass(frozen=True)
class DenseHamiltonian:
    """An assembled Hermitian operator with its discretization metadata.

    The raw assembly is checked for Hermiticity to 1e-12 relative; the
    stored matrix is its Hermitian part (M + M^dag) / 2, exactly Hermitian.
    A non-finite entry makes its entry of M - M^dag non-finite (inf - inf
    is nan), so the residual refuses it too.  The residual and then the
    Hermitian part are formed in one buffer of M's size.  The blocks of a
    `FiberedOperator` (`FiberedOperator.block`) are made from parts checked
    where they were made (the fibers in `models.ElectronicModel.h_batch`,
    the gauge phase in `_gauge`), already Hermitian, and are built by
    `_checked`, which skips this check.
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
            herm = _absmax(S)
        _refuse_non_hermitian(self.tag, herm, lambda: _absmax(M))
        np.add(M, np.conjugate(M.T, out=S), out=S)
        S *= 0.5
        object.__setattr__(self, "matrix", S)

    @classmethod
    def _checked(cls, matrix: np.ndarray, **meta) -> DenseHamiltonian:
        """A DenseHamiltonian of a matrix written as its Hermitian part from checked parts, taken as it is."""
        H = object.__new__(cls)
        for name, value in dict(matrix=matrix, **meta).items():
            object.__setattr__(H, name, value)
        return H

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _gauge(grid: Grid1D, a_vals: np.ndarray | None) -> tuple:
    """(Phi, a_bar) of a vector potential sampled on the grid: Phi = exp(i Theta), Theta' = A - a_bar.

    a_bar is the mean of A.  At zero field (None, or all zeros) Phi is None
    and a_bar 0.0.  A non-finite A is refused ("non-finite entries", as the
    dense assembly words it), so Phi and a_bar are finite.  The
    phase-dressed derivative M = Phi^* D Phi + a_bar equals -i d/dX + A(X)
    to spectral accuracy on resolved states, and a
    periodic gauge shift theta conjugates it exactly (the antiderivative
    map is linear and lattice-exact on band-limited fields).  Since
    |Phi| = 1, M^2 = Phi^* (D + a_bar)^2 Phi, so the covariant kinetic
    operator (eps (-i d/dX + A))^2 / 2 is `_kinetic` of the symbol
    (`_symbol`) and Phi, for every field.
    """
    if a_vals is None or not np.any(a_vals):
        return None, 0.0
    if not np.isfinite(a_vals).all():
        raise AssertionError("vector potential: non-finite entries")
    a_bar = float(a_vals.mean())
    ft = np.fft.fft(a_vals - a_bar)
    with np.errstate(divide="ignore", invalid="ignore"):
        ft_theta = np.where(grid.k != 0.0, ft / (1j * grid.k), 0.0)
    return np.exp(1j * np.fft.ifft(ft_theta).real), a_bar


def _symbol(grid: Grid1D, eps: float, a_bar: float) -> np.ndarray:
    """The kinetic symbol (eps (k + a_bar))^2 / 2 on the momentum lattice, FFT order."""
    return (eps * (grid.k + a_bar)) ** 2 / 2


def _kinetic(symbol: np.ndarray, phase: np.ndarray | None) -> np.ndarray:
    """Phi^* C Phi, with C the circulant of the symbol; C itself, real, at zero field (phase None).

    The symbol is even on the lattice (the Nyquist mode pairs with itself),
    so C is real up to rounding and is stored as its real part.
    """
    C = fourier_multiplier_matrix(symbol)
    if phase is None:
        return C.real.copy()
    return phase.conj()[:, None] * C * phase[None, :]


@dataclass(frozen=True)
class FiberedOperator:
    """Phi^* (eps (-i d/dX + a_bar))^2 / 2 Phi (x) 1_m + blockdiag(V(X_i)), kept as its parts.

    The molecular H (`molecular_operator`: zero field, V the fibers
    H_e(X_i)) and the effective Hamiltonian of a band (`bo_operator`: the
    gauge phase of its clamped A_geo, V its clamped energy, m = 1) both
    have this form.  The parts do not depend on eps: the gauge phase Phi
    (None at zero field, with a_bar 0.0) and the (n, m, m) fiber stack V,
    float64 when real; the scans build the molecular H's once per model
    and grid (`harness.PropagatorCache`).  The parts are checked where they
    are made (V in `models.ElectronicModel.h_batch`, Phi in `_gauge`), and
    `block`, `action` and `spectral_bounds` take them as checked.  At each
    eps the kinetic term is the Fourier multiplier of the symbol
    s(k) = (eps (k + a_bar))^2 / 2
    dressed by Phi, the same on every fiber component.  Both forms of the
    operator derive from these parts: `block` gives the dense block of one
    fiber component (`components`), for the dense solve, and `action` its
    O(N log n) matvec by FFT, one step
    into a caller's buffer on the grid-last layout (m, k, n), for
    `propagation.ChebyshevPropagator`, with `spectral_bounds` enclosing its
    spectrum.
    """

    grid: Grid1D
    fibers: np.ndarray = field(repr=False)
    tag: str
    phase: np.ndarray | None = field(default=None, repr=False)
    a_bar: float = 0.0

    @property
    def fiber_dim(self) -> int:
        return self.fibers.shape[1]

    @property
    def dim(self) -> int:
        return self.grid.n_points * self.fiber_dim

    @functools.cached_property
    def components(self) -> tuple:
        """The fiber components: the connected components of the fibers' exact-zero pattern.

        The pattern is the m x m union over the grid.  Each component is the
        ascending array of its fiber indices, in order of its smallest index
        (`crossing_trio`: {0, 2} and {1}).  The kinetic term couples every
        grid point of a fiber index, so H restricted to a component's rows
        (`rows`) is one connected block, and H has no entry between two
        components.  Read once per operator.
        """
        return tuple(_coupled_components((self.fibers != 0).any(axis=0)))

    def rows(self, comp: np.ndarray) -> np.ndarray:
        """The ascending molecular rows i m + a of the fiber indices a in the component `comp`."""
        return (np.arange(self.grid.n_points)[:, None] * self.fiber_dim + comp).ravel()

    def block(self, eps: float, comp: np.ndarray) -> DenseHamiltonian:
        """The dense block of H at eps on the rows of one component, in the order of `rows(comp)`.

        With T the n x n kinetic matrix and V the component's (n, d, d)
        fiber stack, d = len(comp), the block holds the Hermitian part
        (T + T^dag)/2 on every fiber index, and the Hermitian parts of the
        V_i added onto its grid diagonal: bit for bit the Hermitian part of
        the assembly of T and V into zeros that `DenseHamiltonian` stores,
        without that check's passes over the whole block.  The parts need
        no check of their own: the fibers were checked where their stack was
        made (`models.ElectronicModel.h_batch`), and the gauge phase is
        finite (`_gauge`).  The block is real when T and V are; its fiber
        dimension is d.
        """
        n, d = self.grid.n_points, len(comp)
        T = _kinetic(_symbol(self.grid, eps, self.a_bar), self.phase)
        # halved in place: one more n x n temporary raises a decoupling scan's peak RSS by 0.5 MB at n = 256
        T = T + T.conj().T
        T *= 0.5
        V = self.fibers[:, comp[:, None], comp]
        V = (V + V.conj().transpose(0, 2, 1)) * 0.5
        H = np.zeros((n * d, n * d), dtype=np.result_type(T, V))
        view = H.reshape(n, d, n, d)
        for b in range(d):
            view[:, b, :, b] = T
        i = np.arange(n)
        view[i, :, i, :] += V
        return DenseHamiltonian._checked(H, eps=eps, tag=self.tag, grid=self.grid, fiber_dim=d)

    def action(self, eps: float, shift: float = 0.0, scale: float = 1.0):
        """The step (x, out) -> out = scale (H - shift) x at eps, O(N log n) per column.

        x and out are distinct C-contiguous complex (m, k, n) arrays: k
        columns of the molecular block laid out grid last, so every FFT runs
        along a contiguous axis; out is overwritten and x left as it is.  The
        kinetic term is Phi^* ifft(s fft(Phi x)) on every fiber component,
        which is the dense Phi^* C Phi, and V as the sum over the fiber
        index b of the broadcast products of its column b with x[b], added
        into out one by one (a few per cent faster over a whole apply than
        one (m, m, k, n) product reduced over b).  The parts are cast to
        complex once here, not per step: the symbol s times scale with the
        inverse FFT's 1/n folded in (the inverse runs unscaled,
        norm="forward"), and scale (V - shift).  A step then allocates only
        V's products.  At n = 512 and k = 1 (one BLAS thread, medians of 30
        interleaved repeats in one process) a step takes 32 us for m = 2 and
        21 us for m = 1, the two FFTs most of it.  The FFTs write into out
        (their `out=` argument, NumPy 2.0 on).  Real FFTs of a real operator's input, split into its
        real and imaginary parts, measured no faster: the rfft/irfft pair of
        (2, 2, 512) takes as long as the complex pair of (2, 1, 512).
        """
        n, m = self.grid.n_points, self.fiber_dim
        s = ((scale / n) * _symbol(self.grid, eps, self.a_bar)).astype(complex)
        # V[b] is the fiber column b of scale (V - shift), laid out (m, 1, n) to broadcast against x[b]
        V = (scale * (self.fibers - shift * np.eye(m))).transpose(2, 1, 0)[:, :, None, :].astype(complex, order="C")
        phase = self.phase
        back = None if phase is None else phase.conj()

        def step(x, out):
            if phase is None:
                np.fft.fft(x, axis=-1, out=out)
            else:
                np.multiply(x, phase, out=out)
                np.fft.fft(out, axis=-1, out=out)
            out *= s
            np.fft.ifft(out, axis=-1, norm="forward", out=out)
            if back is not None:
                out *= back
            for b in range(m):
                out += V[b] * x[b]

        return step

    def spectral_bounds(self, eps: float) -> tuple:
        """(lo, hi) = (min s + min spec V_i, max s + max spec V_i), which enclose the spectrum of H.

        The dressed kinetic term has exactly the symbol's values as its
        spectrum, and V the fibers' eigenvalues, so Weyl's inequality puts
        every eigenvalue of their sum in [lo, hi].
        """
        s = _symbol(self.grid, eps, self.a_bar)
        lam = np.linalg.eigvalsh(self.fibers)
        return float(s.min() + lam.min()), float(s.max() + lam.max())


def molecular_operator(model: ElectronicModel, grid: Grid1D) -> FiberedOperator:
    """The molecular H as its parts: no field, and V the fiber stack `model.h_batch(grid.x)`, checked there, real when it is."""
    return FiberedOperator(grid=grid, fibers=model.h_batch(grid.x), tag="full")


def assemble_full(model: ElectronicModel, grid: Grid1D, eps: float) -> DenseHamiltonian:
    """The molecular Hamiltonian as one dense N x N matrix: the blocks of `molecular_operator`, scattered.

    Its entries are those of the blocks, zero between them.  It serves the
    tests' dense oracles, `identities.offdiag_scaling` and the `identities`
    suite; the decoupling scans solve the blocks.
    """
    op = molecular_operator(model, grid)
    blocks = [(op.rows(comp), op.block(eps, comp).matrix) for comp in op.components]
    M = np.zeros((op.dim, op.dim), dtype=blocks[0][1].dtype)
    for rows, block in blocks:
        M[np.ix_(rows, rows)] = block
    return DenseHamiltonian(matrix=M, eps=eps, tag="full", grid=grid, fiber_dim=op.fiber_dim)


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


def _check_dims(H: DenseHamiltonian | FiberedOperator, band: BandData):
    n, m = band.grid.n_points, band.fiber_dim
    if (H.dim, H.fiber_dim) != (n * m, m):
        raise ValueError(
            f"dimension mismatch: H is {H.dim} with fiber {H.fiber_dim}, band is {n} x {m}"
        )


def _band_fibers(op: FiberedOperator, band: BandData) -> list:
    """P's fiber blocks on each component of the molecular H `op`, (n, d, d); None where H_diag equals H there.

    That is where P is 0 at every grid point, or 1 at every grid point.  A
    P whose fiber blocks (`_fiber_blocks`) couple two blocks of H is not a
    spectral projection of H_e and is refused (ValueError).
    """
    _check_dims(op, band)
    B = _fiber_blocks(band)
    fibers = []
    for comp in op.components:
        if np.any(np.delete(B[:, comp], comp, axis=2)):
            raise ValueError("fiber blocks of P couple two blocks of H: P is not a spectral projection of H_e")
        P = B[:, comp[:, None], comp]
        fibers.append(None if not P.any() or np.all(P == np.eye(len(comp))) else P)
    return fibers


def _split_block(block: DenseHamiltonian, P: np.ndarray) -> tuple:
    """H_diag = P H P + Q H Q on one block of H that P splits, as its ran P and ran Q parts in the fiber frame of P.

    P is the block's stack of P's fiber blocks, (n, d, d), as `_band_fibers`
    gives it.  Returns (W, parts).  W, (n, d, d), is the frame of that
    stack, its eigenvectors from one `np.linalg.eigh`, real for real
    blocks; the stack is refused (ValueError) unless it is Hermitian with
    every eigenvalue within 1e-10 of 0 or 1.  The rank of P_i may vary with
    i (zero outside the window).  parts holds one (idx, G) per nonempty
    part, ran P before ran Q: idx the ascending frame-basis indices i d + c
    of the part's columns, those of eigenvalue 1 or those of eigenvalue 0,
    and G the DenseHamiltonian (tag "diag", fiber dimension d) of
    W^dag H W on idx, formed by batched fiber products, which is H_diag on
    the part.
    """
    lam, W = np.linalg.eigh(P)
    in_p = lam > 0.5
    dev = max(np.abs(P - P.conj().transpose(0, 2, 1)).max(), np.abs(lam - in_p).max())
    if dev > 1e-10:
        raise ValueError(f"fiber blocks of P are not orthogonal projections (off by {dev:.2e})")
    G = _fiber_sandwich(block.matrix, W.conj().transpose(0, 2, 1), W)
    parts = tuple(
        (idx, DenseHamiltonian(matrix=G[np.ix_(idx, idx)], eps=block.eps, tag="diag", grid=block.grid,
                               fiber_dim=block.fiber_dim))
        for idx in (np.flatnonzero(in_p), np.flatnonzero(~in_p)) if len(idx)
    )
    return W, parts


def assemble_diag(H: DenseHamiltonian, band: BandData) -> DenseHamiltonian:
    """Band-preserving reference Hamiltonian P H P + (1-P) H (1-P), dense.

    P is the band projection, block-diagonal in X with the m x m fiber
    blocks of `band`, so both products cost O(N^2 m) instead of O(N^3).
    No package code forms it: `propagation.diagonalize_pair` solves H_diag
    by the parts of `_split_block`, and
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


def clamp_field(values: np.ndarray, grid: Grid1D, window: tuple | None, delta: float) -> np.ndarray:
    """Extend a window-defined field to the periodic box.

    Inside the window shrunk by delta/5 the samples are kept.  Beyond each
    boundary the field continues with matched value and first derivative,
    flattening to a constant within `_RAMP_WIDTH`.  The two constants are
    blended smoothly across the periodic seam.
    """
    vals = np.asarray(values, dtype=float)
    if window is None:
        return vals.copy()
    a, b = window
    x = grid.x
    shrink = delta / 5
    ia = int(np.searchsorted(x, a + shrink))
    ib = int(np.searchsorted(x, b - shrink)) - 1
    if ib <= ia:
        raise ValueError(f"window {window} shrunk by {shrink} is empty")
    dv = fd_derivative(vals, grid.dx)
    out = vals.copy()
    out[ib:] = vals[ib] + dv[ib] * ramp_to_constant(x[ib:] - x[ib], _RAMP_WIDTH)
    out[: ia + 1] = vals[ia] - dv[ia] * ramp_to_constant(x[ia] - x[: ia + 1], _RAMP_WIDTH)

    c_right = vals[ib] + dv[ib] * _RAMP_WIDTH / 2
    c_left = vals[ia] - dv[ia] * _RAMP_WIDTH / 2
    if abs(c_right - c_left) > 1e-14 * (1 + abs(c_right)):
        seam = x[-1] + grid.dx
        avail_r = seam - (x[ib] + _RAMP_WIDTH)
        avail_l = (x[ia] - _RAMP_WIDTH) - x[0]
        wb = min(1.0, 0.8 * avail_r, 0.8 * avail_l)
        if wb <= 2 * grid.dx:
            raise ValueError("no room between the clamp ramps and the periodic seam")
        c_mid = 0.5 * (c_left + c_right)
        tail_r = x >= seam - wb
        out[tail_r] += (c_mid - c_right) * smooth_step((x[tail_r] - (seam - wb)) / wb)
        tail_l = x <= x[0] + wb
        out[tail_l] += (c_mid - c_left) * smooth_step(((x[0] + wb) - x[tail_l]) / wb)
    return out


def bo_operator(
    band: BandData,
    include_a_geo: bool = True,
    berry: np.ndarray | None = None,
) -> FiberedOperator:
    """Effective nuclear Hamiltonian of the tracked band, as its parts.

    (eps*(-i d/dX) + eps*A_geo)^2 / 2 + E(X): the gauge phase of the
    geometric vector potential A_geo (`_gauge`; its dense kinetic term is
    `_kinetic`), and the band energy as a 1 x 1 fiber stack, both extended
    by `clamp_field` (the band's window shrunk by the band's delta/5).
    `berry` overrides the connection samples (used by gauge-covariance
    checks); with include_a_geo=False the connection is dropped entirely.
    Real (no phase) when A_geo is zero on the grid.
    """
    if band.band_energy is None:
        raise ValueError("effective Hamiltonian requires a tracked single band")
    grid = band.grid
    E_ext = clamp_field(band.band_energy, grid, band.window, band.delta)
    a_vals = None
    if include_a_geo:
        if berry is None:
            berry = berry_connection(band)
        a_vals = clamp_field(berry, grid, band.window, band.delta)
    phase, a_bar = _gauge(grid, a_vals)
    return FiberedOperator(grid=grid, fibers=E_ext[:, None, None], tag="bo", phase=phase, a_bar=a_bar)


def assemble_bo(
    band: BandData,
    eps: float,
    include_a_geo: bool = True,
    berry: np.ndarray | None = None,
) -> DenseHamiltonian:
    """The effective Hamiltonian of `bo_operator` at eps, dense: its one block.

    Stored real when A_geo is zero on the grid.  The scans apply the BO
    propagator matrix-free (`propagation.ChebyshevPropagator`); this dense
    form is the tests' oracle of it.
    """
    op = bo_operator(band, include_a_geo, berry)
    (comp,) = op.components
    return op.block(eps, comp)


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


def u_matrix(band: BandData) -> np.ndarray:
    """Dense matrix of the band identification U: molecular -> nuclear.

    Row i pairs the fiber value at X_i with the tracked eigenvector,
    extended by its boundary values outside the window shrunk by the
    band's delta/2 (`BandData.chi_clamped`).
    U U* = 1 exactly; U* U is the projection onto the extended band frame.
    """
    chi = band.chi_clamped()
    n, m = chi.shape
    U = np.zeros((n, n * m), dtype=complex)
    for i in range(n):
        U[i, i * m : (i + 1) * m] = chi[i].conj()
    return U


def u_map(psi: MolecularWave, band: BandData) -> NuclearWave:
    """(U psi)(X) = <chi(X), psi(X)>, fiberwise."""
    chi = band.chi_clamped()
    vals = np.einsum("ia,ia->i", chi.conj(), psi.values)
    return NuclearWave(grid=psi.grid, values=vals, eps=psi.eps)


def u_star_map(phi: NuclearWave, band: BandData) -> MolecularWave:
    """(U* phi)(X) = phi(X) chi(X): lift a nuclear wave onto the band frame."""
    chi = band.chi_clamped()
    return MolecularWave(grid=phi.grid, values=phi.values[:, None] * chi, eps=phi.eps)
