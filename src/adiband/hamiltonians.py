"""Dense Hermitian operators on the discretized molecular and nuclear spaces.

Matrices act on value vectors; molecular vectors are grid-major, entry
``i*m + a`` holding fiber component ``a`` at grid point ``X_i``.  The
nuclear kinetic energy is assembled exactly in Fourier space, so the only
approximation anywhere is the spatial discretization itself.

Operators are stored real (float64) when their data is real: the kinetic
term without an external vector potential, a model whose H_e(X_i) have
exactly zero imaginary part, and a band projection with real fiber
blocks.  Real storage sends `eigh` to the real-symmetric solver, several
times faster than the complex one.  Complex data (complex fibers, an
external vector potential) keeps complex128, as does the phase-dressed
effective Hamiltonian of `assemble_bo`.  This module is the only place
that decides the storage type of an operator; `assemble_diag` follows the
dtype of its inputs.

Band functions (energy, geometric vector potential, eigenvector frame)
defined on an isolation window are extended to the whole periodic box
before entering an operator: value and first derivative are matched at the
clamp boundary, the field is constant beyond a short ramp, and the two
constants are blended across the periodic seam.  States in all experiments
stay far from both the window edge and the seam, so the extension policy
only has to keep operators bounded and smooth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .electronic import BandData, fd_derivative
from .grids import Grid1D, MolecularWave, NuclearWave, fourier_matrix
from .indicators import interval_indicator, ramp_to_constant, smooth_step
from .models import ElectronicModel

__all__ = [
    "DenseHamiltonian",
    "ProjectionOperator",
    "assemble_full",
    "assemble_diag",
    "assemble_bo",
    "full_projection",
    "smoothed_projection_family",
    "energy_cutoff",
    "u_matrix",
    "u_map",
    "u_star_map",
    "clamp_field",
    "kinetic_matrix",
]


@dataclass(frozen=True)
class DenseHamiltonian:
    """An assembled Hermitian operator with its discretization metadata."""

    matrix: np.ndarray = field(repr=False)
    eps: float
    tag: str
    grid: Grid1D
    fiber_dim: int

    def __post_init__(self):
        herm = np.abs(self.matrix - self.matrix.conj().T).max()
        scale = max(1.0, np.abs(self.matrix).max())
        if herm > 1e-12 * scale:
            raise AssertionError(f"{self.tag}: non-Hermitian assembly ({herm:.2e})")
        if not np.all(np.isfinite(self.matrix)):
            raise AssertionError(f"{self.tag}: non-finite entries")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class ProjectionOperator:
    """Dense Hermitian (near-)projection with a provenance tag.

    Spectral projections are idempotent to 1e-10; smoothed window
    projections take values in [0, 1] in their transition zone and are not
    idempotent there.
    """

    matrix: np.ndarray = field(repr=False)
    tag: str

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def complement(self) -> "ProjectionOperator":
        return ProjectionOperator(np.eye(self.dim) - self.matrix, tag=f"1-{self.tag}")


def kinetic_matrix(grid: Grid1D, eps: float, a_ext=None) -> np.ndarray:
    """Nuclear kinetic operator (eps*(-i d/dX) + eps*A_ext(X))^2 / 2, dense.

    Without A_ext the operator is real: the symbol (eps k)^2/2 is even on
    the lattice (the Nyquist mode pairs with itself), so the imaginary part
    of the Fourier product is rounding and is dropped.
    """
    F = fourier_matrix(grid)
    if a_ext is None:
        return (F.conj().T @ ((eps * grid.k[:, None]) ** 2 / 2 * F)).real.copy()
    a_vals = np.asarray([a_ext(X) for X in grid.x], dtype=float)
    seam = abs(a_ext(grid.x_min) - a_ext(grid.x_max))
    if seam > 1e-6 * (1 + np.abs(a_vals).max()):
        raise ValueError(f"external vector potential jumps by {seam:.3e} at the box seam")
    D = F.conj().T @ (grid.k[:, None] * F)
    M = eps * D + eps * np.diag(a_vals)
    return (M @ M) / 2


def assemble_full(
    model: ElectronicModel,
    grid: Grid1D,
    eps: float,
    a_ext=None,
) -> DenseHamiltonian:
    """Molecular Hamiltonian: kinetic term tensor identity plus fiberwise H_e(X_i).

    Stored real when T is real and every H_e(X_i) has zero imaginary part.
    """
    n, m = grid.n_points, model.fiber_dim
    T = kinetic_matrix(grid, eps, a_ext)
    fibers = model.h_batch(grid.x)
    if np.isrealobj(T) and not np.any(fibers.imag):
        fibers = fibers.real
    H = np.kron(T, np.eye(m)).astype(fibers.dtype)
    diag = np.arange(n)
    H.reshape(n, m, n, m)[diag, :, diag, :] += fibers
    H = (H + H.conj().T) / 2
    return DenseHamiltonian(matrix=H, eps=eps, tag="full", grid=grid, fiber_dim=m)


def _fiber_sandwich(H: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(B H) B for B = blockdiag(B_1 ... B_n) with m x m blocks, as batched products."""
    n, m, _ = B.shape
    N = n * m
    BH = np.matmul(B, H.reshape(n, m, N)).reshape(N, N)
    BHB = np.matmul(BH.reshape(N, n, m).transpose(1, 0, 2), B)
    return BHB.transpose(1, 0, 2).reshape(N, N)


def assemble_diag(H: DenseHamiltonian, P: ProjectionOperator) -> DenseHamiltonian:
    """Band-preserving reference Hamiltonian P H P + (1-P) H (1-P).

    P must be fiber-block-diagonal (nonzero only in the m x m blocks at
    each grid point), so both products cost O(N^2 m) instead of O(N^3).
    """
    if P.dim != H.dim:
        raise ValueError(f"dimension mismatch: H is {H.dim}, P is {P.dim}")
    m = H.fiber_dim
    n = H.dim // m
    diag = np.arange(n)
    B = P.matrix.reshape(n, m, n, m)[diag, :, diag, :]
    if np.count_nonzero(P.matrix) != np.count_nonzero(B):
        raise ValueError(f"{P.tag}: projection has entries off its {m}x{m} fiber blocks")
    Hd = _fiber_sandwich(H.matrix, B) + _fiber_sandwich(H.matrix, np.eye(m) - B)
    Hd = (Hd + Hd.conj().T) / 2
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
    a_ext=None,
    include_a_geo: bool = True,
    delta: float = 0.5,
    berry: np.ndarray | None = None,
) -> DenseHamiltonian:
    """Effective nuclear Hamiltonian of the tracked band.

    (eps*(-i d/dX) + eps*A_ext + eps*A_geo)^2 / 2 + E(X), with the band
    energy and the geometric vector potential clamped outside the window
    shrunk by delta/5.  `berry` overrides the connection samples (used by
    gauge-covariance checks); with include_a_geo=False the connection is
    dropped entirely.
    """
    if band.band_energy is None:
        raise ValueError("effective Hamiltonian requires a tracked single band")
    grid = band.grid
    E_ext = clamp_field(band.band_energy, grid, band.window, delta / 5)
    a_vals = np.zeros(grid.n_points)
    if a_ext is not None:
        a_vals += np.asarray([a_ext(X) for X in grid.x], dtype=float)
    if include_a_geo:
        if berry is None:
            from .electronic import berry_connection

            berry = berry_connection(band)
        a_vals += clamp_field(berry, grid, band.window, delta / 5)
    F = fourier_matrix(grid)
    D = F.conj().T @ (grid.k[:, None] * F)
    # covariant derivative by phase dressing: with Theta' = A - mean(A), the
    # matrix exp(-i Theta) D exp(i Theta) + mean(A) equals -i d/dX + A(X) to
    # spectral accuracy on resolved states, and a periodic gauge shift
    # theta conjugates it exactly (the antiderivative map is linear and
    # lattice-exact on band-limited fields)
    a_bar = float(a_vals.mean())
    ft = np.fft.fft(a_vals - a_bar)
    with np.errstate(divide="ignore", invalid="ignore"):
        ft_theta = np.where(grid.k != 0.0, ft / (1j * grid.k), 0.0)
    theta_tilde = np.fft.ifft(ft_theta).real
    phase = np.exp(1j * theta_tilde)
    M = eps * (phase.conj()[:, None] * D * phase[None, :] + a_bar * np.eye(grid.n_points))
    H = (M @ M) / 2 + np.diag(E_ext)
    H = (H + H.conj().T) / 2
    return DenseHamiltonian(matrix=H, eps=eps, tag="bo", grid=grid, fiber_dim=1)


def full_projection(band: BandData) -> ProjectionOperator:
    """Block-diagonal projection onto the band set over the window.

    Stored real when the fiber projections have zero imaginary part.
    """
    n, m = band.grid.n_points, band.fiber_dim
    proj = band.proj if np.any(band.proj.imag) else band.proj.real
    P = np.zeros((n * m, n * m), dtype=proj.dtype)
    inside = np.nonzero(band.mask)[0]
    P.reshape(n, m, n, m)[inside, :, inside, :] = proj[inside]
    return ProjectionOperator(P, tag="P_star")


def smoothed_projection_family(band: BandData, delta: float) -> list[ProjectionOperator]:
    """Nested smoothed window projections P_0 ... P_3.

    P_i multiplies the fiber projection by the mollified indicator of the
    window shrunk by (4-i)*delta/5, with ramp width delta/5.  The nesting
    P_i P_j = P_j P_i = P_i holds exactly for i < j because each indicator's
    support lies inside the next one's plateau.
    """
    if band.window is None:
        raise ValueError("smoothed projections require a finite window")
    a, b = band.window
    if b - a <= 2 * delta:
        raise ValueError(f"window {band.window} too thin for delta={delta}")
    n, m = band.grid.n_points, band.fiber_dim
    idx = np.arange(m)
    out = []
    for i in range(4):
        s = (4 - i) * delta / 5
        w = interval_indicator(band.grid.x, [(a + s, b - s)], margin=delta / 5)
        P = np.zeros((n * m, n * m), dtype=complex)
        for j in range(n):
            if w[j] > 0:
                P[np.ix_(j * m + idx, j * m + idx)] = w[j] * band.proj[j]
        out.append(ProjectionOperator(P, tag=f"P_{i}"))
    return out


def energy_cutoff(eigenvalues: np.ndarray, eigenvectors: np.ndarray, cutoff: float) -> ProjectionOperator:
    """Spectral projection onto total energies <= cutoff."""
    sel = eigenvalues <= cutoff
    V = eigenvectors[:, sel]
    return ProjectionOperator(V @ V.conj().T, tag="energy_cutoff")


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
