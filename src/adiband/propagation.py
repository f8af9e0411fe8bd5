"""Exact unitary evolution by one-time eigendecomposition, and the
decoupling / effective-dynamics error functionals.

Time stepping is exact: e^{-iHt/eps} is applied through the spectral
decomposition of the assembled operator, so every error measured here is
an adiabatic or semiclassical error of the model, never a time-integration
artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .electronic import BandData
from .grids import MolecularWave, NuclearWave, norm, sobolev_norm
from .hamiltonians import DenseHamiltonian, ProjectionOperator, u_matrix

__all__ = [
    "SpectralPropagator",
    "diagonalize",
    "evolve",
    "decoupling_error",
    "effective_dynamics_error",
]


@dataclass(frozen=True)
class SpectralPropagator:
    """Eigendecomposition of a DenseHamiltonian, reusable for any time."""

    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)
    eps: float
    tag: str

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    def unitary(self, t: float) -> np.ndarray:
        """Dense e^{-iHt/eps}."""
        phases = np.exp(-1j * self.eigenvalues * t / self.eps)
        return (self.eigenvectors * phases) @ self.eigenvectors.conj().T

    def apply(self, vec: np.ndarray, t: float) -> np.ndarray:
        """e^{-iHt/eps} vec without forming the dense unitary.

        vec may be one vector (N,) or a block of columns (N, k).
        """
        # V^dag vec as conj(V^T conj(vec)): no dim^2 conjugate copy of V
        c = (self.eigenvectors.T @ vec.conj()).conj()
        phases = np.exp(-1j * self.eigenvalues * t / self.eps)
        c *= np.expand_dims(phases, tuple(range(1, c.ndim)))
        return self.eigenvectors @ c

    def energy_cutoff_apply(self, vec: np.ndarray, cutoff: float) -> np.ndarray:
        """Project vec, (N,) or (N, k), onto total energies <= cutoff."""
        c = (self.eigenvectors.T @ vec.conj()).conj()
        c[self.eigenvalues > cutoff] = 0.0
        return self.eigenvectors @ c


def diagonalize(H: DenseHamiltonian, validate: bool = False) -> SpectralPropagator:
    """Eigendecompose an assembled operator.

    A real-stored operator runs the real-symmetric solver; its real
    eigenvectors are stored complex, so the propagator has one product
    path for every model.  With validate=True the reconstruction
    U diag(w) U^dag is checked against H to 1e-10 (costs two extra dense
    products).
    """
    w, v = np.linalg.eigh(H.matrix)
    if validate:
        recon = (v * w) @ v.conj().T
        err = np.abs(recon - H.matrix).max()
        if err > 1e-10 * max(1.0, np.abs(H.matrix).max()):
            raise AssertionError(f"eigendecomposition reconstruction error {err:.2e}")
        unit = np.abs(v.conj().T @ v - np.eye(H.dim)).max()
        if unit > 1e-11 * H.dim:
            raise AssertionError(f"eigenvector matrix not unitary ({unit:.2e})")
    return SpectralPropagator(
        eigenvalues=w, eigenvectors=v.astype(complex, copy=False), eps=H.eps, tag=H.tag
    )


def evolve(prop: SpectralPropagator, wave: NuclearWave | MolecularWave, t: float):
    """Propagate a wave for time t; norm-preserving and a one-parameter group."""
    if isinstance(wave, MolecularWave):
        flat = wave.flat()
        if len(flat) != prop.dim:
            raise ValueError(f"dimension mismatch: wave {len(flat)}, operator {prop.dim}")
        out = prop.apply(flat, t).reshape(wave.values.shape)
        return MolecularWave(grid=wave.grid, values=out, eps=wave.eps)
    if len(wave.values) != prop.dim:
        raise ValueError(f"dimension mismatch: wave {len(wave.values)}, operator {prop.dim}")
    return NuclearWave(grid=wave.grid, values=prop.apply(wave.values, t), eps=wave.eps)


def decoupling_error(
    prop_full: SpectralPropagator,
    prop_diag: SpectralPropagator,
    psi0: MolecularWave,
    t: float,
    energy_cutoff: float | None = None,
) -> float:
    """Distance between the full and the band-preserving evolution on one state.

    Without a cutoff the difference is normalized by the scaled second
    Sobolev norm of the initial state (applied-state proxy for the operator
    norm on W^{2,eps}).  With a cutoff, the state is first projected onto
    total energies <= cutoff and the difference is measured relative to its
    plain L^2 norm.
    """
    if norm(psi0) == 0.0:
        raise ValueError("zero initial state")
    vec = psi0.flat()
    if energy_cutoff is not None:
        vec = prop_full.energy_cutoff_apply(vec, energy_cutoff)
        denom = float(np.sqrt(np.sum(np.abs(vec) ** 2) * psi0.grid.dx))
        if denom == 0.0:
            raise ValueError("energy cutoff annihilated the state")
    else:
        denom = sobolev_norm(psi0, 2)
    d = prop_full.apply(vec, t) - prop_diag.apply(vec, t)
    return float(np.sqrt(np.sum(np.abs(d) ** 2) * psi0.grid.dx) / denom)


def effective_dynamics_error(
    prop_full: SpectralPropagator,
    prop_bo: SpectralPropagator,
    band: BandData,
    P_state: ProjectionOperator | np.ndarray,
    psi0: MolecularWave,
    t: float,
    delta: float = 0.5,
    window_times: tuple | None = None,
    allow_outside_window: bool = False,
) -> float:
    """Full evolution versus the band-identified effective evolution.

    Measures ||(e^{-iHt/eps} - U* e^{-iH_bo t/eps} U) P psi0|| / ||P psi0||
    where P is the approximate phase-space projection and U the band
    identification.  If `window_times` (T-, T+) is given, times outside the
    window raise unless explicitly allowed (the bound is not asserted
    there; callers may still log the value).
    """
    if window_times is not None and not allow_outside_window:
        t_minus, t_plus = window_times
        if not (t_minus <= t <= t_plus):
            raise ValueError(
                f"t={t} outside the hitting-time window [{t_minus:.4f}, {t_plus:.4f}]"
            )
    Pm = P_state.matrix if isinstance(P_state, ProjectionOperator) else P_state
    vec = Pm @ psi0.flat()
    dx = psi0.grid.dx
    nP = float(np.sqrt(np.sum(np.abs(vec) ** 2) * dx))
    if nP < 1e-12:
        raise ValueError("projected initial state vanishes; state and region are disjoint")
    U = u_matrix(band, delta)
    reduced = prop_bo.apply(U @ vec, t)
    d = prop_full.apply(vec, t) - U.conj().T @ reduced
    return float(np.sqrt(np.sum(np.abs(d) ** 2) * dx) / nP)
