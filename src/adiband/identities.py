"""High-precision operator identities behind the adiabatic estimates.

The central object is the bounded fiber operator B(X) solving

    [H_e(X), B(X)] = -P_perp (dP/dX) P,      B = P_perp B P,

i.e. the inverse of the commutator map on the off-diagonal block, which
exists whenever the band set is gapped.  Two independent constructions are
provided: a closed-form spectral sum with squared gap denominators, and a
resolvent contour quadrature.  (With the resolvent convention
R = (H_e - lambda)^{-1} and a counterclockwise circle around the selected
spectrum, the quadrature needs an overall minus sign for the commutator
identity above to hold; the two routes agree to quadrature accuracy.)

The off-diagonal part of the molecular Hamiltonian is the commutator of
the kinetic term with the band projection; its leading behavior is
-eps*(dP)*(eps*grad), first order in eps on scaled-Sobolev-normalized
states, with an O(eps^2) remainder.  offdiag_scaling measures both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .electronic import BandData, fd_derivative, grad_projection, offdiag_spectral_sum, resolvent_quadrature
from .grids import l2_norm, sobolev_norm, spectral_derivative_matrix
from .hamiltonians import _fiber_blocks, _fiber_sandwich, assemble_full
from .models import ElectronicModel

__all__ = [
    "commutator_inverse",
    "commutator_inverse_residual",
    "offdiag_scaling",
    "OffdiagScaling",
]


def _eig(model, X):
    return np.linalg.eigh(model.h(X))


def _selected(band: BandData, X, v):
    """Eigenvector columns spanning the band set at X.

    Chosen by overlap with the band's stored fiber projection (robust when
    a tracked band has moved past another in ascending order).
    """
    P = band.proj[band.grid.index_of(X)]
    weight = np.real(np.einsum("ka,kl,la->a", v.conj(), P, v))
    cols = [int(a) for a in np.nonzero(weight > 0.5)[0]]
    if len(cols) != len(band.band_indices):
        raise RuntimeError(f"band-set identification ambiguous at X={X}")
    return cols


def commutator_inverse(
    model: ElectronicModel,
    band: BandData,
    X: float,
    method: str = "spectral",
    nodes: int = 128,
    min_gap: float = 1e-6,
) -> np.ndarray:
    """The off-diagonal operator B(X) with [H_e, B] = -P_perp (dP) P.

    method='spectral': B_ab = <a|dH|b> / (E_a - E_b)^2 for a outside, b
    inside the band set.  method='contour': resolvent quadrature
    -(1/2 pi i) oint R^2 P_perp (dH) R P dlambda on a circle enclosing the
    selected eigenvalues with half-gap clearance.
    """
    w, v = _eig(model, X)
    cols = _selected(band, X, v)
    others = [j for j in range(len(w)) if j not in cols]
    gap = min(
        (abs(w[a] - w[b]) for a in others for b in cols),
        default=np.inf,
    )
    if gap < min_gap:
        raise ValueError(f"gap {gap:.3e} at X={X} below the safe floor {min_gap:.1e}")
    dH = model.dh(X)
    if method == "spectral":
        return offdiag_spectral_sum(w, v, dH, others, cols, lambda wa, wb: (wa - wb) ** 2)
    if method != "contour":
        raise ValueError(f"unknown method {method!r}")
    sel = w[cols]
    center = (sel.min() + sel.max()) / 2
    radius = (sel.max() - sel.min()) / 2 + gap / 2
    Psel = v[:, cols] @ v[:, cols].conj().T
    Pperp = np.eye(len(w)) - Psel
    return resolvent_quadrature(model.h(X), center, radius, nodes, lambda R: R @ R @ Pperp @ dH @ R @ Psel)


def commutator_inverse_residual(model: ElectronicModel, band: BandData, X: float) -> float:
    """max-norm of [H_e, B] + P_perp (dP) P at X, with dP from grid samples.

    The derivative oracle is the 8th-order difference of the sampled
    projections, independent of the closed-form dH route inside B.
    """
    i = band.grid.index_of(X)
    Xg = band.grid.x[i]
    B = commutator_inverse(model, band, Xg, method="spectral")
    H = model.h(Xg)
    dP = fd_derivative(band.proj, band.grid.dx, axis=0)[i]
    w, v = _eig(model, Xg)
    cols = _selected(band, Xg, v)
    Psel = v[:, cols] @ v[:, cols].conj().T
    Pperp = np.eye(len(w)) - Psel
    resid = H @ B - B @ H + Pperp @ dP @ Psel
    return float(np.abs(resid).max())


@dataclass(frozen=True)
class OffdiagScaling:
    """eps-ladder measurement of the off-diagonal coupling strength."""

    eps: tuple
    offdiag_norm: tuple
    remainder_norm: tuple
    slope: float
    remainder_slope: float


def offdiag_scaling(
    model: ElectronicModel,
    band: BandData,
    eps_ladder,
    states,
) -> OffdiagScaling:
    """Measure ||(H - H_diag) psi|| / ||psi||_{W^{1,eps}} over an eps ladder.

    Also subtracts the explicit leading term
    -eps * P_perp (dP) P . (eps * d/dX) + adjoint and reports the decay of
    the remainder (expected one order faster).

    Parameters
    ----------
    states : callable eps -> list of MolecularWave
        Test family, re-instantiated per eps (widths scale with eps).
    """
    grid = band.grid
    N = grid.n_points * band.fiber_dim
    dP_an = grad_projection(band, "analytic")
    # blockdiag(B_i) (D x 1) for the fiber field B_i = P_perp (dP) P: entry
    # (i*m + a, j*m + c) is B_i[a, c] D[i, j]
    B = (np.eye(band.fiber_dim) - band.proj) @ dP_an @ band.proj
    BD = (B[:, :, None, :] * spectral_derivative_matrix(grid)[:, None, :, None]).reshape(N, N)
    P = _fiber_blocks(band)
    Q = np.eye(band.fiber_dim) - P

    eps_ladder = tuple(float(e) for e in eps_ladder)
    off_norms, rem_norms = [], []
    for eps in eps_ladder:
        H = assemble_full(model, grid, eps).matrix
        # H - H_diag as P H Q + Q H P: formed directly, not as the difference of two O(1) operators
        offdiag = _fiber_sandwich(H, P, Q) + _fiber_sandwich(H, Q, P)
        lead = -1j * eps * eps * BD
        lead = lead + lead.conj().T
        worst_off, worst_rem = 0.0, 0.0
        for psi in states(eps):
            den = sobolev_norm(psi, 1)
            vec = psi.flat()
            o = offdiag @ vec
            r = o - lead @ vec
            worst_off = max(worst_off, l2_norm(o, grid.dx) / den)
            worst_rem = max(worst_rem, l2_norm(r, grid.dx) / den)
        off_norms.append(worst_off)
        rem_norms.append(worst_rem)
    le = np.log(eps_ladder)
    slope = float(np.polyfit(le, np.log(off_norms), 1)[0]) if min(off_norms) > 0 else np.inf
    rem_slope = float(np.polyfit(le, np.log(rem_norms), 1)[0]) if min(rem_norms) > 0 else np.inf
    return OffdiagScaling(
        eps=eps_ladder,
        offdiag_norm=tuple(off_norms),
        remainder_norm=tuple(rem_norms),
        slope=slope,
        remainder_slope=rem_slope,
    )
