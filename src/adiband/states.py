"""Initial-state families and their matched classical distributions.

Every constructor returns a (wave, ClassicalDensity) pair such that the
quantum expectations of Weyl observables converge to the classical ones as
eps -> 0.  The families converge at different rates:

* localized wave packets (coherent_state): sqrt(eps) in general; symmetric
  envelopes hide the sqrt(eps) moment term, the skewed preset exposes it;
* sharp momentum: eps (a boosted envelope makes the first-order term
  visible in the momentum moments);
* WKB states f e^{iS/eps}: at least sqrt(eps) (the standard polynomial
  observables converge faster).

Envelope presets are Schwartz-class, so the L^1 moment conditions needed
by the wave-packet estimates hold automatically.
"""

from __future__ import annotations

import numpy as np

from .electronic import BandData
from .grids import Grid1D, MolecularWave, NuclearWave, l2_norm
from .hamiltonians import u_star_map
from .semiclassics import ClassicalDensity

__all__ = [
    "envelope",
    "coherent_state",
    "sharp_momentum_state",
    "wkb_state",
    "lift_to_band",
]

# the first-moment weight of the 'gaussian_skew' envelope
_SKEW = 0.5


def envelope(name: str = "gaussian"):
    """Schwartz-class envelope presets on the rescaled coordinate u.

    'gaussian':       exp(-u^2/2)
    'gaussian_skew':  (1 + u/2) exp(-u^2/2), skew weight `_SKEW` = 0.5
                      (nonzero first moment: exposes the sqrt(eps) packet rate)
    """
    if name == "gaussian":
        return lambda u: np.exp(-(u**2) / 2)
    if name == "gaussian_skew":
        return lambda u: (1 + _SKEW * u) * np.exp(-(u**2) / 2)
    raise KeyError(f"unknown envelope {name!r}")


def _normalized(grid, values, eps):
    nrm = l2_norm(values, grid.dx)
    if nrm == 0:
        raise ValueError("zero state")
    return NuclearWave(grid, values / nrm, eps=eps)


def _check_position_clearance(grid, q0, clearance):
    if q0 - grid.x_min < clearance or grid.x_max - q0 < clearance:
        raise ValueError(
            f"center {q0} closer than {clearance:.3f} to the box edge; "
            "state would wrap around"
        )


def _check_coherent_center(grid: Grid1D, eps: float, q0: float, p0: float):
    """Refuse a packet center whose 5*sqrt(eps) halo does not fit in the position or momentum window.

    The refusals of `coherent_state`, shared by the state family and the
    config load, which refuses a center that no eps of its ladder can hold.
    """
    halo = 5 * np.sqrt(eps)
    _check_position_clearance(grid, q0, halo)
    p_max = eps * np.abs(grid.k).max()
    if abs(p0) + halo > p_max:
        raise ValueError(f"momentum center {p0} too close to the lattice edge {p_max:.3f}")


def _check_sharp_momentum(grid: Grid1D, eps: float, p0: float):
    """Refuse a momentum p0 past 0.8 of the lattice edge eps max |k|.

    The refusal of `sharp_momentum_state`, shared with the config load,
    which refuses a momentum that no eps of its ladder can hold.
    """
    p_max = eps * np.abs(grid.k).max()
    if abs(p0) > 0.8 * p_max:
        raise ValueError(f"momentum {p0} too close to the lattice edge {p_max:.3f}")


def _check_wkb_phase(grid: Grid1D, eps: float, S):
    """Refuse a phase function S that does not wind by a multiple of 2*pi*eps across the periodic seam.

    The refusal of `wkb_state`, shared with the config load, which refuses
    a phase that no eps of its ladder can hold.
    """
    jump = abs(float(S(grid.x_max)) - float(S(grid.x_min)))
    winding = 2 * np.pi * eps
    if min(jump % winding, winding - (jump % winding)) > 1e-9 and jump > 1e-9:
        raise ValueError(
            f"phase function jumps by {jump:.3e} across the seam; "
            "not a multiple of 2*pi*eps"
        )


def _coherent_values(grid: Grid1D, eps: float, q0, p0, profile="gaussian") -> np.ndarray:
    """The normalized samples of `coherent_state`, without its checks.

    For numbers q0 and p0 the samples form a vector of shape (n,).  For
    centers of shape (k, 1) they form a (k, n) block, one packet per row,
    each row normalized over its own contiguous samples, so every row is
    the same bits as the vector of its center.
    """
    prof = envelope(profile) if isinstance(profile, str) else profile
    u = (grid.x - q0) / np.sqrt(eps)
    vals = eps**-0.25 * np.exp(1j * p0 * (grid.x - q0) / eps) * np.asarray(prof(u), dtype=complex)
    nrm = l2_norm(vals, grid.dx, axis=-1)
    if np.any(nrm == 0):
        raise ValueError("zero state")
    return vals / nrm[..., None]


def coherent_state(grid: Grid1D, eps: float, q0: float, p0: float, profile="gaussian"):
    """Wave packet tracking the classical point (q0, p0).

    phi(X) = eps^{-1/4} e^{i p0 (X-q0)/eps} profile((X-q0)/sqrt(eps)),
    normalized, with `profile` an `envelope` name or a callable of u.  The
    matched classical density is the point mass at (q0, p0).  Raises if the
    packet (5*sqrt(eps) halo) does not fit in the position or momentum
    window (`_check_coherent_center`).
    """
    _check_coherent_center(grid, eps, q0, p0)
    wave = NuclearWave(grid, _coherent_values(grid, eps, q0, p0, profile), eps=eps)
    rho = ClassicalDensity(np.array([[q0, p0]]), np.array([1.0]))
    return wave, rho


def sharp_momentum_state(grid: Grid1D, eps: float, p0: float, profile=None, center=0.0, width=1.0, boost=0.0):
    """Plane-wave-modulated envelope: sharp momentum, eps-independent density.

    phi(X) = e^{i p0 X / eps} g(X), classical density
    delta(p - p0) |g(q)|^2 dq dp.  The modulus of the state does not depend
    on eps; the scaled momentum concentrates at p0 at rate eps.  Without a
    `profile` callable, g(X) = e^{i boost X} exp(-(X - center)^2 / (2 width^2));
    a nonzero boost (frame momentum) makes the first-order term visible.
    """
    if profile is None:
        g = np.exp(1j * boost * grid.x) * np.exp(-((grid.x - center) ** 2) / (2 * width**2))
    else:
        g = np.asarray(profile(grid.x), dtype=complex)
    _check_sharp_momentum(grid, eps, p0)
    vals = np.exp(1j * p0 * grid.x / eps) * g
    wave = _normalized(grid, vals, eps)
    dens = np.abs(wave.values) ** 2 * grid.dx
    pts = np.column_stack([grid.x, np.full(grid.n_points, p0)])
    rho = ClassicalDensity(pts, dens)
    return wave, rho


def _wkb_normalized(grid: Grid1D, eps: float, f, S) -> NuclearWave:
    """The normalized wave f(X) e^{i S(X)/eps} of `wkb_state`, without its density; a phase that does
    not wind by a multiple of 2*pi*eps across the seam is refused (`_check_wkb_phase`)."""
    fv = np.asarray(f(grid.x), dtype=float)
    Sv = np.asarray(S(grid.x), dtype=float)
    _check_wkb_phase(grid, eps, S)
    return _normalized(grid, fv * np.exp(1j * Sv / eps), eps)


def wkb_state(grid: Grid1D, eps: float, f, S, dS=None):
    """Oscillatory state f(X) e^{i S(X)/eps} on the Lagrangian graph p = S'(q).

    f and S must be real and periodic on the box (the phase may also wind
    by multiples of 2*pi*eps).  The classical density is the graph cloud
    {(X_i, S'(X_i))} weighted by the normalized f^2 dX.
    """
    wave = _wkb_normalized(grid, eps, f, S)
    if dS is not None:
        slope = np.asarray(dS(grid.x), dtype=float)
    else:
        slope = np.fft.ifft(1j * grid.k * np.fft.fft(np.asarray(S(grid.x), dtype=float))).real
    dens = np.abs(wave.values) ** 2 * grid.dx
    rho = ClassicalDensity(np.column_stack([grid.x, slope]), dens)
    return wave, rho


def lift_to_band(phi: NuclearWave, band: BandData) -> MolecularWave:
    """Embed a nuclear wave onto the tracked electronic band frame."""
    return u_star_map(phi, band)
