"""Band decomposition with smooth gauge, gap verification, Berry connection,
and resolvent-based projections.

Band identity across the grid is tracked by overlap continuation from an
anchor point, so a band can be followed smoothly through an exact crossing
(at a degeneracy the previous eigenvector is projected onto the degenerate
eigenspace).  Two gauges are available for the tracked eigenvector field:

``component``
    The component of chi along a fixed reference axis (chosen at the
    anchor) is made real positive at every grid point.  This is a smooth
    pointwise section; its Berry connection is generally nonzero for
    complex fibers.  Default, and the gauge in which the geometric vector
    potential entering the effective nuclear Hamiltonian is reported.
``transport``
    Discrete parallel transport: the phase of chi(X_{i+1}) is chosen so
    that <chi(X_i), chi(X_{i+1})> is real positive, anchored at the
    leftmost window point.  In this gauge the numerical Berry connection
    vanishes to O(dx^2) by construction.

Gradients of band quantities are computed two independent ways: 8th-order
centered differences of grid samples, and exact per-point perturbation
formulas built from the model's closed-form dH/dX.  Identity tests compare
the two routes.

`band_decompose` solves its m x m fiber stack by `eigh_by_blocks`, one
connected component of the stack's exact-zero pattern at a time
(`_coupled_components`).  The package finds blocks from exact-zero
patterns only on m x m fibers, here and in
`hamiltonians.FiberedOperator.components`, never on an N x N operator.

The resolvent projections integrate by the trapezoid rule on a circle
with `_CONTOUR_NODES` = 128 nodes, spectrally accurate for the analytic
integrand; `resolvent_quadrature` is the one quadrature, shared by
`riesz_projection` and `identities.commutator_inverse`.
`riesz_projection` refuses a circle that passes closer to an eigenvalue
than `_MIN_CLEARANCE` (1e-6) times its radius, and band tracking continues
inside an eigenspace whose levels agree to `_DEG_TOL` (1e-8) relative.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .grids import Grid1D
from .models import ElectronicModel

__all__ = [
    "BandData",
    "GapReport",
    "band_decompose",
    "gap_check",
    "berry_connection",
    "riesz_projection",
    "grad_projection",
    "offdiag_spectral_sum",
    "resolvent_quadrature",
    "fd_derivative",
]

_FD8_WEIGHTS = np.array([1 / 280, -4 / 105, 1 / 5, -4 / 5, 0.0, 4 / 5, -1 / 5, 4 / 105, -1 / 280])
_CONTOUR_NODES = 128
_MIN_CLEARANCE = 1e-6
_DEG_TOL = 1e-8
# above 1/sqrt(2) a unit vector's best overlap with an orthonormal basis is its only one that large
_SURE_OVERLAP = 0.71


def fd_derivative(samples: np.ndarray, dx: float, axis: int = 0) -> np.ndarray:
    """8th-order centered difference of periodic grid samples along `axis`.

    Accurate to O(dx^8) for smooth periodic fields; near a seam
    discontinuity only the 4 points on each side are polluted.
    """
    out = np.zeros_like(np.asarray(samples, dtype=complex))
    for shift, w in zip(range(-4, 5), _FD8_WEIGHTS):
        if w != 0.0:
            out += w * np.roll(samples, -shift, axis=axis)
    out /= dx
    if np.isrealobj(samples):
        return out.real
    return out


def _coupled_components(pattern: np.ndarray) -> list:
    """Index sets of the connected components of a square boolean coupling pattern.

    Entry (a, b) or (b, a) couples a and b.  The reach of every index is
    the transitive closure of the symmetric pattern (Warshall's sweep);
    components come in order of their smallest index, each as ascending
    indices.  The package passes m x m fiber patterns only.
    """
    reach = pattern | pattern.T | np.eye(len(pattern), dtype=bool)
    for k in range(len(reach)):
        reach |= reach[:, [k]] & reach[k]
    return [np.flatnonzero(row) for a, row in enumerate(reach) if row.argmax() == a]


def eigh_by_blocks(M: np.ndarray):
    """`np.linalg.eigh` of a Hermitian matrix or (n, m, m) stack, one exactly decoupled block at a time.

    The blocks are the connected components of the exact-zero pattern of
    M (for a stack, of the union over the stack), each solved on its own
    indices.  The eigenvalues are merged in ascending order (a stable
    sort, per matrix of a stack) and each block's eigenvectors are
    scattered into its rows, zero elsewhere.  With one block the result is
    `np.linalg.eigh(M)` itself.  It serves `band_decompose`'s m x m fiber
    stack, whose per-point spectra are read as one ascending array.
    """
    blocks = _coupled_components((M != 0).any(axis=tuple(range(M.ndim - 2))))
    if len(blocks) == 1:
        return np.linalg.eigh(M)
    w = np.empty(M.shape[:-1])
    V = np.zeros(M.shape, dtype=np.result_type(M, 1.0))
    start = 0
    for idx in blocks:
        cols = slice(start, start + len(idx))
        w[..., cols], V[..., idx, cols] = np.linalg.eigh(M[..., idx[:, None], idx])
        start += len(idx)
    order = np.argsort(w, axis=-1, kind="stable")
    return np.take_along_axis(w, order, axis=-1), np.take_along_axis(V, order[..., None, :], axis=-1)


@dataclass(frozen=True)
class BandData:
    """Per-grid-point eigendecomposition of a model with band tracking.

    evals/evecs hold the full ascending spectrum at every point.  proj is
    the fiber projection onto the selected band set.  For a single band,
    band_energy and chi hold the identity-tracked, gauge-fixed curve.

    The band carries its isolation window and the window margin delta, set
    once by `band_decompose`.  Every function that takes a band reads the
    grid, the window and the margin from it: the lift and U (through
    `chi_clamped`), the phase-space projection, the BO operator and the
    classical flow's energy cannot read different margins.  Only the
    primitives on a bare window (`hamiltonians.clamp_field`,
    `semiclassics.hitting_times`, `PhaseSpaceRegion.check_inside`) take
    the window and delta as arguments.
    """

    grid: Grid1D
    model: ElectronicModel
    band_indices: tuple
    window: tuple | None
    delta: float
    mask: np.ndarray = field(repr=False)
    evals: np.ndarray = field(repr=False)
    evecs: np.ndarray = field(repr=False)
    proj: np.ndarray = field(repr=False)
    band_energy: np.ndarray | None = field(repr=False, default=None)
    chi: np.ndarray | None = field(repr=False, default=None)
    ref_component: int = 0

    @property
    def fiber_dim(self) -> int:
        return self.model.fiber_dim

    def window_slice(self, shrink: float = 0.0):
        """Boolean mask of grid points at distance > shrink inside the window."""
        if self.window is None:
            return np.ones(self.grid.n_points, dtype=bool)
        a, b = self.window
        return (self.grid.x > a + shrink) & (self.grid.x < b - shrink)

    def with_gauge_shift(self, theta: np.ndarray) -> "BandData":
        """Return a copy with chi multiplied by exp(i*theta(X_i)) pointwise."""
        if self.chi is None:
            raise ValueError("no gauged eigenvector field on this band data")
        return replace(self, chi=self.chi * np.exp(1j * np.asarray(theta))[:, None])

    def chi_clamped(self) -> np.ndarray:
        """chi extended outside the window shrunk by delta/2 by its boundary values.

        The one home of the frame's extension policy: U, U* and every lift
        onto the band frame read the frame through this method.
        """
        if self.chi is None:
            raise ValueError("no gauged eigenvector field on this band data")
        if self.window is None:
            return self.chi.copy()
        a, b = self.window
        x = self.grid.x
        shrink = self.delta / 2
        ia = int(np.searchsorted(x, a + shrink))
        ib = int(np.searchsorted(x, b - shrink)) - 1
        out = self.chi.copy()
        out[:ia] = self.chi[ia]
        out[ib:] = self.chi[ib]
        return out


def _track_band(evals, evecs, start_band, anchor):
    """Follow one band outward from the anchor by maximal-overlap continuation.

    The overlaps |V_i^H V_{i-1}| of adjacent points of the eigenvector stack
    are formed by one batched product.  From the band's column at one point,
    the walk takes the table's best column at the next while that overlap
    exceeds `_SURE_OVERLAP` and no other level lies within `_DEG_TOL`
    relative of its level.  Elsewhere it takes `step` against the previous
    vector: inside an eigenspace whose levels agree to `_DEG_TOL` the vector
    is continued by projection, and a best overlap below 0.7 is refused.  The
    walk returns to the table once a step lands on a column.  Both routes
    choose the same column, so chi and the energy are the bits of a walk by
    `step` alone.
    """
    n, m, _ = evecs.shape
    chi = np.zeros((n, m), dtype=complex)
    energy = np.zeros(n)

    def step(i, prev):
        """The vector, the level and the column (None inside a degenerate eigenspace) at point i."""
        v = evecs[i]
        overlaps = np.abs(v.conj().T @ prev)
        j = int(np.argmax(overlaps))
        # at a near-degeneracy, continue inside the degenerate eigenspace
        deg = np.nonzero(np.abs(evals[i] - evals[i, j]) < _DEG_TOL * max(1.0, abs(evals[i, j])))[0]
        if len(deg) > 1:
            sub = v[:, deg]
            cand = sub @ (sub.conj().T @ prev)
            nc = np.linalg.norm(cand)
            if nc > 0.5:
                return cand / nc, evals[i, j], None
        if overlaps[j] < 0.7:
            raise RuntimeError(
                f"band tracking lost at grid index {i}: best overlap {overlaps[j]:.3f}"
            )
        return v[:, j], evals[i, j], j

    # overlaps[r][a, b] = |<V_{r+1}[:, a], V_r[:, b]>|; alone[i][j]: no other level within _DEG_TOL of level j at i
    overlaps = np.abs(evecs[1:].conj().transpose(0, 2, 1) @ evecs[:-1])
    near = np.abs(evals[:, None, :] - evals[:, :, None]) < _DEG_TOL * np.maximum(1.0, np.abs(evals))[:, :, None]
    alone = (near.sum(axis=2) == 1).tolist()
    cols = np.full(n, -1)
    cols[anchor] = start_band
    # each direction: its points, the neighbour each steps from, the table axis of the new point, the row offset
    for points, back, axis, row in ((range(anchor + 1, n), -1, 1, -1), (range(anchor - 1, -1, -1), 1, 2, 0)):
        best, sure = overlaps.argmax(axis=axis).tolist(), (overlaps.max(axis=axis) > _SURE_OVERLAP).tolist()
        j = start_band
        for i in points:
            r = i + row
            if j is not None and sure[r][j] and alone[i][best[r][j]]:
                j = cols[i] = best[r][j]
            else:
                chi[i], energy[i], j = step(i, chi[i + back] if j is None else evecs[i + back, :, j])
    on = cols >= 0
    chi[on] = evecs[on, :, cols[on]]
    energy[on] = evals[on, cols[on]]
    return energy, chi


def _fix_gauge(chi, gauge, anchor, mask):
    n, m = chi.shape
    if gauge == "component":
        amp = np.abs(chi[anchor])
        candidates = np.nonzero(amp >= 0.5 * amp.max())[0]
        r = int(candidates[0])
        comp = chi[:, r]
        floor = 0.02 * np.abs(comp[anchor])
        if np.abs(comp[mask]).min() < floor:
            raise RuntimeError(
                f"reference component {r} vanishes inside the window; "
                "use gauge='transport' for this band"
            )
        phases = comp / np.abs(comp)
        return chi / phases[:, None], r
    if gauge == "transport":
        out = chi.copy()
        # anchor: first nonzero component real positive
        amp = np.abs(out[anchor])
        r = int(np.nonzero(amp > 1e-12 * amp.max())[0][0])
        out[anchor] *= np.abs(out[anchor, r]) / out[anchor, r]
        for i in range(anchor + 1, n):
            o = np.vdot(out[i - 1], out[i])
            out[i] *= np.conj(o) / abs(o)
        for i in range(anchor - 1, -1, -1):
            o = np.vdot(out[i + 1], out[i])
            out[i] *= np.conj(o) / abs(o)
        return out, r
    raise ValueError(f"unknown gauge {gauge!r}")


def _window_mask(grid: Grid1D, window) -> np.ndarray:
    """The grid points strictly inside the window (a, b), O(n); a window that holds none is refused (ValueError)."""
    a, b = window
    mask = (grid.x > a) & (grid.x < b)
    if not mask.any():
        raise ValueError(f"window {window} contains no grid points")
    return mask


def _band_indices_ok(indices, m: int) -> bool:
    """Whether `indices` is a band set read as given: a non-empty, strictly ascending list (or tuple) of
    integers in [0, m), not bools, so that no index is wrapped, truncated or out of range."""
    return (
        isinstance(indices, (list, tuple)) and len(indices) > 0
        and all(isinstance(b, (int, np.integer)) and not isinstance(b, bool) for b in indices)
        and 0 <= indices[0] and indices[-1] < m and all(a < b for a, b in zip(indices, indices[1:]))
    )


def band_decompose(
    model: ElectronicModel,
    grid: Grid1D,
    band_indices,
    window: tuple | None = None,
    gauge: str | None = "component",
    delta: float = 0.5,
) -> BandData:
    """Diagonalize the fiber Hamiltonian on the grid and select a band set.

    The fibers are solved as one stack by `eigh_by_blocks`: components
    that no H_e(X_i) couples (the -X level of `crossing_trio`) are solved
    apart, so their eigenvectors, and the projections built from them,
    are exactly zero off their components.

    Parameters
    ----------
    band_indices : int, or list or tuple of ints
        Strictly ascending spectral positions in [0, m) (at the anchor
        point) of the bands forming the selected set; anything else is
        refused.
    window : (a, b) or None
        Region where the set is required to be isolated; None means the
        whole box.  The anchor for identity tracking is the window point
        with the largest internal gap margin.
    gauge : 'component' | 'transport' | None
        Gauge for the tracked eigenvector field (single bands only).
    delta : float
        The window margin, kept on the band as `BandData.delta`.  The band
        energy and the connection are extended past the window shrunk by
        delta/5, the frame past the window shrunk by delta/2, and the
        phase-space cut, the leakage measure and the observable cut stay
        delta inside the window.
    """
    if np.isscalar(band_indices):
        band_indices = (band_indices,)
    n, m = grid.n_points, model.fiber_dim
    if not _band_indices_ok(band_indices, m):
        raise ValueError(f"band indices {band_indices} must be strictly ascending integers in [0, {m})")
    band_indices = tuple(int(b) for b in band_indices)

    # h_batch returns real fibers as a real stack: the real solver gives frames with zero imaginary part
    evals, evecs = eigh_by_blocks(model.h_batch(grid.x))
    evecs = evecs.astype(complex, copy=False)

    mask = np.ones(n, dtype=bool) if window is None else _window_mask(grid, window)

    # fiber projections from the ascending selection (smooth across internal crossings)
    cols = list(band_indices)
    proj = np.einsum("iak,ibk->iab", evecs[:, :, cols], evecs[:, :, cols].conj())

    band_energy = chi = None
    anchor = int(np.nonzero(mask)[0][0])
    ref = 0
    if len(band_indices) == 1 and gauge is not None:
        # anchor identity tracking at the in-window point where the band is
        # best separated from its neighbors
        j = band_indices[0]
        sep = np.full(n, np.inf)
        if j > 0:
            sep = np.minimum(sep, evals[:, j] - evals[:, j - 1])
        if j < m - 1:
            sep = np.minimum(sep, evals[:, j + 1] - evals[:, j])
        sep[~mask] = -np.inf
        anchor = int(np.argmax(sep))
        band_energy, chi = _track_band(evals, evecs, j, anchor)
        chi, ref = _fix_gauge(chi, gauge, anchor, mask)
        proj = np.einsum("ia,ib->iab", chi, chi.conj())

    return BandData(
        grid=grid, model=model, band_indices=band_indices, window=window, delta=delta,
        mask=mask, evals=evals, evecs=evecs, proj=proj,
        band_energy=band_energy, chi=chi, ref_component=ref,
    )


@dataclass(frozen=True)
class GapReport:
    """Isolation report for a band set over the window."""

    f_minus: np.ndarray = field(repr=False)
    f_plus: np.ndarray = field(repr=False)
    d: float
    d_request: float
    holds_on_window: bool
    argmin_x: float


def gap_check(band: BandData, d_request: float) -> GapReport:
    """Measure the spectral distance between the band set and its complement.

    The achieved margin d is the minimum over window points of
    dist(sigma_*, spectrum \\ sigma_*); enclosing curves f_- and f_+ hug the
    selected set at distance d on both sides.  Failure (d < d_request) is a
    valid report, not an error.
    """
    cols = list(band.band_indices)
    others = [j for j in range(band.fiber_dim) if j not in cols]
    sel = band.evals[:, cols]
    lo, hi = sel.min(axis=1), sel.max(axis=1)
    if others:
        rest = band.evals[:, others]
        # distance from the set to any complement eigenvalue; a complement
        # value sitting between selected bands means the gap is zero
        dist = np.min(np.abs(rest[:, :, None] - band.evals[:, None, cols]), axis=(1, 2))
        inside = (rest > lo[:, None]) & (rest < hi[:, None])
        dist[inside.any(axis=1)] = 0.0
    else:
        dist = np.full(band.grid.n_points, np.inf)

    masked = np.where(band.mask, dist, np.inf)
    i0 = int(np.argmin(masked))
    d = float(masked[i0])
    margin = d * (1 - 1e-12) if np.isfinite(d) else 1.0
    f_minus = lo - margin
    f_plus = hi + margin
    return GapReport(
        f_minus=f_minus, f_plus=f_plus, d=d, d_request=float(d_request),
        holds_on_window=bool(d >= d_request), argmin_x=float(band.grid.x[i0]),
    )


def berry_connection(band: BandData) -> np.ndarray:
    """Geometric vector potential Im<chi, dchi/dX> of the gauged band.

    Returned on the full grid; meaningful where the tracked field is smooth
    (inside the window, away from the periodic seam for non-periodic
    models).  Real by construction up to O(dx^8): the real part of
    <chi, chi'> is half the derivative of ||chi||^2 = 1.
    """
    if band.chi is None:
        raise ValueError("berry_connection requires a gauged single band")
    dchi = fd_derivative(band.chi, band.grid.dx, axis=0)
    pairing = np.einsum("ia,ia->i", band.chi.conj(), dchi)
    return pairing.imag


def resolvent_quadrature(H: np.ndarray, center: float, radius: float, integrand) -> np.ndarray:
    """Trapezoid rule on `_CONTOUR_NODES` points for -(1/2 pi i) oint integrand(R) dlambda,
    R = (H - lambda)^-1, counterclockwise on |lambda - center| = radius."""
    m = H.shape[0]
    out = np.zeros((m, m), dtype=complex)
    for th in 2 * np.pi * np.arange(_CONTOUR_NODES) / _CONTOUR_NODES:
        lam = center + radius * np.exp(1j * th)
        out -= np.exp(1j * th) * integrand(np.linalg.inv(H - lam * np.eye(m)))
    return out * (radius / _CONTOUR_NODES)


def riesz_projection(model: ElectronicModel, X: float, center: float, radius: float) -> np.ndarray:
    """Spectral projection of H_e(X) by resolvent quadrature on |lambda - center| = radius.

    errors: raises if any eigenvalue sits closer to the circle than
    `_MIN_CLEARANCE` times its radius.
    """
    H = model.h(X)
    evals = np.linalg.eigvalsh(H)
    clearance = np.abs(np.abs(evals - center) - radius).min()
    floor = _MIN_CLEARANCE * radius
    if clearance < floor:
        raise ValueError(
            f"eigenvalue within {clearance:.3e} of the contour at X={X}; "
            f"required clearance {floor:.3e}"
        )
    return resolvent_quadrature(H, center, radius, lambda R: R)


def grad_projection(band: BandData, method: str = "fd") -> np.ndarray:
    """dP/dX of the fiber projections, shape (n, m, m).

    method='fd': 8th-order centered differences of the sampled P(X_i)
    (independent of the model's analytic derivative).
    method='analytic': exact per-point perturbation sum
    P^perp (dP) P + adjoint built from dH/dX and the eigenpairs.
    """
    if method == "fd":
        return fd_derivative(band.proj, band.grid.dx, axis=0)
    if method != "analytic":
        raise ValueError(f"unknown method {method!r}")
    n, m = band.grid.n_points, band.fiber_dim
    cols = list(band.band_indices)
    others = [j for j in range(m) if j not in cols]
    out = np.zeros((n, m, m), dtype=complex)
    if not others:
        return out
    for i, X in enumerate(band.grid.x):
        block = offdiag_spectral_sum(band.evals[i], band.evecs[i], band.model.dh(X), others, cols,
                                     lambda wa, wb: wb - wa)
        out[i] = block + block.conj().T
    return out


def offdiag_spectral_sum(w, v, dH, others, cols, denom) -> np.ndarray:
    """sum over a in others, b in cols of |a><a|dH|b><b| / denom(w_a, w_b), for eigenpairs (w, v)."""
    m = len(w)
    out = np.zeros((m, m), dtype=complex)
    for a in others:
        for b in cols:
            coupling = v[:, a].conj() @ dH @ v[:, b]
            out += np.outer(v[:, a], v[:, b].conj()) * (coupling / denom(w[a], w[b]))
    return out
