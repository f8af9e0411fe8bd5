"""Weyl quantization, Wigner transforms, classical flow, hitting times, and
the semiclassical residual functionals.

Conventions
-----------
Weyl kernel on the periodic grid (acting on value vectors):

    A[i, j] = dx * dk/(2 pi) * sum_k a((X_i+X_j)/2, eps*k) * exp(+i (X_i-X_j) k)

with k over the grid's momentum lattice.  The sign in the exponent pairs
with the package's plane-wave convention exp(+i k X): the symbol p
quantizes exactly to the scaled momentum matrix eps*(-i d/dX), the symbol
q to multiplication by X, and 1 to the identity.

The marginal Wigner transform is evaluated at grid positions q = X_i and
on the half-spacing momentum lattice p_j = j*eps*dk/2, j = -n/2..n/2-1
(offsets of +-m*dx enter symmetrically, so even/odd aliasing cancels).
With these lattices, sum_j W(q, p_j) * dp equals the position density
exactly and the total mass equals ||psi||^2.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .electronic import BandData
from .grids import Grid1D, MolecularWave, NuclearWave
from .hamiltonians import ProjectionOperator, clamp_field, full_projection, u_matrix
from .indicators import PhaseSpaceRegion, SmoothIndicator, interval_indicator, smooth_indicator
from .propagation import SpectralPropagator

__all__ = [
    "Symbol",
    "F2Report",
    "ClassicalDensity",
    "PhaseSpaceRegion",
    "SmoothIndicator",
    "smooth_indicator",
    "weyl_quantize",
    "phase_space_projection",
    "band_energy_interpolant",
    "classical_flow",
    "hitting_times",
    "WignerData",
    "wigner_marginal",
    "write_wigner_csv",
    "egorov_residual",
    "boundary_leakage",
    "reduced_observable_residual",
]


# ---------------------------------------------------------------------------
# symbols and their quantization


@dataclass(frozen=True)
class F2Report:
    """Numerical estimate of int dxi sup_x |xi| |a^(2)(x, xi)| on the window."""

    value: float
    tail_fraction: float
    ok: bool


@dataclass(frozen=True)
class Symbol:
    """A phase-space observable a(q, p) with smoothness bookkeeping."""

    fun: object
    name: str = "a"

    def __call__(self, q, p):
        return self.fun(q, p)

    def f2_estimate(self, grid: Grid1D, eps: float, tail_threshold: float = 0.02) -> F2Report:
        """Integrability check of the p-direction Fourier transform.

        The symbol is sampled on the grid's momentum window and tapered at
        the window edge (the window cutoff is an artifact of the lattice,
        not a property of the symbol).  A non-decaying |xi| |a-hat| tail
        signals a symbol too rough in p for the O(eps) reduction estimates;
        such symbols are rejected by the residual functionals.
        """
        n = grid.n_points
        p = np.sort(eps * grid.k)
        taper = interval_indicator(p, [(p[0], p[-1] + p[1] - p[0])], margin=0.15 * (p[-1] - p[0]))
        vals = np.asarray(self.fun(grid.x[:, None], p[None, :]), dtype=complex)
        vals = vals * taper[None, :]
        ahat = np.fft.fft(vals, axis=1)
        dp = p[1] - p[0]
        xi = 2 * np.pi * np.fft.fftfreq(n, d=dp)
        profile = np.abs(xi) * np.abs(ahat).max(axis=0) * dp
        dxi = abs(xi[1] - xi[0])
        total = float(profile.sum() * dxi)
        hi = np.abs(xi) >= 0.75 * np.abs(xi).max()
        tail = float(profile[hi].sum() * dxi / total) if total > 0 else 0.0
        return F2Report(value=total, tail_fraction=tail, ok=tail <= tail_threshold)


def weyl_quantize(symbol, grid: Grid1D, eps: float) -> np.ndarray:
    """Dense midpoint quantization of a(q, p) with eps-scaled momentum.

    Linear in the symbol; real symbols give Hermitian matrices; the
    operator norm is bounded by sup|a| up to O(eps) corrections.
    """
    fun = symbol.fun if isinstance(symbol, Symbol) else symbol
    n = grid.n_points
    x = grid.x
    # midpoints (X_i + X_l)/2 take only 2n-1 distinct values, and the phase
    # exp(i (X_i - X_l) k_j) is the DFT kernel at lattice shift (i - l)
    # (exact including wrapped modes, since X_i - X_l is a lattice multiple
    # of dx and n*dk*dx = 2*pi): tabulate the symbol once and FFT over k.
    mids = x[0] + 0.5 * grid.dx * np.arange(2 * n - 1)
    table = np.asarray(fun(mids[:, None], eps * grid.k[None, :]), dtype=complex)
    G = np.fft.ifft(table, axis=1) * n
    I, L = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    A = G[I + L, (I - L) % n]
    return A * (grid.dx * grid.dk / (2 * np.pi))


def phase_space_projection(
    band: BandData,
    region: PhaseSpaceRegion,
    alpha: float,
    eps: float,
    delta: float = 0.5,
) -> ProjectionOperator:
    """Approximate projection onto phase-space support in the region.

    U* 1_{window, delta} (smoothed region indicator)^Weyl U P_band, acting
    on molecular vectors.  Hermitian and idempotent up to O(eps); its range
    is bounded in the scaled second Sobolev norm uniformly in eps.

    U and P_band are fiber-block-diagonal, so the product is the outer
    product chi[j, c] lambda_j W[j, i] r[i, b] with r_i = chi_i^dag P_i
    (zero outside the band window): O(N^2), no dense matrix product.
    """
    if band.window is not None:
        a, b = band.window
        q1, q2 = region.q_bounds
        if q1 <= a + delta or q2 >= b - delta:
            raise ValueError(
                f"region q-extent ({q1}, {q2}) not inside the shrunk window "
                f"({a + delta}, {b - delta})"
            )
        lam_ind = interval_indicator(band.grid.x, [(a, b)], margin=delta)
    else:
        lam_ind = np.ones(band.grid.n_points)
    ind = smooth_indicator(region, alpha)
    W = weyl_quantize(lambda q, p: ind(q, p), band.grid, eps)
    chi = band.chi_clamped(delta / 2)
    r = np.einsum("ia,iab->ib", chi.conj(), band.proj) * band.mask[:, None]
    M = chi[:, :, None, None] * (lam_ind[:, None, None, None] * (W[:, None, :, None] * r[None, None]))
    n, m = chi.shape
    return ProjectionOperator(M.reshape(n * m, n * m), tag="P_Gamma")


# ---------------------------------------------------------------------------
# classical flow


def band_energy_interpolant(band: BandData, delta: float = 0.5):
    """Periodic cubic-spline interpolant of the clamped band energy.

    Returns (E, dE) callables; the force used by the flow is -dE.
    """
    if band.band_energy is None:
        raise ValueError("band energy interpolant requires a tracked single band")
    grid = band.grid
    vals = clamp_field(band.band_energy, grid, band.window, delta / 5)
    xs = np.concatenate([grid.x, [grid.x_min + grid.length]])
    ys = np.concatenate([vals, [vals[0]]])
    spline = CubicSpline(xs, ys, bc_type="periodic")
    L = grid.length
    x0 = grid.x_min

    def E(q):
        return spline(x0 + np.mod(np.asarray(q) - x0, L))

    def dE(q):
        return spline(x0 + np.mod(np.asarray(q) - x0, L), 1)

    return E, dE


def classical_flow(energy_grad, z0, t: float, dt: float = 1e-3, q_bounds=None):
    """Flow (q, p) -> (q(t), p(t)) with qdot = p, pdot = -dE(q), Verlet steps.

    z0 may be a single (q, p) pair or an (N, 2) cloud; dt is the maximal
    step (the final partial step is shortened to land exactly on t).
    Energy drift is O(dt^2) per unit time; the map is time-reversible.
    """
    z = np.atleast_2d(np.asarray(z0, dtype=float)).copy()
    q, p = z[:, 0], z[:, 1]
    remaining = float(t)
    sgn = 1.0 if remaining >= 0 else -1.0
    while abs(remaining) > 1e-15:
        h = sgn * min(dt, abs(remaining))
        p -= 0.5 * h * np.asarray(energy_grad(q), dtype=float)
        q += h * p
        p -= 0.5 * h * np.asarray(energy_grad(q), dtype=float)
        remaining -= h
        if q_bounds is not None and (np.any(q <= q_bounds[0]) or np.any(q >= q_bounds[1])):
            raise RuntimeError(f"trajectory left the window {q_bounds} at t={t - remaining:.4f}")
    out = np.column_stack([q, p])
    return out[0] if np.ndim(z0) == 1 else out


def _first_exit(energy_grad, q0, p0, lo, hi, dt, horizon) -> float:
    """Earliest forward exit time out of (lo, hi) over a cloud, capped at horizon.

    A point that leaves during step k exits in ((k-1) dt, k dt], before any
    exit found in a later step, so the flow stops at the first step in
    which any point leaves; the exit is refined inside that step by
    bisection to dt/64.  A cloud that stays inside (or leaves only in the
    step that overshoots the horizon) gives exactly the horizon.
    """
    q = np.atleast_1d(np.asarray(q0, dtype=float)).copy()
    p = np.atleast_1d(np.asarray(p0, dtype=float)).copy()
    t = 0.0
    while t < horizon:
        q_prev, p_prev = q.copy(), p.copy()
        p -= 0.5 * dt * np.asarray(energy_grad(q), dtype=float)
        q += dt * p
        p -= 0.5 * dt * np.asarray(energy_grad(q), dtype=float)
        t += dt
        out = ~((q > lo) & (q < hi))
        if out.any():
            # bisection refinement inside the last step, to dt/64
            frac_lo = np.zeros(out.sum())
            frac_hi = np.ones(out.sum())
            qp, pp = q_prev[out], p_prev[out]
            for _ in range(6):
                mid = (frac_lo + frac_hi) / 2
                h = dt * mid
                pm = pp - 0.5 * h * np.asarray(energy_grad(qp), dtype=float)
                qm = qp + h * pm
                inside = (qm > lo) & (qm < hi)
                frac_lo = np.where(inside, mid, frac_lo)
                frac_hi = np.where(inside, frac_hi, mid)
            return min(float((t - dt + dt * frac_hi).min()), float(horizon))
    return float(horizon)


def hitting_times(
    region: PhaseSpaceRegion,
    window: tuple,
    delta: float,
    energy_grad,
    alpha: float = 0.2,
    dt: float = 1e-3,
    resolution: float | None = None,
    horizon: float = 50.0,
):
    """First times at which the flowed region's position support leaves the
    shrunk window, forward (T+) and backward (T-).

    The region is sampled on an inclusive uniform lattice (spacing
    resolution, default alpha/4); the reported T+ is the earliest exit over
    the cloud, a conservative under-approximation, capped at the horizon.
    Each direction's flow stops at the first Verlet step in which any
    point leaves, so the cost scales with T+ and |T-|, not the horizon.
    Enlarging the region can only decrease T+.
    """
    a, b = window
    lo, hi = a + delta, b - delta
    cloud = region.sample_cloud(resolution if resolution is not None else alpha / 4)
    if cloud.size == 0:
        raise ValueError("empty sampling cloud")
    q1, q2 = region.q_bounds
    if q1 <= lo or q2 >= hi:
        raise ValueError(f"region q-extent ({q1}, {q2}) not inside ({lo}, {hi})")
    t_plus = _first_exit(energy_grad, cloud[:, 0], cloud[:, 1], lo, hi, dt, horizon)
    # backward flow = forward flow with reflected momentum
    t_minus = _first_exit(energy_grad, cloud[:, 0], -cloud[:, 1], lo, hi, dt, horizon)
    return -t_minus, t_plus


# ---------------------------------------------------------------------------
# classical densities


@dataclass(frozen=True)
class ClassicalDensity:
    """Weighted phase-space point cloud representing a probability measure."""

    points: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if pts.shape[0] != w.shape[0]:
            raise ValueError("points and weights length mismatch")
        if np.any(w < 0):
            raise ValueError("negative weights")
        total = w.sum()
        if not np.isclose(total, 1.0, atol=1e-8):
            w = w / total
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    def expectation(self, symbol) -> float:
        fun = symbol.fun if isinstance(symbol, Symbol) else symbol
        return float(np.sum(self.weights * fun(self.points[:, 0], self.points[:, 1])))

    def flowed(self, energy_grad, t: float, dt: float = 1e-3) -> "ClassicalDensity":
        pts = classical_flow(energy_grad, self.points, t, dt)
        return ClassicalDensity(points=pts, weights=self.weights)


# ---------------------------------------------------------------------------
# Wigner transform


@dataclass(frozen=True)
class WignerData:
    """Phase-space quasi-density on the (grid x, half-spacing momentum) lattice."""

    values: np.ndarray = field(repr=False)
    q: np.ndarray = field(repr=False)
    p: np.ndarray = field(repr=False)
    eps: float

    @property
    def dq(self) -> float:
        return self.q[1] - self.q[0]

    @property
    def dp(self) -> float:
        return self.p[1] - self.p[0]

    def mass(self) -> float:
        return float(self.values.sum() * self.dq * self.dp)

    def q_marginal(self) -> np.ndarray:
        return self.values.sum(axis=1) * self.dp

    def mass_in_ball(self, q0: float, p0: float, radius: float) -> float:
        Q, P = np.meshgrid(self.q, self.p, indexing="ij")
        ball = (Q - q0) ** 2 + (P - p0) ** 2 <= radius**2
        return float(self.values[ball].sum() * self.dq * self.dp)


def wigner_marginal(wave: NuclearWave | MolecularWave) -> WignerData:
    """Marginal Wigner transform of the nuclei (fiber components traced out).

    W(q, p) = (2 pi)^-1 int dX e^{i X p} <psi*(q + eps X/2), psi(q - eps X/2)>
    evaluated with periodic wrap on offsets of m*dx and the half-spacing
    momentum lattice.  Output is real up to the single unpaired offset mode;
    total mass equals ||psi||^2 and the q-marginal the position density.
    """
    vals = wave.values if wave.values.ndim == 2 else wave.values[:, None]
    grid, eps = wave.grid, wave.eps
    n = grid.n_points
    idx = np.arange(n)
    offsets = np.arange(n) - n // 2
    C = np.zeros((n, n), dtype=complex)
    for jm, mm in enumerate(offsets):
        ip = (idx + mm) % n
        im = (idx - mm) % n
        C[:, jm] = np.sum(vals[ip].conj() * vals[im], axis=1)
    j = np.arange(n) - n // 2
    phase = np.exp(2j * np.pi * np.outer(offsets, j) / n)
    W = (C @ phase) * (2 * grid.dx / eps) / (2 * np.pi)
    p = j * eps * grid.dk / 2
    return WignerData(values=W.real, q=grid.x.copy(), p=p, eps=eps)


def write_wigner_csv(wd: WignerData, path, grid_label: str = "", t: float | None = None):
    """Write a Wigner array as CSV with a commented header naming grid, eps, t."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# wigner snapshot; grid={grid_label or f'{len(wd.q)} points'}; eps={wd.eps!r}")
        fh.write(f"; t={t!r}\n" if t is not None else "; t=none\n")
        fh.write("# rows: q; columns: p; first row/column are coordinates\n")
        writer = csv.writer(fh)
        writer.writerow(["q\\p"] + [repr(float(v)) for v in wd.p])
        for i, qv in enumerate(wd.q):
            writer.writerow([repr(float(qv))] + [repr(float(v)) for v in wd.values[i]])


# ---------------------------------------------------------------------------
# residual functionals


def egorov_residual(
    prop_bo: SpectralPropagator,
    symbol,
    phi0: NuclearWave,
    rho: ClassicalDensity,
    t: float,
    energy_grad,
    dt: float = 1e-3,
) -> float:
    """|<phi_t, a^W phi_t> - int (a o flow_t) d rho|.

    phi0 must realize rho in the semiclassical-distribution sense (the
    state constructors return matched pairs).
    """
    A = weyl_quantize(symbol, phi0.grid, phi0.eps)
    v = prop_bo.apply(phi0.values, t)
    qm = float(np.real(np.vdot(v, A @ v)) * phi0.grid.dx)
    cl = rho.flowed(energy_grad, t, dt).expectation(symbol)
    return abs(qm - cl)


def boundary_leakage(
    prop_bo: SpectralPropagator,
    window: tuple,
    delta: float,
    region: PhaseSpaceRegion,
    alpha: float,
    phi0: NuclearWave,
    t: float,
) -> float:
    """Mass outside the shrunk window after evolving the region-cut state.

    ||(1 - 1_{window - delta}) e^{-iH_bo t/eps} (region indicator)^W phi0||.
    """
    grid = phi0.grid
    ind = smooth_indicator(region, alpha)
    W = weyl_quantize(lambda q, p: ind(q, p), grid, phi0.eps)
    v = prop_bo.apply(W @ phi0.values, t)
    a, b = window
    outside = (grid.x <= a + delta) | (grid.x >= b - delta)
    return float(np.sqrt(np.sum(np.abs(v[outside]) ** 2) * grid.dx))


def reduced_observable_residual(
    symbol,
    band: BandData,
    delta: float,
    eps: float,
    states: list,
    P_star: ProjectionOperator | None = None,
    check_f2: bool = True,
) -> float:
    """Worst-case defect of moving an observable through the band identification.

    max over states of ||(a^W x 1 - U* a^W U) 1_{window-delta} P psi|| / ||psi||.
    Symbols failing the p-smoothness estimate are rejected.
    """
    grid = band.grid
    if check_f2:
        sym = symbol if isinstance(symbol, Symbol) else Symbol(symbol)
        rep = sym.f2_estimate(grid, eps)
        if not rep.ok:
            raise ValueError(
                f"symbol {sym.name!r} fails the p-integrability estimate "
                f"(tail fraction {rep.tail_fraction:.2f})"
            )
    A = weyl_quantize(symbol, grid, eps)
    U = u_matrix(band, delta)
    P = P_star if P_star is not None else full_projection(band)
    if band.window is not None:
        a, b = band.window
        sharp = ((grid.x > a + delta) & (grid.x < b - delta)).astype(float)
    else:
        sharp = np.ones(grid.n_points)
    worst = 0.0
    for psi in states:
        y = (P.matrix @ psi.flat()).reshape(grid.n_points, band.fiber_dim)
        y = sharp[:, None] * y
        direct = A @ y
        through = U.conj().T @ (A @ (U @ y.reshape(-1)))
        d = direct.reshape(-1) - through
        nrm = float(np.sqrt(np.sum(np.abs(psi.values) ** 2) * grid.dx))
        worst = max(worst, float(np.sqrt(np.sum(np.abs(d) ** 2) * grid.dx) / nrm))
    return worst
