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
from numpy.lib.stride_tricks import as_strided

from .electronic import BandData
from .grids import Grid1D, MolecularWave, NuclearWave, l2_norm, norm
from .hamiltonians import clamp_field, u_map, u_star_map
from .indicators import PhaseSpaceRegion, SmoothIndicator, interval_indicator, smooth_indicator
from .propagation import ChebyshevPropagator, SpectralPropagator, _time_row

__all__ = [
    "Symbol",
    "F2Report",
    "ClassicalDensity",
    "PhaseSpaceRegion",
    "SmoothIndicator",
    "smooth_indicator",
    "weyl_quantize",
    "phase_space_projection",
    "apply_phase_space_projection",
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

# largest share of |xi| |a-hat| in the top quarter of |xi| that `Symbol.f2_estimate` accepts
_F2_TAIL_THRESHOLD = 0.02
# the cap of `hitting_times`: a region that never leaves the window reports this horizon
_HORIZON = 50.0
# entries of the Weyl table that `_weyl_table` evaluates and transforms as one block of rows
_WEYL_BLOCK_ENTRIES = 2**15


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

    def f2_estimate(self, grid: Grid1D, eps: float) -> F2Report:
        """Integrability check of the p-direction Fourier transform.

        The symbol is sampled on the grid's momentum window and tapered at
        the window edge (the window cutoff is an artifact of the lattice,
        not a property of the symbol).  A non-decaying |xi| |a-hat| tail
        signals a symbol too rough in p for the O(eps) reduction estimates:
        the report is ok when the top quarter of |xi| holds at most
        `_F2_TAIL_THRESHOLD` (2 %) of it, and symbols that are not ok are
        rejected by the residual functionals.
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
        return F2Report(value=total, tail_fraction=tail, ok=tail <= _F2_TAIL_THRESHOLD)


def _weyl_table(symbol, grid: Grid1D, eps: float, q_bounds=None):
    """The table G of a(q, p)'s Weyl kernel, A[i, l] = G[i + l, (i - l) mod n], as blocks (rows, G[rows]).

    The midpoints (X_i + X_l)/2 take only 2n - 1 distinct values, and the
    phase exp(i (X_i - X_l) k_j) is the DFT kernel at lattice shift (i - l)
    (exact including wrapped modes, since X_i - X_l is a lattice multiple
    of dx and n dk dx = 2 pi): the symbol is tabulated at the midpoints
    and transformed over k, with the kernel's weight dx dk/(2 pi) in every
    entry.  Only the midpoint rows inside `q_bounds` = (q_lo, q_hi), the
    whole box when None, are evaluated, `_WEYL_BLOCK_ENTRIES` entries at a
    time; of each block, the rows where the symbol is nonzero for some k
    are transformed and yielded, ascending.  Every other row of G is zero:
    the inverse FFT of a nonzero row is nonzero, and a caller passes
    q_bounds only for a symbol that vanishes outside them, as a region
    indicator does outside its q-extent (`smooth_step` is exactly 0
    there).  At the effective config (n = 512) that is 192 rows evaluated
    and 191 yielded of 1023.  Memory O(n * block): no (2n - 1, n) array
    is formed.
    """
    n = grid.n_points
    mids = grid.x[0] + 0.5 * grid.dx * np.arange(2 * n - 1)
    span = np.arange(2 * n - 1)
    if q_bounds is not None:
        span = span[(mids >= q_bounds[0]) & (mids <= q_bounds[1])]
    p = eps * grid.k[None, :]
    step = max(1, _WEYL_BLOCK_ENTRIES // n)
    for start in range(0, span.size, step):
        block = span[start : start + step]
        values = np.asarray(symbol(mids[block, None], p))
        nonzero = values.any(axis=1)
        if nonzero.any():
            G = np.fft.ifft(values[nonzero], axis=1)
            G *= n
            G *= grid.dx * grid.dk / (2 * np.pi)
            yield block[nonzero], G


def _weyl_matvec(table, phi: np.ndarray) -> np.ndarray:
    """A phi for the Weyl kernel of the blocks (rows, G[rows]) of `_weyl_table` and a vector phi, (n,), without A.

    (A phi)_i = sum_l G[r, (i - l) mod n] phi_l over the r = i + l of the
    yielded rows: each row pairs its n or fewer (i, l), and a row not
    yielded is zero and adds nothing, so the product is exact.  Each block
    is applied as it is formed and then dropped, and each bin adds its
    terms rows ascending (`np.add.at` adds in order), the order of one
    pass over all rows.  The cost is the yielded rows' pairs, not the n^2
    entries of A, and the memory that of one block.
    """
    n = phi.shape[0]
    out = np.zeros(n, dtype=complex)
    for rows, G in table:
        # row r pairs the i of [lo, lo + count) with l = r - i; one flat run of (r, i) over the block's rows
        lo = np.maximum(rows - (n - 1), 0)
        count = np.minimum(rows, n - 1) - lo + 1
        k = np.repeat(np.arange(rows.size), count)
        r = rows[k]
        i = np.arange(r.size) + np.repeat(lo - (np.cumsum(count) - count), count)
        # the column (i - l) mod n, with i - l = 2 i - r in (-n, n)
        col = 2 * i - r
        col[col < 0] += n
        np.add.at(out, i, G.reshape(-1)[k * n + col] * phi[r - i])
    return out


def weyl_quantize(symbol, grid: Grid1D, eps: float) -> np.ndarray:
    """Dense midpoint quantization of a(q, p) with eps-scaled momentum.

    Linear in the symbol; real symbols give Hermitian matrices; the
    operator norm is bounded by sup|a| up to O(eps) corrections.  `symbol`
    is any callable a(q, p), a `Symbol` among them.  The n x n matrix is
    gathered from the whole box's `_weyl_table`, placed in one (2n - 1, n)
    array (`_weyl_gather`); a single product with it is `_weyl_matvec` on
    the table, which forms neither.
    """
    n = grid.n_points
    G = np.zeros((2 * n - 1, n), dtype=complex)
    for rows, block in _weyl_table(symbol, grid, eps):
        G[rows] = block
    return _weyl_gather(G)


def _weyl_gather(G: np.ndarray) -> np.ndarray:
    """A[i, l] = G[i + l, (i - l) mod n] of a C-contiguous (2n - 1, n) table, by two strided views of G.

    Along row i of A the flat index of G steps by n - 1: from i (n + 1)
    while l <= i, and from i (n + 1) + n past the column's wrap, l > i.
    The first view spans every (i, l) and the second the rows i < n - 1,
    and both stay inside G; the second is copied over the first above the
    diagonal.  No index array is formed, and the entries are G's, copied.
    """
    n, step = G.shape[1], G.itemsize
    strides = ((n + 1) * step, (n - 1) * step)
    A = as_strided(G, (n, n), strides).copy()
    np.copyto(A[:-1], as_strided(G[1:], (n - 1, n), strides), where=np.triu(np.ones((n - 1, n), bool), 1))
    return A


def _phase_space_factors(band: BandData, region: PhaseSpaceRegion):
    """The fiber factors of P_Gamma = U* lambda W U P_band, W the region indicator's quantization.

    Returns (chi, lam_ind, r): the clamped frame, the window indicator and
    r_i = chi_i^dag P_i (zero outside the band window).
    """
    if band.window is not None:
        region.check_inside(band.window, band.delta)
        lam_ind = interval_indicator(band.grid.x, [band.window], margin=band.delta)
    else:
        lam_ind = np.ones(band.grid.n_points)
    chi = band.chi_clamped()
    r = np.einsum("ia,iab->ib", chi.conj(), band.proj) * band.mask[:, None]
    return chi, lam_ind, r


def phase_space_projection(
    band: BandData,
    region: PhaseSpaceRegion,
    alpha: float,
    eps: float,
) -> np.ndarray:
    """Approximate projection onto phase-space support in the region, dense.

    U* 1_{window, delta} (smoothed region indicator)^Weyl U P_band, acting
    on molecular vectors.  Hermitian and idempotent up to O(eps); its range
    is bounded in the scaled second Sobolev norm uniformly in eps.

    The N x N matrix is the outer product chi[j, c] lambda_j W[j, i] r[i, b];
    it is the oracle for `apply_phase_space_projection`, which applies the
    same factors to one state without it, nor W.
    """
    chi, lam_ind, r = _phase_space_factors(band, region)
    W = weyl_quantize(smooth_indicator(region, alpha), band.grid, eps)
    M = chi[:, :, None, None] * (lam_ind[:, None, None, None] * (W[:, None, :, None] * r[None, None]))
    n, m = chi.shape
    return M.reshape(n * m, n * m)


def apply_phase_space_projection(
    psi: MolecularWave,
    band: BandData,
    region: PhaseSpaceRegion,
    alpha: float,
    eps: float,
) -> MolecularWave:
    """P_Gamma psi by fibers: r_i . psi_i, the Weyl matvec, lambda, the chi lift.

    The Weyl factor is applied by `_weyl_matvec` on the region indicator's
    table, never as its n x n matrix nor as its (2n - 1) x n table: the
    indicator is evaluated only on the midpoint rows inside the region's
    q-extent, `region.q_bounds` (192 of 1023 rows at the effective config,
    n = 512), and its nonzero rows are transformed and applied a block at
    a time.  Time O(n * rows), memory O(n * block) besides the O(n m)
    fiber factors.
    """
    chi, lam_ind, r = _phase_space_factors(band, region)
    indicator = smooth_indicator(region, alpha)
    table = _weyl_table(indicator, band.grid, eps, indicator.region.q_bounds)
    reduced = lam_ind * _weyl_matvec(table, np.einsum("ib,ib->i", r, psi.values))
    return MolecularWave(grid=psi.grid, values=chi * reduced[:, None], eps=psi.eps)


# ---------------------------------------------------------------------------
# classical flow


def band_energy_interpolant(band: BandData):
    """Periodic cubic-spline interpolant of the band energy as `clamp_field` extends it.

    The knot values are the fiber stack of `hamiltonians.bo_operator(band)`:
    both read the window and the margin delta from the band, so the
    classical flow and the BO operator extend one energy.

    The knots are the grid points, uniform with spacing h and periodic over
    the box.  The second-derivative moments M solve the circulant system
    (M[i-1] + 4 M[i] + M[i+1]) h^2/6 = y[i+1] - 2 y[i] + y[i-1], diagonalized
    by one FFT.  A query q is wrapped into the box by `np.mod`, located by
    its interval index, and evaluated in Horner form on that interval.

    Returns (E, dE) callables; the force used by the flow is -dE.
    """
    if band.band_energy is None:
        raise ValueError("band energy interpolant requires a tracked single band")
    grid = band.grid
    y = clamp_field(band.band_energy, grid, band.window, band.delta)
    n, h, x0, L = grid.n_points, grid.dx, grid.x_min, grid.length
    y_next = np.roll(y, -1)
    circulant_eigs = 4.0 + 2.0 * np.cos(2.0 * np.pi * np.arange(n // 2 + 1) / n)
    M = np.fft.irfft(np.fft.rfft(y_next - 2.0 * y + np.roll(y, 1)) / circulant_eigs, n) * (6.0 / h**2)
    M_next = np.roll(M, -1)
    # S(x_i + s) = y + s (b + s (c + s d)) on interval i, 0 <= s <= h;
    # S' = b + s (c2 + s d3) with c2 = 2c, d3 = 3d
    b = (y_next - y) / h - h * (2.0 * M + M_next) / 6.0
    c2, d3 = M, (M_next - M) / (2.0 * h)
    c, d = c2 / 2.0, d3 / 3.0

    def locate(q):
        u = np.mod(np.asarray(q, dtype=float) - x0, L)
        # u may round up to L itself for q just below x0: that is the end of the last interval
        i = np.minimum((u / h).astype(np.intp), n - 1)
        return i, u - i * h

    def E(q):
        i, s = locate(q)
        return y[i] + s * (b[i] + s * (c[i] + s * d[i]))

    def dE(q):
        i, s = locate(q)
        return b[i] + s * (c2[i] + s * d3[i])

    return E, dE


def _verlet_step(energy_grad, q, p, f, h):
    """One kick-drift-kick step of size h from (q, p) with f = dE(q); returns (q, p, f) at the new q.

    The closing half kick's force is the next step's opening one, so a
    step evaluates dE once and returns it to be carried.
    """
    p = p - 0.5 * h * f
    q = q + h * p
    f = np.asarray(energy_grad(q), dtype=float)
    return q, p - 0.5 * h * f, f


def classical_flow(energy_grad, z0, t: float, dt: float = 1e-3):
    """Flow (q, p) -> (q(t), p(t)) with qdot = p, pdot = -dE(q), Verlet steps.

    z0 may be a single (q, p) pair or an (N, 2) cloud; dt is the maximal
    step (the final partial step is shortened to land exactly on t).
    Energy drift is O(dt^2) per unit time; the map is time-reversible.
    dE is evaluated once per step, and once at the start.
    """
    z = np.atleast_2d(np.asarray(z0, dtype=float))
    q, p = z[:, 0], z[:, 1]
    f = np.asarray(energy_grad(q), dtype=float)
    remaining = float(t)
    sgn = 1.0 if remaining >= 0 else -1.0
    while abs(remaining) > 1e-15:
        h = sgn * min(dt, abs(remaining))
        q, p, f = _verlet_step(energy_grad, q, p, f, h)
        remaining -= h
    out = np.column_stack([q, p])
    return out[0] if np.ndim(z0) == 1 else out


def _first_exit(energy_grad, q0, p0, lo, hi, dt, horizon) -> float:
    """Earliest forward exit time out of (lo, hi) over a cloud, capped at horizon.

    A point that leaves during step k exits in ((k-1) dt, k dt], before any
    exit found in a later step, so the flow stops at the first step in
    which any point leaves; the exit is refined inside that step by
    bisection to dt/64.  A cloud that stays inside (or leaves only in the
    step that overshoots the horizon) gives exactly the horizon.  dE is
    evaluated once per step and once at the start: the bisection reuses
    the force kept at the step's start.
    """
    q = np.atleast_1d(np.asarray(q0, dtype=float))
    p = np.atleast_1d(np.asarray(p0, dtype=float))
    f = np.asarray(energy_grad(q), dtype=float)
    t = 0.0
    while t < horizon:
        q_prev, p_prev, f_prev = q, p, f
        q, p, f = _verlet_step(energy_grad, q, p, f, dt)
        t += dt
        out = ~((q > lo) & (q < hi))
        if out.any():
            # bisection refinement inside the last step, to dt/64 (a partial
            # step's position needs only its first kick; a constant force may be a scalar)
            frac_lo = np.zeros(out.sum())
            frac_hi = np.ones(out.sum())
            qp, pp, fp = q_prev[out], p_prev[out], np.broadcast_to(f_prev, q_prev.shape)[out]
            for _ in range(6):
                mid = (frac_lo + frac_hi) / 2
                h = dt * mid
                qm = qp + h * (pp - 0.5 * h * fp)
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
):
    """First times at which the flowed region's position support leaves the
    shrunk window, forward (T+) and backward (T-).

    The region is sampled on an inclusive uniform lattice (spacing alpha/4);
    the reported T+ is the earliest exit over the cloud, a conservative
    under-approximation, capped at the horizon `_HORIZON` = 50.
    Each direction's flow stops at the first Verlet step in which any
    point leaves, so the cost scales with T+ and |T-|, not the horizon.
    Enlarging the region can only decrease T+.
    """
    region.check_inside(window, delta)
    a, b = window
    lo, hi = a + delta, b - delta
    cloud = region.sample_cloud(alpha / 4)
    if cloud.size == 0:
        raise ValueError("empty sampling cloud")
    t_plus = _first_exit(energy_grad, cloud[:, 0], cloud[:, 1], lo, hi, dt, _HORIZON)
    # backward flow = forward flow with reflected momentum
    t_minus = _first_exit(energy_grad, cloud[:, 0], -cloud[:, 1], lo, hi, dt, _HORIZON)
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
        return float(np.sum(self.weights * symbol(self.points[:, 0], self.points[:, 1])))

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
    # C[i, r] = <psi(q_i + r), psi(q_i - r)> for every offset r mod n, in one gather
    i, r = np.arange(n)[:, None], np.arange(n)
    C = np.einsum("ira,ira->ir", vals[(i + r) % n].conj(), vals[(i - r) % n])
    # sum_r C[i, r] e^{2 pi i r j / n} for j = -n/2 .. n/2 - 1: an unscaled inverse FFT, shifted
    W = np.fft.fftshift(np.fft.ifft(C, axis=1, norm="forward"), axes=1) * (2 * grid.dx / eps) / (2 * np.pi)
    j = np.arange(n) - n // 2
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
    prop: SpectralPropagator | ChebyshevPropagator,
    symbols,
    psi0: NuclearWave | MolecularWave,
    rho: ClassicalDensity,
    times,
    energy_grad,
    dt: float = 1e-3,
) -> np.ndarray:
    """Egorov defect max_a |<psi_t, a^W psi_t> - int (a o flow_t) d rho| over the symbols a, per time.

    psi0 is a nuclear wave under a Born-Oppenheimer propagator, or a molecular
    wave under the full one (a^W acting on each fiber component); it must
    realize rho in the semiclassical-distribution sense (the state
    constructors return matched pairs).  `times` is a sequence of T times and
    the result has shape (T,).  The state is evolved to every time by one
    `apply`, and rho is flowed once from time 0 per time; each symbol is
    then quantized once and paired with every time.
    """
    times = _time_row(times)
    grid = psi0.grid
    states = prop.apply(psi0.values.reshape(-1), times).reshape(len(times), grid.n_points, -1)
    flowed = [rho.flowed(energy_grad, s, dt) for s in times]
    defects = np.zeros(len(times))
    for sym in symbols:
        A = weyl_quantize(sym, grid, psi0.eps)
        for k, (v, rho_t) in enumerate(zip(states, flowed)):
            qm = float(np.real(np.einsum("ia,ij,ja->", v.conj(), A, v)) * grid.dx)
            defects[k] = max(defects[k], abs(qm - rho_t.expectation(sym)))
    return defects


def boundary_leakage(
    prop_bo: SpectralPropagator | ChebyshevPropagator,
    band: BandData,
    region: PhaseSpaceRegion,
    alpha: float,
    phi0: NuclearWave,
    times,
) -> np.ndarray:
    """Mass outside the shrunk window after evolving the region-cut state, per time.

    ||(1 - 1_{window - delta}) e^{-iH_bo t/eps} (region indicator)^W phi0||
    at each of T `times`, shape (T,), on the band's window and margin delta.
    The cut state is formed once, by one `_weyl_matvec` on the indicator's
    Weyl table, evaluated only on the midpoint rows inside the region's
    q-extent and applied a block at a time (time O(n * rows), memory
    O(n * block); no n x n matrix), and evolved to every time by one `apply`.
    """
    times = _time_row(times)
    indicator = smooth_indicator(region, alpha)
    cut = _weyl_matvec(_weyl_table(indicator, phi0.grid, phi0.eps, indicator.region.q_bounds), phi0.values)
    outside = ~band.window_slice(band.delta)
    return l2_norm(prop_bo.apply(cut, times)[:, outside], phi0.grid.dx, axis=-1)


def reduced_observable_residual(
    symbol: Symbol,
    band: BandData,
    eps: float,
    states: list,
) -> float:
    """Worst-case defect of moving an observable through the band identification.

    max over states of ||(a^W x 1 - U* a^W U) 1_{window-delta} P psi|| / ||psi||.
    Symbols failing the p-smoothness estimate are rejected, and so is an
    empty state list, whose maximum would read as an exact 0.
    """
    if not states:
        raise ValueError("no states: the residual is a maximum over at least one state")
    grid = band.grid
    rep = symbol.f2_estimate(grid, eps)
    if not rep.ok:
        raise ValueError(
            f"symbol {symbol.name!r} fails the p-integrability estimate "
            f"(tail fraction {rep.tail_fraction:.2f})"
        )
    A = weyl_quantize(symbol, grid, eps)
    cut = (band.window_slice(band.delta) & band.mask)[:, None]
    worst = 0.0
    for psi in states:
        y = MolecularWave(grid, cut * np.einsum("iab,ib->ia", band.proj, psi.values), eps=eps)
        reduced = u_map(y, band)
        through = u_star_map(NuclearWave(grid, A @ reduced.values, eps=eps), band)
        d = A @ y.values - through.values
        worst = max(worst, l2_norm(d, grid.dx) / norm(psi))
    return worst
