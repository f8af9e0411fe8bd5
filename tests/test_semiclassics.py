import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiband import semiclassics
from adiband.electronic import band_decompose
from adiband.grids import MolecularWave, NuclearWave, make_grid, norm, spectral_derivative_matrix
from adiband.hamiltonians import assemble_bo, assemble_full, bo_operator, clamp_field
from adiband.indicators import PhaseSpaceRegion, smooth_indicator, smooth_step
from adiband.models import get_model
from adiband.propagation import diagonalize
from adiband.semiclassics import (
    ClassicalDensity,
    _first_exit,
    _weyl_matvec,
    _weyl_table,
    Symbol,
    apply_phase_space_projection,
    band_energy_interpolant,
    boundary_leakage,
    classical_flow,
    egorov_residual,
    hitting_times,
    phase_space_projection,
    reduced_observable_residual,
    weyl_quantize,
    wigner_marginal,
    write_wigner_csv,
)
from adiband.states import coherent_state, lift_to_band
from oracles import periodic_spline, unitary, weyl_gather, weyl_table_full_box, wigner_values


def coherent(grid, eps, q0, p0):
    u = (grid.x - q0) / np.sqrt(eps)
    v = eps**-0.25 * np.pi**-0.25 * np.exp(1j * p0 * (grid.x - q0) / eps) * np.exp(-(u**2) / 2)
    v = v / (np.linalg.norm(v) * np.sqrt(grid.dx))
    return NuclearWave(grid, v, eps=eps)


# ---------------------------------------------------------------- indicators


def test_smooth_step_endpoints_and_midpoint():
    assert smooth_step(-0.3) == 0.0
    assert smooth_step(0.0) == 0.0
    assert smooth_step(1.0) == 1.0
    assert smooth_step(1.7) == 1.0
    assert smooth_step(0.5) == pytest.approx(0.5, abs=1e-14)


def test_smooth_indicator_core_and_outside():
    ind = smooth_indicator([(0.0, 2.0, -1.0, 1.0)], alpha=0.25)
    assert ind(1.0, 0.0) == 1.0  # deep in the eroded core
    assert ind(0.25, -0.75) == 1.0  # core corner
    assert ind(-0.1, 0.0) == 0.0
    assert ind(1.0, 1.01) == 0.0
    v = ind(0.125, 0.0)  # midpoint of the q-ramp
    assert v == pytest.approx(0.5, abs=1e-12)
    assert np.all((ind(np.linspace(-1, 3, 101), 0.0) >= 0))


def test_smooth_indicator_union_of_rectangles():
    ind = smooth_indicator([(0, 1, 0, 1), (0.5, 2, 0, 1)], alpha=0.2)
    vals = ind(np.linspace(0.3, 1.7, 51), 0.5)
    assert vals.max() <= 1.0 and vals.min() >= 0.0
    assert ind(0.75, 0.5) == 1.0  # inside both cores


def test_smooth_indicator_empty_core_rejected():
    with pytest.raises(ValueError):
        smooth_indicator([(0.0, 0.3, 0.0, 0.3)], alpha=0.2)


# ---------------------------------------------------------------- Weyl


@pytest.fixture(scope="module")
def wgrid():
    return make_grid(-8, 8, 128)


def test_weyl_of_one_is_identity(wgrid):
    A = weyl_quantize(lambda q, p: np.ones_like(q + p), wgrid, eps=0.1)
    assert np.abs(A - np.eye(wgrid.n_points)).max() <= 1e-10


def test_weyl_of_q_is_position(wgrid):
    A = weyl_quantize(lambda q, p: q + 0 * p, wgrid, eps=0.1)
    assert np.abs(A - np.diag(wgrid.x)).max() <= 1e-10


def test_weyl_of_p_is_scaled_momentum(wgrid):
    eps = 0.1
    A = weyl_quantize(lambda q, p: p + 0 * q, wgrid, eps=eps)
    D = spectral_derivative_matrix(wgrid)
    assert np.abs(A - eps * D).max() <= 1e-10


@settings(max_examples=60, deadline=None)
@given(a=st.floats(-5, 5), b=st.floats(-5, 5), c=st.floats(-5, 5), eps=st.floats(0.01, 0.5))
def test_weyl_of_an_affine_symbol_is_exact(wgrid, a, b, c, eps):
    # a + b q + c p quantizes to a + b X + c eps (-i d/dX) exactly, up to rounding, for random coefficients
    A = weyl_quantize(lambda q, p: a + b * q + c * p, wgrid, eps=eps)
    want = a * np.eye(wgrid.n_points) + b * np.diag(wgrid.x) + c * eps * spectral_derivative_matrix(wgrid)
    assert np.abs(A - want).max() <= 1e-10 * (1 + abs(a) + abs(b) + abs(c))


def test_weyl_linear_and_hermitian_for_real_symbols(wgrid):
    eps = 0.1
    a = weyl_quantize(lambda q, p: np.cos(q) * np.exp(-(p**2)), wgrid, eps)
    b = weyl_quantize(lambda q, p: p * np.exp(-(q**2) / 4), wgrid, eps)
    ab = weyl_quantize(
        lambda q, p: np.cos(q) * np.exp(-(p**2)) + p * np.exp(-(q**2) / 4), wgrid, eps
    )
    assert np.abs(ab - a - b).max() <= 1e-10
    assert np.abs(a - a.conj().T).max() <= 1e-10
    assert np.abs(b - b.conj().T).max() <= 1e-10


def test_weyl_norm_bounded_by_sup(wgrid):
    ind = smooth_indicator([(-2, 2, -1, 1)], alpha=0.4)
    for eps in (0.2, 0.05):
        A = weyl_quantize(lambda q, p: ind(q, p), wgrid, eps)
        top = np.linalg.eigvalsh((A + A.conj().T) / 2)[-1]
        assert top <= 1.0 + 3 * eps


def _two_rectangles(q, p):
    return (((np.abs(q - 2) < 1) & (np.abs(p) < 0.5)) | ((np.abs(q + 3) < 0.5) & (np.abs(p - 0.2) < 1))) + 0.0


# each symbol with whether its table has a zero midpoint row, which the matvec skips
WEYL_SYMBOLS = {
    "whole box": (lambda q, p: np.exp(-(q**2) / 8 - p**2) + 0.1, False),
    "two rectangles": (_two_rectangles, True),
    "complex": (lambda q, p: (q + 1j * p) * np.exp(-(q**2) / 4 - p**2), False),
    "smooth indicator": (smooth_indicator([(-0.9, 1.5, -1.05, 0.45)], alpha=0.45), True),
}


# the q-extent outside which each symbol with zero midpoint rows vanishes
WEYL_EXTENTS = {
    "two rectangles": (-3.5, 3.0),
    "smooth indicator": WEYL_SYMBOLS["smooth indicator"][0].region.q_bounds,
}


@pytest.mark.parametrize("block_rows", [None, 7])
@pytest.mark.parametrize("name", sorted(WEYL_SYMBOLS))
def test_weyl_table_rows_equal_the_full_box_table_bitwise(wgrid, monkeypatch, name, block_rows):
    # blocks of the default size (one block at n = 128) and of 7 rows, the last one partial;
    # on the whole box and on the symbol's q-extent, the same rows with the same bits
    n = wgrid.n_points
    if block_rows is not None:
        monkeypatch.setattr(semiclassics, "_WEYL_BLOCK_ENTRIES", block_rows * n)
    symbol, has_zero_rows = WEYL_SYMBOLS[name]
    full = weyl_table_full_box(symbol, wgrid, 0.1)
    for q_bounds in (None, WEYL_EXTENTS.get(name)):
        blocks = list(_weyl_table(symbol, wgrid, 0.1, q_bounds))
        assert all(g.shape == (r.size, n) and r.size <= (block_rows or 2 * n) for r, g in blocks)
        rows, G = (np.concatenate(part) for part in zip(*blocks))
        assert np.array_equal(rows, np.flatnonzero(full.any(axis=1)))
        assert (rows.size < 2 * n - 1) == has_zero_rows
        assert G.tobytes() == full[rows].tobytes()


@pytest.mark.parametrize("n", [8, 9, 512])
def test_weyl_gather_equals_the_index_gather_bitwise(n):
    # A[i, l] = G[i + l, (i - l) mod n] by strided views, against the two meshgrid index arrays,
    # on a random complex table, an odd n among them; and weyl_quantize gathers its own table so
    from adiband.semiclassics import _weyl_gather

    rng = np.random.default_rng(n)
    G = rng.standard_normal((2 * n - 1, n)) + 1j * rng.standard_normal((2 * n - 1, n))
    assert np.array_equal(_weyl_gather(G), weyl_gather(G))
    if n & (n - 1) == 0:
        grid = make_grid(-8, 8, n)
        symbol = WEYL_SYMBOLS["complex"][0]
        assert np.array_equal(weyl_quantize(symbol, grid, 0.1), weyl_gather(weyl_table_full_box(symbol, grid, 0.1)))


@pytest.mark.parametrize("name", sorted(WEYL_EXTENTS))
def test_weyl_table_evaluates_no_midpoint_outside_the_q_extent(wgrid, name):
    symbol = WEYL_SYMBOLS[name][0]
    lo, hi = WEYL_EXTENTS[name]
    seen = []

    def recording(q, p):
        seen.append(np.broadcast_to(q, np.broadcast(q, p).shape)[:, 0].copy())
        return symbol(q, p)

    list(_weyl_table(recording, wgrid, 0.1, (lo, hi)))
    q = np.concatenate(seen)
    mids = wgrid.x[0] + 0.5 * wgrid.dx * np.arange(2 * wgrid.n_points - 1)
    # every midpoint of the extent once, ascending, and none outside it
    assert np.array_equal(q, mids[(mids >= lo) & (mids <= hi)])
    assert lo <= q.min() and q.max() <= hi


@pytest.mark.parametrize("name", sorted(WEYL_SYMBOLS))
def test_weyl_matvec_equals_the_dense_product(wgrid, monkeypatch, name):
    # the matvec applies the table's nonzero midpoint rows a block at a time (here 7 rows)
    # and forms no n x n matrix; a consumed block is dropped, so the table is a one-pass iterable
    monkeypatch.setattr(semiclassics, "_WEYL_BLOCK_ENTRIES", 7 * wgrid.n_points)
    symbol, _ = WEYL_SYMBOLS[name]
    eps = 0.1
    A = weyl_quantize(symbol, wgrid, eps)
    rng = np.random.default_rng(4)
    for phi in (rng.standard_normal(wgrid.n_points) + 1j * rng.standard_normal(wgrid.n_points),
                np.exp(-((wgrid.x - 1) ** 2))):
        want = A @ phi
        for q_bounds in (None, WEYL_EXTENTS.get(name)):
            got = _weyl_matvec(_weyl_table(symbol, wgrid, eps, q_bounds), phi)
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def test_f2_estimate_accepts_smooth_rejects_rough(wgrid):
    assert Symbol(lambda q, p: p + 0 * q, "p").f2_estimate(wgrid, 0.1).ok
    assert Symbol(lambda q, p: q + 0 * p, "q").f2_estimate(wgrid, 0.1).ok
    assert Symbol(lambda q, p: p**2 * np.exp(-(p**2) / 2) + 0 * q, "wp2").f2_estimate(wgrid, 0.1).ok
    rough = Symbol(lambda q, p: np.sign(p) + 0 * q, "sign")
    assert not rough.f2_estimate(wgrid, 0.1).ok


# ---------------------------------------------------------------- flow


def test_flow_free_motion():
    q, p = classical_flow(lambda q: 0.0 * np.asarray(q), (0.3, 1.1), t=2.0)
    assert q == pytest.approx(0.3 + 1.1 * 2.0, abs=1e-12)
    assert p == pytest.approx(1.1, abs=1e-14)


def test_flow_harmonic_period():
    # E = q^2/2: the orbit returns after 2*pi with O(dt^2) error
    q, p = classical_flow(lambda q: np.asarray(q), (1.0, 0.0), t=2 * np.pi, dt=1e-3)
    assert abs(q - 1.0) <= 1e-6
    assert abs(p) <= 1e-6


def test_flow_time_reversal():
    dE = lambda q: np.asarray(q) ** 3  # noqa: E731
    z1 = classical_flow(dE, (0.7, -0.2), t=1.3, dt=1e-3)
    z0 = classical_flow(dE, z1, t=-1.3, dt=1e-3)
    assert np.abs(np.asarray(z0) - [0.7, -0.2]).max() <= 1e-9


def test_flow_symplectic_area():
    # linear flow: the Verlet map is linear-symplectic, so the area of a
    # finite triangle of initial conditions is preserved exactly
    dE = lambda q: np.asarray(q)  # noqa: E731
    tri = np.array([[0.0, 0.8], [0.02, 0.8], [0.0, 0.82]])
    out = classical_flow(dE, tri, t=2.0, dt=1e-3)
    def area(z):
        return 0.5 * abs(
            (z[1, 0] - z[0, 0]) * (z[2, 1] - z[0, 1]) - (z[2, 0] - z[0, 0]) * (z[1, 1] - z[0, 1])
        )
    assert abs(area(out) - area(tri)) <= 1e-12 * area(tri) + 1e-16

    # nonlinear flow: a small triangle still keeps its area to leading order
    dE2 = lambda q: np.sin(np.asarray(q))  # noqa: E731
    out2 = classical_flow(dE2, tri, t=2.0, dt=1e-3)
    assert abs(area(out2) - area(tri)) <= 0.05 * area(tri)


def test_band_energy_interpolant_matches_band():
    grid = make_grid(-6.4, 6.4, 256)
    band = band_decompose(get_model("rotated_pair"), grid, 0, window=(-2, 2), delta=0.4)
    E, dE = band_energy_interpolant(band)
    qs = np.linspace(-1.5, 1.5, 40)
    assert np.abs(E(qs) - (qs**2 - 4)).max() <= 1e-6
    assert np.abs(dE(qs) - 2 * qs).max() <= 1e-4


@pytest.mark.parametrize("delta", [0.4, 0.5])
def test_flow_and_bo_operator_extend_the_same_energy(delta):
    # the classical flow and the effective Hamiltonian of one band use one extension of its energy
    grid = make_grid(-6.4, 6.4, 512)
    band = band_decompose(get_model("rotated_pair"), grid, 0, window=(-2, 2), delta=delta)
    E, _ = band_energy_interpolant(band)
    V = bo_operator(band).fibers[:, 0, 0]
    assert np.abs(E(grid.x) - V).max() <= 1e-13 * np.abs(V).max()


def _rotated_pair_spline_data():
    grid = make_grid(-6.4, 6.4, 512)
    band = band_decompose(get_model("rotated_pair"), grid, 0, window=(-2, 2), delta=0.4)
    return band, clamp_field(band.band_energy, grid, band.window, band.delta)


def _random_periodic_spline_data():
    # a smooth periodic sample on an off-centre box; no window, so the samples are the knot values
    grid = make_grid(-3.0, 5.0, 256)
    rng = np.random.default_rng(7)
    phase = 2 * np.pi * (grid.x - grid.x_min) / grid.length
    k = np.arange(1, 6)
    vals = 0.5 + np.cos(np.outer(phase, k)) @ rng.normal(size=5) + np.sin(np.outer(phase, k)) @ rng.normal(size=5)
    band = band_decompose(get_model("rotated_pair"), grid, 0)
    return dataclasses.replace(band, band_energy=vals), vals


@pytest.mark.parametrize("data", [_rotated_pair_spline_data, _random_periodic_spline_data],
                         ids=["rotated_pair", "random_periodic"])
def test_band_energy_interpolant_matches_scipy_periodic_spline(data):
    band, vals = data()
    grid = band.grid
    E, dE = band_energy_interpolant(band)
    E_ref, dE_ref = periodic_spline(grid, vals)
    L = grid.length
    qs = np.concatenate([np.linspace(grid.x_min - 2 * L, grid.x_min + 3 * L, 5003), grid.x])
    for f, ref in ((E, E_ref), (dE, dE_ref)):
        assert np.abs(f(qs) - ref(qs)).max() <= 1e-12 * np.abs(ref(qs)).max()


@pytest.mark.parametrize("data", [_rotated_pair_spline_data, _random_periodic_spline_data],
                         ids=["rotated_pair", "random_periodic"])
def test_band_energy_interpolant_continuous_across_seam(data):
    band, _ = data()
    grid = band.grid
    E, dE = band_energy_interpolant(band)
    end = np.nextafter(grid.x_min + grid.length, -np.inf)  # end of the last interval
    for f in (E, dE):
        scale = np.abs(f(grid.x)).max()
        assert abs(f(end) - f(grid.x_min)) <= 1e-12 * scale


def test_band_energy_interpolant_wraps_queries_into_the_box():
    band, vals = _random_periodic_spline_data()
    grid = band.grid
    x0, L = grid.x_min, grid.length
    E, dE = band_energy_interpolant(band)
    assert E(x0) == vals[0] and E(x0 + L) == E(x0) and dE(x0 + L) == dE(x0)
    q = x0 + 0.37
    far = q + L * np.array([-5.0, -3.0, 2.0, 4.0])
    for f in (E, dE):
        assert np.abs(f(far) - f(q)).max() <= 1e-12 * np.abs(f(grid.x)).max()
    # just below x0, np.mod rounds q - x0 up to L itself: the end of the last interval, not past it
    below = np.nextafter(x0, -np.inf)
    assert np.mod(below - x0, L) == L
    for f in (E, dE):
        assert abs(f(below) - f(x0)) <= 1e-12 * np.abs(f(grid.x)).max()
        assert f(np.array([below, q]))[0] == f(below)


# ---------------------------------------------------------------- hitting times


def test_hitting_time_free_motion_oracle():
    # free flow from q=0 with p in [0.9, 1.1]: fastest point exits |q|=2 at 2/1.1
    region = PhaseSpaceRegion([(0.0, 0.0, 0.9, 1.1)])
    dt = 1e-3
    t_minus, t_plus = hitting_times(
        region, window=(-2.4, 2.4), delta=0.4, energy_grad=lambda q: 0.0 * np.asarray(q),
        alpha=0.05, dt=dt,
    )
    resol = 2 * (0.05 / 4 * (2 / 1.1**2) + dt)
    assert abs(t_plus - 2 / 1.1) <= resol
    assert abs(-t_minus - 2 / 1.1) <= resol


def _first_exit_full_horizon(energy_grad, q0, p0, lo, hi, dt, horizon):
    """Per-point exit times, every point flowed until it leaves or the horizon."""
    q = np.atleast_1d(np.asarray(q0, dtype=float)).copy()
    p = np.atleast_1d(np.asarray(p0, dtype=float)).copy()
    times = np.full(q.shape, horizon)
    alive = np.ones(q.shape, dtype=bool)
    t = 0.0
    while t < horizon and alive.any():
        q_prev, p_prev = q[alive].copy(), p[alive].copy()
        p[alive] -= 0.5 * dt * np.asarray(energy_grad(q[alive]), dtype=float)
        q[alive] += dt * p[alive]
        p[alive] -= 0.5 * dt * np.asarray(energy_grad(q[alive]), dtype=float)
        t += dt
        sub = ~((q[alive] > lo) & (q[alive] < hi))
        if sub.any():
            frac_lo = np.zeros(sub.sum())
            frac_hi = np.ones(sub.sum())
            qp, pp = q_prev[sub], p_prev[sub]
            for _ in range(6):
                mid = (frac_lo + frac_hi) / 2
                h = dt * mid
                pm = pp - 0.5 * h * np.asarray(energy_grad(qp), dtype=float)
                qm = qp + h * pm
                inside = (qm > lo) & (qm < hi)
                frac_lo = np.where(inside, mid, frac_lo)
                frac_hi = np.where(inside, frac_hi, mid)
            exit_ids = np.nonzero(alive)[0][sub]
            times[exit_ids] = t - dt + dt * frac_hi
            keep = np.nonzero(alive)[0][~sub]
            alive[:] = False
            alive[keep] = True
    return times


def test_first_exit_early_stop_matches_full_horizon_bitwise():
    # harmonic well: orbits of radius sqrt(q^2 + p^2) > 1.6 leave (-1.6, 1.6)
    # at times spread over many steps; the smaller ones stay trapped
    dE = lambda q: np.asarray(q)  # noqa: E731
    cloud = PhaseSpaceRegion([(-0.5, 0.5, 0.8, 2.0)]).sample_cloud(0.05)
    q, p = cloud[:, 0], cloud[:, 1]
    lo, hi, dt, horizon = -1.6, 1.6, 1e-3, 8.0
    for sign in (1.0, -1.0):
        full = _first_exit_full_horizon(dE, q, sign * p, lo, hi, dt, horizon)
        exited = full[full < horizon]
        assert 0 < len(exited) < len(full)
        assert len(np.unique(np.ceil(exited / dt))) >= 10
        assert _first_exit(dE, q, sign * p, lo, hi, dt, horizon) == float(full.min())


def test_hitting_times_stop_at_first_exit():
    calls = []

    def dE(q):
        calls.append(1)
        return 0.0 * np.asarray(q)

    region = PhaseSpaceRegion([(0.0, 0.0, 0.9, 1.1)])
    dt = 1e-3
    hitting_times(region, window=(-2.4, 2.4), delta=0.4, energy_grad=dE, alpha=0.05, dt=dt)
    steps = int(np.ceil((2 / 1.1) / dt))
    assert len(calls) <= 2 * (2 * steps + 2 + 6)


@pytest.mark.parametrize(
    "name, window",
    [
        ("effective", (-0.11439062500000009, 1.6858437499999253)),
        ("berry", (-1.607109374999934, 0.9033437500000007)),
        ("leakage", (-0.03228125000000002, 1.3620312499999607)),
    ],
)
def test_hitting_times_evaluate_the_force_once_per_step(name, window):
    # a step's closing half kick and the next step's opening one share dE(q), and the bisection
    # reuses the force kept at its step's start: per direction, one call per step plus the first;
    # the windows are those of the flow that evaluated dE twice per step, to the bit
    import math

    from adiband.harness import _config

    cfg = _config(name)
    band = cfg.lift_band()
    _, dE = band_energy_interpolant(band)
    calls = []

    def counted(q):
        calls.append(1)
        return dE(q)

    got = hitting_times(cfg.build_region(), band.window, band.delta, counted, alpha=cfg.alpha, dt=cfg.flow_dt)
    assert got == window and cfg.hitting_window() == window
    # a direction that exits at T flows ceil(T / dt) steps (its bisection puts T at least dt/64
    # past the previous step)
    steps = [math.ceil(abs(t) / cfg.flow_dt - 1e-6) for t in window]
    assert len(calls) == sum(s + 1 for s in steps)


def test_hitting_time_stationary_point_capped():
    # cloud at the bottom of a well with p = 0 never exits: both directions stop at the horizon of 50
    region = PhaseSpaceRegion([(-0.05, 0.05, -0.01, 0.01)])
    t_minus, t_plus = hitting_times(
        region, window=(-2, 2), delta=0.4, energy_grad=lambda q: 2 * np.asarray(q),
        alpha=0.04, dt=1e-2,
    )
    assert t_plus == 50.0 and t_minus == -50.0


def test_hitting_time_momentum_reflection_swaps():
    dE = lambda q: 0.5 * np.asarray(q)  # noqa: E731
    region = PhaseSpaceRegion([(0.2, 0.5, 0.8, 1.9)])
    refl = PhaseSpaceRegion([(0.2, 0.5, -1.9, -0.8)])
    tm, tp = hitting_times(region, (-2, 2), 0.3, dE, alpha=0.1)
    tm_r, tp_r = hitting_times(refl, (-2, 2), 0.3, dE, alpha=0.1)
    assert tp_r == pytest.approx(-tm, abs=2e-3)
    assert tm_r == pytest.approx(-tp, abs=2e-3)


def test_hitting_time_monotone_in_region():
    dE = lambda q: 0.0 * np.asarray(q)  # noqa: E731
    small = PhaseSpaceRegion([(0.0, 0.1, 0.9, 1.0)])
    big = PhaseSpaceRegion([(0.0, 0.1, 0.9, 1.4)])
    _, tp_small = hitting_times(small, (-2.4, 2.4), 0.4, dE, alpha=0.05)
    _, tp_big = hitting_times(big, (-2.4, 2.4), 0.4, dE, alpha=0.05)
    assert tp_big <= tp_small + 1e-12


def test_hitting_time_region_outside_window_rejected():
    region = PhaseSpaceRegion([(1.8, 2.2, 0.0, 0.1)])
    with pytest.raises(ValueError):
        hitting_times(region, (-2, 2), 0.4, lambda q: 0.0 * np.asarray(q), alpha=0.05)


# ---------------------------------------------------------------- Wigner


def test_wigner_normalization_and_marginal():
    grid = make_grid(-8, 8, 256)
    for eps in (0.2, 0.05):
        w = coherent(grid, eps, 0.5, 0.7)
        wd = wigner_marginal(w)
        assert abs(wd.mass() - norm(w) ** 2) <= 1e-8
        dens = np.abs(w.values) ** 2
        assert np.abs(wd.values.sum(axis=1) * wd.dp - dens).max() <= 1e-8


def test_wigner_fft_matches_dense_sums():
    # a nuclear wave and molecular waves of two and three components
    for n, m in ((64, 1), (32, 2), (128, 3)):
        grid = make_grid(-4, 4, n)
        rng = np.random.default_rng(n)
        vals = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        wave = NuclearWave(grid, vals[:, 0], eps=0.1) if m == 1 else MolecularWave(grid, vals, eps=0.1)
        want = wigner_values(wave)
        assert np.abs(wigner_marginal(wave).values - want).max() <= 1e-13 * np.abs(want).max()


def test_wigner_plane_wave_concentrates_on_momentum_line():
    grid = make_grid(0, 2 * np.pi, 64)
    eps = 0.25
    k0 = 3
    w = NuclearWave(grid, np.exp(1j * k0 * grid.x) / np.sqrt(2 * np.pi), eps=eps)
    wd = wigner_marginal(w)
    jline = int(np.argmin(np.abs(wd.p - eps * k0)))
    off_line = np.delete(np.abs(wd.values).sum(axis=0), jline)
    on_line = np.abs(wd.values[:, jline]).sum()
    assert off_line.max() <= 1e-10 * on_line


def test_wigner_coherent_ball_mass():
    grid = make_grid(-8, 8, 256)
    for eps in (0.2, 0.05):
        wd = wigner_marginal(coherent(grid, eps, 0.5, 0.7))
        assert wd.mass_in_ball(0.5, 0.7, 5 * np.sqrt(eps)) >= 0.95


def test_wigner_csv_roundtrippable(tmp_path):
    grid = make_grid(-8, 8, 64)
    wd = wigner_marginal(coherent(grid, 0.2, 0.0, 0.3))
    path = tmp_path / "wigner.csv"
    write_wigner_csv(wd, path, grid_label="64pts", t=0.5)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#") and "eps=0.2" in lines[0] and "t=0.5" in lines[0]
    data = np.array([[float(v) for v in ln.split(",")[1:]] for ln in lines[3:]])
    assert np.abs(data - wd.values).max() == 0.0


# ---------------------------------------------------------------- density


def test_density_normalizes_and_transport_consistency():
    pts = np.array([[0.0, 1.0], [0.5, -0.3], [1.0, 0.2]])
    rho = ClassicalDensity(pts, np.array([2.0, 1.0, 1.0]))
    assert rho.weights.sum() == pytest.approx(1.0, abs=1e-14)
    dE = lambda q: np.asarray(q)  # noqa: E731
    a = Symbol(lambda q, p: q**2 + p, "a")
    t = 0.8
    flowed = rho.flowed(dE, t)
    lhs = flowed.expectation(a)
    comp = Symbol(lambda q, p: np.stack(classical_flow(dE, np.column_stack([np.asarray(q), np.asarray(p)]), t), axis=0), "flow")
    # pushing points forward equals composing the observable with the flow
    zt = classical_flow(dE, pts, t)
    rhs = float(np.sum(rho.weights * (zt[:, 0] ** 2 + zt[:, 1])))
    assert lhs == pytest.approx(rhs, abs=1e-14)


def test_density_rejects_negative_weights():
    with pytest.raises(ValueError):
        ClassicalDensity(np.array([[0.0, 0.0]]), np.array([-1.0]))


# ---------------------------------------------------------------- composed operators


def test_phase_space_projection_annihilates_complement():
    grid = make_grid(-6.4, 6.4, 128)
    band = band_decompose(get_model("rotated_pair"), grid, 0, window=(-2, 2), delta=0.4)
    region = PhaseSpaceRegion([(-0.8, 0.8, -0.8, 0.8)])
    PG = phase_space_projection(band, region, alpha=0.3, eps=0.1)
    from adiband.hamiltonians import full_projection

    P = full_projection(band)
    rng = np.random.default_rng(0)
    psi = rng.standard_normal(len(P)) + 1j * rng.standard_normal(len(P))
    perp = psi - P @ psi
    assert np.abs(PG @ perp).max() <= 1e-12


@pytest.mark.parametrize("tag, window", [("rotated_pair", (-2, 2)), ("two_band_complex", (-5, 5))])
def test_phase_space_projection_equals_dense_formula(tag, window):
    from adiband.hamiltonians import full_projection, u_matrix
    from adiband.indicators import interval_indicator

    grid = make_grid(-6.4, 6.4, 128)
    delta, eps = 0.4, 0.1
    band = band_decompose(get_model(tag), grid, 0, window=window, delta=delta)
    region = PhaseSpaceRegion([(-0.8, 0.8, -0.8, 0.8)])
    PG = phase_space_projection(band, region, alpha=0.3, eps=eps)
    lam = interval_indicator(grid.x, [window], margin=delta)
    W = weyl_quantize(smooth_indicator(region, 0.3), grid, eps)
    U = u_matrix(band)
    dense = U.conj().T @ (lam[:, None] * (W @ (U @ full_projection(band))))
    assert np.abs(PG - dense).max() <= 1e-14


@pytest.mark.parametrize("tag", ["rotated_pair", "two_band_complex"])
def test_apply_phase_space_projection_equals_dense(tag):
    from adiband.states import coherent_state, lift_to_band

    grid = make_grid(-6.4, 6.4, 128)
    band = band_decompose(get_model(tag), grid, 0, window=(-2, 2), delta=0.4)
    # the region reaches the shrunk window's edge, so P_Gamma has range
    # where the frame is clamped (|X| > 1.8) and lambda is still nonzero
    region = PhaseSpaceRegion([(0.3, 1.5, -0.8, 0.8)])
    eps, alpha = 0.1, 0.3
    PG = phase_space_projection(band, region, alpha=alpha, eps=eps)
    rng = np.random.default_rng(1)
    edge = lift_to_band(coherent_state(grid, eps, 1.6, 0.3)[0], band)
    noise = rng.standard_normal(edge.values.shape) + 1j * rng.standard_normal(edge.values.shape)
    for values in (edge.values, noise):
        psi = MolecularWave(grid, values, eps=eps)
        got = apply_phase_space_projection(psi, band, region, alpha, eps)
        want = PG @ psi.flat()
        assert np.linalg.norm(got.flat() - want) <= 1e-14 * np.linalg.norm(want)


@pytest.mark.parametrize("n, parent_peak_mib", [(512, 13.5), (1024, 54.0)])
def test_phase_space_projection_peak_stays_under_half_the_full_table(n, parent_peak_mib):
    # the full (2n - 1) x n table made P_Gamma's traced peak 13.5 MiB at n = 512 and 54 MiB at
    # n = 1024 (effective config); evaluated and applied a block of rows at a time it needs under half
    import tracemalloc

    from adiband.harness import _config
    from adiband.states import coherent_state, lift_to_band

    cfg = _config("effective", grid={"x_min": -6.4, "x_max": 6.4, "n_points": n})
    band, region, eps = cfg.lift_band(), cfg.build_region(), 0.025
    psi = lift_to_band(coherent_state(band.grid, eps, 0.3, -0.35)[0], band)
    tracemalloc.start()
    try:
        apply_phase_space_projection(psi, band, region, cfg.alpha, eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * parent_peak_mib * 2**20


def test_phase_space_projection_region_must_fit():
    grid = make_grid(-6.4, 6.4, 128)
    band = band_decompose(get_model("rotated_pair"), grid, 0, window=(-2, 2), delta=0.4)
    region = PhaseSpaceRegion([(-1.9, 1.9, -0.5, 0.5)])
    with pytest.raises(ValueError):
        phase_space_projection(band, region, alpha=0.3, eps=0.1)


@pytest.mark.parametrize("tag, window", [("rotated_pair", (-2, 2)), ("two_band_complex", (-5, 5))])
def test_reduced_observable_residual_equals_dense_formula(tag, window):
    from adiband.hamiltonians import full_projection, u_matrix
    from adiband.states import coherent_state, lift_to_band

    grid = make_grid(-6.4, 6.4, 128)
    delta, eps = 0.4, 0.1
    band = band_decompose(get_model(tag), grid, 0, window=window, delta=delta)
    sym = Symbol(lambda q, p: p + 0 * q, "p")
    states = [lift_to_band(coherent_state(grid, eps, q0, p0)[0], band)
              for q0, p0 in ((-0.5, 0.4), (0.6, -0.3))]
    got = reduced_observable_residual(sym, band, eps, states)
    # dense oracle: U and P as matrices
    A = weyl_quantize(sym, grid, eps)
    a, b = window
    sharp = np.repeat(((grid.x > a + delta) & (grid.x < b - delta)).astype(float), band.fiber_dim)
    U = u_matrix(band)
    want = 0.0
    for psi in states:
        y = sharp * (full_projection(band) @ psi.flat())
        d = np.kron(A, np.eye(band.fiber_dim)) @ y - U.conj().T @ (A @ (U @ y))
        want = max(want, np.linalg.norm(d) / np.linalg.norm(psi.flat()))
    assert want > 1e-4
    assert got == pytest.approx(want, rel=1e-14)


def test_boundary_leakage_small_when_far_from_edge():
    grid = make_grid(-6.4, 6.4, 256)
    band = band_decompose(get_model("free"), grid, 0, window=(-4, 4), delta=0.4)
    eps = 0.1
    H = assemble_bo(band, eps)
    prop = diagonalize(H)
    region = PhaseSpaceRegion([(-0.8, 0.8, -0.4, 0.4)])
    phi = coherent(grid, eps, 0.0, 0.1)
    leak = boundary_leakage(prop, band, region, alpha=0.25, phi0=phi, times=(0.1, 0.2))
    assert leak.shape == (2,)
    assert leak.max() <= 1e-8


def test_egorov_residual_equals_dense_oracle():
    # per time: the dense unitary, a^W on each fiber component, and rho flowed from 0
    grid = make_grid(-6.4, 6.4, 128)
    model = get_model("rotated_pair")
    band = band_decompose(model, grid, 0, window=(-2, 2), delta=0.4)
    eps, times = 0.1, (0.3, 0.6)
    _, dE = band_energy_interpolant(band)
    symbols = [Symbol(lambda q, p: q + 0 * p, "q"), Symbol(lambda q, p: np.asarray(p) ** 2 + 0 * q, "p^2")]
    phi0, rho = coherent_state(grid, eps, 0.3, 0.2)
    cases = (
        (diagonalize(assemble_bo(band, eps)), phi0),  # nuclear wave, BO propagator
        (diagonalize(assemble_full(model, grid, eps)), lift_to_band(phi0, band)),  # molecular, full
    )
    for prop, psi0 in cases:
        got = egorov_residual(prop, symbols, psi0, rho, times, dE)
        m = 1 if psi0.values.ndim == 1 else psi0.values.shape[1]
        want = np.zeros(len(times))
        for k, t in enumerate(times):
            v = unitary(prop, t) @ psi0.values.reshape(-1)
            flowed = rho.flowed(dE, t)
            for sym in symbols:
                A = np.kron(weyl_quantize(sym, grid, eps), np.eye(m))
                qm = np.real(np.vdot(v, A @ v)) * grid.dx
                want[k] = max(want[k], abs(qm - flowed.expectation(sym)))
        assert got.shape == (len(times),)
        assert np.all(want > 1e-6)
        assert np.abs(got - want).max() <= 1e-12
