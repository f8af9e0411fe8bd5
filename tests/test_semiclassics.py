import numpy as np
import pytest

from adiband.electronic import band_decompose
from adiband.grids import NuclearWave, make_grid, norm, spectral_derivative_matrix
from adiband.hamiltonians import assemble_bo
from adiband.indicators import PhaseSpaceRegion, smooth_indicator, smooth_step
from adiband.models import get_model
from adiband.propagation import diagonalize
from adiband.semiclassics import (
    ClassicalDensity,
    _first_exit,
    Symbol,
    band_energy_interpolant,
    boundary_leakage,
    classical_flow,
    hitting_times,
    phase_space_projection,
    weyl_quantize,
    wigner_marginal,
    write_wigner_csv,
)


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


def test_flow_window_guard():
    with pytest.raises(RuntimeError):
        classical_flow(lambda q: 0.0 * np.asarray(q), (0.0, 1.0), t=10.0, q_bounds=(-2, 2))


def test_band_energy_interpolant_matches_band():
    grid = make_grid(-6.4, 6.4, 256)
    band = band_decompose(get_model("rotated_pair"), grid, 0, window=(-2, 2))
    E, dE = band_energy_interpolant(band, delta=0.4)
    qs = np.linspace(-1.5, 1.5, 40)
    assert np.abs(E(qs) - (qs**2 - 4)).max() <= 1e-6
    assert np.abs(dE(qs) - 2 * qs).max() <= 1e-4


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


def test_hitting_time_stationary_point_capped():
    # cloud at the bottom of a well with p = 0 never exits
    region = PhaseSpaceRegion([(-0.05, 0.05, -0.01, 0.01)])
    t_minus, t_plus = hitting_times(
        region, window=(-2, 2), delta=0.4, energy_grad=lambda q: 2 * np.asarray(q),
        alpha=0.04, horizon=12.0,
    )
    assert t_plus == 12.0 and t_minus == -12.0


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
        assert np.abs(wd.q_marginal() - dens).max() <= 1e-8


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
    band = band_decompose(get_model("rotated_pair"), grid, 0, window=(-2, 2))
    region = PhaseSpaceRegion([(-0.8, 0.8, -0.8, 0.8)])
    PG = phase_space_projection(band, region, alpha=0.3, eps=0.1, delta=0.4)
    from adiband.hamiltonians import full_projection

    P = full_projection(band)
    rng = np.random.default_rng(0)
    psi = rng.standard_normal(P.dim) + 1j * rng.standard_normal(P.dim)
    perp = psi - P.matrix @ psi
    assert np.abs(PG.matrix @ perp).max() <= 1e-12


@pytest.mark.parametrize("tag, window", [("rotated_pair", (-2, 2)), ("two_band_complex", (-5, 5))])
def test_phase_space_projection_equals_dense_formula(tag, window):
    from adiband.hamiltonians import full_projection, u_matrix
    from adiband.indicators import interval_indicator

    grid = make_grid(-6.4, 6.4, 128)
    band = band_decompose(get_model(tag), grid, 0, window=window)
    region = PhaseSpaceRegion([(-0.8, 0.8, -0.8, 0.8)])
    delta, eps = 0.4, 0.1
    PG = phase_space_projection(band, region, alpha=0.3, eps=eps, delta=delta)
    lam = interval_indicator(grid.x, [window], margin=delta)
    W = weyl_quantize(smooth_indicator(region, 0.3), grid, eps)
    U = u_matrix(band, delta)
    dense = U.conj().T @ (lam[:, None] * (W @ (U @ full_projection(band).matrix)))
    assert np.abs(PG.matrix - dense).max() <= 1e-14


def test_phase_space_projection_region_must_fit():
    grid = make_grid(-6.4, 6.4, 128)
    band = band_decompose(get_model("rotated_pair"), grid, 0, window=(-2, 2))
    region = PhaseSpaceRegion([(-1.9, 1.9, -0.5, 0.5)])
    with pytest.raises(ValueError):
        phase_space_projection(band, region, alpha=0.3, eps=0.1, delta=0.4)


def test_boundary_leakage_small_when_far_from_edge():
    grid = make_grid(-6.4, 6.4, 256)
    band = band_decompose(get_model("free"), grid, 0, window=(-4, 4))
    eps = 0.1
    H = assemble_bo(band, eps, delta=0.4)
    prop = diagonalize(H)
    region = PhaseSpaceRegion([(-0.8, 0.8, -0.4, 0.4)])
    phi = coherent(grid, eps, 0.0, 0.1)
    leak = boundary_leakage(prop, (-4, 4), 0.4, region, alpha=0.25, phi0=phi, t=0.2)
    assert leak <= 1e-8
