import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiband.electronic import band_decompose
from adiband.grids import l2_norm, make_grid, norm
from adiband.hamiltonians import full_projection, u_map
from adiband.models import get_model
from adiband.semiclassics import Symbol, weyl_quantize
from adiband.states import (
    coherent_state,
    lift_to_band,
    sharp_momentum_state,
    wkb_state,
)
from oracles import coherent_wave


def position_moments(wave):
    """(mean, variance) of the position density."""
    dens = np.abs(wave.values) ** 2
    if dens.ndim == 2:
        dens = dens.sum(axis=1)
    dens = dens * wave.grid.dx
    dens = dens / dens.sum()
    mean = float(np.sum(wave.grid.x * dens))
    var = float(np.sum((wave.grid.x - mean) ** 2 * dens))
    return mean, var


def momentum_moments(wave):
    """(mean, variance) of the eps-scaled momentum density."""
    vals = wave.values if wave.values.ndim == 2 else wave.values[:, None]
    ft = np.fft.fft(vals, axis=0)
    dens = (np.abs(ft) ** 2).sum(axis=1)
    dens = dens / dens.sum()
    p = wave.eps * wave.grid.k
    mean = float(np.sum(p * dens))
    var = float(np.sum((p - mean) ** 2 * dens))
    return mean, var


@pytest.fixture(scope="module")
def grid():
    return make_grid(-8, 8, 256)


def test_coherent_norm_and_means(grid):
    for eps in (0.2, 0.05):
        w, rho = coherent_state(grid, eps, 0.5, 0.7)
        assert abs(norm(w) - 1) <= 1e-10
        qm, qv = position_moments(w)
        pm, _ = momentum_moments(w)
        assert abs(qm - 0.5) <= 1e-8   # symmetric envelope: exact center
        assert abs(pm - 0.7) <= 1e-8
        assert qv == pytest.approx(eps / 2, rel=1e-4)  # Gaussian variance eps/2


def test_coherent_skewed_mean_offset(grid):
    eps = 0.1
    w, _ = coherent_state(grid, eps, 0.0, 0.3, profile="gaussian_skew")
    qm, _ = position_moments(w)
    # first moment of (1+u/2)^2 exp(-u^2): sqrt(eps) * 4/9
    assert qm == pytest.approx(np.sqrt(eps) * 4 / 9, abs=1e-6)


def test_coherent_clearance_errors(grid):
    with pytest.raises(ValueError):
        coherent_state(grid, 0.2, 7.9, 0.0)
    with pytest.raises(ValueError):
        coherent_state(grid, 0.2, 0.0, 50.0)


@settings(max_examples=150, deadline=None)
@given(eps=st.floats(0.01, 0.5), q0=st.floats(-9, 9), p0=st.floats(-20, 20),
       profile=st.sampled_from(["gaussian", "gaussian_skew"]))
def test_coherent_state_is_its_formula(eps, q0, p0, profile):
    # the values of coherent_state are the oracle's one-state formula bit for bit, and a center
    # the oracle refuses is refused with the same message
    grid = make_grid(-8, 8, 128)
    try:
        want = coherent_wave(grid, eps, q0, p0, profile)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            coherent_state(grid, eps, q0, p0, profile)
        assert str(got.value) == str(exc)
        return
    assert coherent_state(grid, eps, q0, p0, profile)[0].values.tobytes() == want.tobytes()


def test_coherent_density_is_point_mass(grid):
    _, rho = coherent_state(grid, 0.1, -0.4, 0.2)
    assert rho.points.shape == (1, 2)
    assert rho.expectation(Symbol(lambda q, p: p, "p")) == pytest.approx(0.2)


def test_sharp_momentum_modulus_eps_independent(grid):
    w1, _ = sharp_momentum_state(grid, 0.2, 0.5)
    w2, _ = sharp_momentum_state(grid, 0.025, 0.5)
    assert np.abs(np.abs(w1.values) - np.abs(w2.values)).max() <= 1e-12


def test_sharp_momentum_spread_order_eps(grid):
    spreads = []
    for eps in (0.2, 0.1, 0.05):
        w, _ = sharp_momentum_state(grid, eps, 0.5)
        _, pv = momentum_moments(w)
        spreads.append(np.sqrt(pv))
    ratios = [spreads[i] / spreads[i + 1] for i in range(2)]
    assert all(1.8 <= r <= 2.2 for r in ratios)  # spread ~ eps


def test_sharp_momentum_density_projects_exactly(grid):
    _, rho = sharp_momentum_state(grid, 0.1, 0.5)
    assert rho.expectation(Symbol(lambda q, p: p, "p")) == pytest.approx(0.5, abs=1e-14)


def test_wkb_zero_phase_real_state(grid):
    zero = lambda X: 0.0 * np.asarray(X)  # noqa: E731
    w, rho = wkb_state(grid, 0.1, lambda X: np.exp(-(X**2) / 2), zero, dS=zero)
    assert np.abs(w.values.imag).max() == 0.0
    assert np.abs(rho.points[:, 1]).max() <= 1e-12  # supported on p = 0


def test_wkb_linear_phase_matches_sharp_momentum(grid):
    eps = 0.1
    k13 = 13 * 2 * np.pi / grid.length
    p0 = eps * k13  # lattice-commensurate momentum, periodic phase
    f = lambda X: np.exp(-(X**2) / 2)  # noqa: E731
    w, _ = wkb_state(grid, eps, f, lambda X: p0 * np.asarray(X), dS=lambda X: p0 + 0 * np.asarray(X))
    ws, _ = sharp_momentum_state(grid, eps, p0)  # the envelope f: center 0, width 1
    phase = w.values[128] / ws.values[128]
    assert np.abs(w.values - phase * ws.values).max() <= 1e-10


def test_wkb_nonperiodic_phase_rejected(grid):
    with pytest.raises(ValueError):
        wkb_state(grid, 0.1, lambda X: np.exp(-(X**2)), lambda X: 0.123 * np.asarray(X),
                  dS=lambda X: 0.123 + 0 * np.asarray(X))


def test_wkb_quadrature_oracle(grid):
    # f Gaussian, S = sin(pi X/8)-type periodic phase: int p d rho equals the
    # 1-D quadrature of f^2(q) S'(q)
    eps = 0.1
    f = lambda X: np.exp(-((X - 0.2) ** 2) / 2)  # noqa: E731
    S = lambda X: 0.4 * np.sin(np.pi * np.asarray(X) / 8)  # noqa: E731
    dS = lambda X: 0.4 * (np.pi / 8) * np.cos(np.pi * np.asarray(X) / 8)  # noqa: E731
    w, rho = wkb_state(grid, eps, f, S, dS=dS)
    lhs = rho.expectation(Symbol(lambda q, p: p, "p"))
    dens = f(grid.x) ** 2
    rhs = float(np.sum(dens * dS(grid.x)) / np.sum(dens))
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_lift_isometry_and_inverse(grid):
    band = band_decompose(get_model("two_band_complex"), grid, 0)
    phi, _ = coherent_state(grid, 0.1, 0.3, 0.4)
    psi = lift_to_band(phi, band)
    assert abs(norm(psi) - norm(phi)) <= 1e-12
    P = full_projection(band)
    assert np.abs(P @ psi.flat() - psi.flat()).max() <= 1e-12
    back = u_map(psi, band)
    assert np.abs(back.values - phi.values).max() <= 1e-12


@pytest.mark.parametrize(
    "family,expected_rate",
    [("coherent_skew", 0.5), ("sharp_momentum", 1.0)],
)
def test_static_observable_rates(grid, family, expected_rate):
    # |<phi, a^W phi> - int a d rho| over a in {1, q, p, q^2, p^2} decays at
    # the family's advertised rate already at t = 0
    ladder = (0.2, 0.1, 0.05, 0.025)
    errs = []
    for eps in ladder:
        if family == "coherent_skew":
            w, rho = coherent_state(grid, eps, 0.4, 0.3, profile="gaussian_skew")
        else:
            w, rho = sharp_momentum_state(grid, eps, 0.5, center=0.4, boost=1.0)
        worst = 0.0
        for sym in (
            Symbol(lambda q, p: np.ones_like(q + p), "1"),
            Symbol(lambda q, p: q + 0 * p, "q"),
            Symbol(lambda q, p: p + 0 * q, "p"),
            Symbol(lambda q, p: q**2 + 0 * p, "q2"),
            Symbol(lambda q, p: p**2 + 0 * q, "p2"),
        ):
            A = weyl_quantize(sym, grid, eps)
            qm = float(np.real(np.vdot(w.values, A @ w.values)) * grid.dx)
            worst = max(worst, abs(qm - rho.expectation(sym)))
        errs.append(worst)
    slope = np.polyfit(np.log(ladder), np.log(errs), 1)[0]
    assert abs(slope - expected_rate) <= 0.25


def test_sharp_momentum_boosted_rate(grid):
    # complex envelope with nonzero frame momentum: visible eps-order term
    ladder = (0.2, 0.1, 0.05)
    errs = []
    for eps in ladder:
        w, rho = sharp_momentum_state(grid, eps, 0.5, boost=1.0)
        pm, _ = momentum_moments(w)
        errs.append(abs(pm - 0.5))
    slope = np.polyfit(np.log(ladder), np.log(errs), 1)[0]
    assert abs(slope - 1.0) <= 0.1


def test_sharp_momentum_boost_is_the_boosted_gaussian_profile(grid):
    # the state is e^{i p0 X/eps} e^{i boost X} exp(-(X - center)^2 / (2 width^2)), normalized, bit
    # for bit, and its density is |phi|^2 dX on the line p = p0
    eps, p0, center, width = 0.1, 0.45, 0.2, 0.8
    w, rho = sharp_momentum_state(grid, eps, p0, center=center, width=width, boost=1.0)
    x = grid.x
    vals = np.exp(1j * p0 * x / eps) * (np.exp(1j * x) * np.exp(-((x - center) ** 2) / (2 * width**2)))
    assert np.array_equal(w.values, vals / l2_norm(vals, grid.dx))
    assert np.array_equal(rho.points, np.column_stack([x, np.full(grid.n_points, p0)]))
    assert np.array_equal(rho.weights, np.abs(w.values) ** 2 * grid.dx)
