import numpy as np
import pytest

from adiband.electronic import (
    ContourSpec,
    band_decompose,
    berry_connection,
    fd_derivative,
    gap_check,
    grad_projection,
    riesz_projection,
)
from adiband.grids import make_grid
from adiband.models import get_model

GAP0 = 2 * np.sqrt(0.29)  # two_band_complex minimal gap, attained at X = 0


@pytest.fixture(scope="module")
def grid256():
    return make_grid(-8, 8, 256)


@pytest.fixture(scope="module")
def band_ac(grid256):
    return band_decompose(get_model("two_band_complex"), grid256, 0)


@pytest.mark.parametrize("tag", ["two_band_complex", "crossing_trio", "rotated_pair"])
def test_band_decompose_stacked_eigh_equals_pointwise(tag):
    g = make_grid(-4, 4, 64)
    model = get_model(tag)
    band = band_decompose(model, g, 0, gauge=None)
    for i, X in enumerate(g.x):
        h = model.h(X)
        w, v = np.linalg.eigh(h if np.any(h.imag) else h.real)
        assert np.array_equal(band.evals[i], w)
        assert np.array_equal(band.evecs[i], v)
    # real fibers go to the real solver: frames with exactly zero imaginary part
    assert np.any(band.evecs.imag) == (tag == "two_band_complex")


def test_fd_derivative_polynomial_exact():
    g = make_grid(-8, 8, 256)
    f = np.sin(g.x) * np.exp(-g.x**2 / 4)
    df = np.cos(g.x) * np.exp(-g.x**2 / 4) - g.x / 2 * f
    err = np.abs(fd_derivative(f, g.dx) - df)
    assert err[8:-8].max() <= 1e-9


def test_band_decompose_lower_band_energy(band_ac, grid256):
    i0 = grid256.index_of(0.0)
    assert band_ac.band_energy[i0] == pytest.approx(-np.sqrt(0.29), abs=1e-12)


def test_band_eigen_residual(band_ac, grid256):
    model = get_model("two_band_complex")
    worst = 0.0
    for i in range(0, grid256.n_points, 7):
        H = model.h(grid256.x[i])
        r = np.linalg.norm(H @ band_ac.chi[i] - band_ac.band_energy[i] * band_ac.chi[i])
        worst = max(worst, r)
    assert worst <= 1e-11


def test_band_projection_idempotent_hermitian(band_ac):
    P = band_ac.proj
    assert np.abs(np.einsum("iab,ibc->iac", P, P) - P).max() <= 1e-12
    assert np.abs(P - P.conj().transpose(0, 2, 1)).max() <= 1e-12


def test_constant_model_chi_constant_zero_connection():
    g = make_grid(-8, 8, 64)
    band = band_decompose(get_model("constant_fiber", levels=(1.0, 2.0)), g, 0)
    assert np.abs(band.chi - band.chi[0]).max() <= 1e-13
    assert np.abs(berry_connection(band)).max() <= 1e-12


def test_transport_gauge_overlaps_real_positive(grid256):
    band = band_decompose(get_model("two_band_complex"), grid256, 0, gauge="transport")
    o = np.einsum("ia,ia->i", band.chi[:-1].conj(), band.chi[1:])
    assert np.abs(o.imag).max() <= 1e-12
    assert o.real.min() > 0


def test_gauge_smoothness_modulus(band_ac, grid256):
    # band-identity continuity: neighbor overlap modulus 1 - O(dx^2)
    o = np.einsum("ia,ia->i", band_ac.chi[:-1].conj(), band_ac.chi[1:])
    interior = slice(4, -4)
    assert (1 - np.abs(o[interior])).max() <= 20 * grid256.dx**2


def test_gap_check_two_band_complex(band_ac):
    rep = gap_check(band_ac, d_request=1.0)
    assert rep.holds_on_window
    assert rep.d == pytest.approx(GAP0, abs=1e-6)
    assert abs(rep.argmin_x) <= 0.05


def test_gap_report_enclosing_curves(band_ac):
    rep = gap_check(band_ac, d_request=1.0)
    sel = band_ac.evals[:, list(band_ac.band_indices)]
    d = rep.d * 0.999
    assert np.all(sel.min(axis=1) >= rep.f_minus + d - 1e-12)
    assert np.all(sel.max(axis=1) <= rep.f_plus - d + 1e-12)
    others = band_ac.evals[:, [j for j in range(2) if j not in band_ac.band_indices]]
    outside = (others < rep.f_minus[:, None]) | (others > rep.f_plus[:, None])
    assert outside.all()


def test_gap_trio_pair_passes_single_fails():
    g = make_grid(-8, 8, 256)
    model = get_model("crossing_trio")
    pair = band_decompose(model, g, (0, 1), gauge=None)
    rep = gap_check(pair, d_request=1.5)
    assert rep.holds_on_window and rep.d > 1.5
    # oracle: scan of eigenvalue distances over the grid
    dist = np.array([np.diff(np.linalg.eigvalsh(model.h(X)))[1] for X in g.x])
    assert rep.d == pytest.approx(dist.min(), abs=1e-12)

    single = band_decompose(model, g, 0, window=(-1.0, 1.0))
    rep1 = gap_check(single, d_request=0.05)
    assert not rep1.holds_on_window
    assert rep1.d <= 2 * g.dx  # bands cross at X = 0


def test_gap_monotone_under_window_shrink():
    g = make_grid(-8, 8, 256)
    model = get_model("rotated_pair")
    d_wide = gap_check(band_decompose(model, g, 0, window=(-1.9, 1.9)), 0.1).d
    d_narrow = gap_check(band_decompose(model, g, 0, window=(-1.0, 1.0)), 0.1).d
    assert d_narrow >= d_wide


def test_berry_connection_real_model_vanishes():
    g = make_grid(-8, 8, 256)
    band = band_decompose(get_model("rotated_pair"), g, 0, window=(-2, 2))
    A = berry_connection(band)
    assert np.abs(A[band.window_slice(0.1)]).max() <= 1e-10


def test_berry_connection_complex_model_analytic_oracle():
    # closed-form connection for the component gauge (first component real):
    # chi = (|g|, (lam-f) e^{-i arg g})/N  =>  A = -(arg g)' (lam-f)^2 / N^2
    g = make_grid(-8, 8, 512)
    band = band_decompose(get_model("two_band_complex"), g, 0)
    assert band.ref_component == 0
    A = berry_connection(band)
    x = g.x
    f = np.tanh(x)
    s = 1 / np.cosh(x)
    lam = -np.sqrt(f**2 + 0.25 + 0.04 * s**2)
    dgam = 0.4 * (-s * np.tanh(x)) / (1 + 0.16 * s**2)
    N2 = 0.25 + 0.04 * s**2 + (lam - f) ** 2
    A_exact = -dgam * (lam - f) ** 2 / N2
    interior = slice(16, -16)
    assert np.abs(A - A_exact)[interior].max() <= 1e-8
    assert np.abs(A[g.index_of(1.0)]) > 0.1  # genuinely nonzero connection


def test_berry_connection_near_real_part_zero():
    # ||chi|| = 1 forces Re<chi, chi'> = 0; differencing reproduces that
    g = make_grid(-8, 8, 1024)
    band = band_decompose(get_model("two_band_complex"), g, 0)
    dchi = fd_derivative(band.chi, g.dx, axis=0)
    re = np.einsum("ia,ia->i", band.chi.conj(), dchi).real
    assert np.abs(re[32:-32]).max() <= 1e-10


def test_berry_gauge_shift_covariance():
    g = make_grid(-8, 8, 512)
    band = band_decompose(get_model("two_band_complex"), g, 0)
    A = berry_connection(band)
    theta = 0.3 * np.sin(g.x)
    A_shift = berry_connection(band.with_gauge_shift(theta))
    interior = slice(16, -16)
    assert np.abs(A_shift - A - 0.3 * np.cos(g.x))[interior].max() <= 1e-8


def test_berry_requires_gauge():
    g = make_grid(-8, 8, 64)
    pair = band_decompose(get_model("crossing_trio"), g, (0, 1), gauge=None)
    with pytest.raises(ValueError):
        berry_connection(pair)


def test_riesz_matches_spectral_oracle():
    model = get_model("two_band_complex")
    for X in (-1.3, 0.0, 0.8):
        w, v = np.linalg.eigh(model.h(X))
        spec = np.outer(v[:, 0], v[:, 0].conj())
        P = riesz_projection(model, X, ContourSpec(center=w[0], radius=0.4 * (w[1] - w[0])))
        assert np.abs(P - spec).max() <= 1e-10
        assert np.abs(P @ P - P).max() <= 1e-10


def test_riesz_all_and_none():
    model = get_model("two_band_complex")
    P_all = riesz_projection(model, 0.5, ContourSpec(center=0.0, radius=10.0))
    assert np.abs(P_all - np.eye(2)).max() <= 1e-10
    P_none = riesz_projection(model, 0.5, ContourSpec(center=30.0, radius=1.0))
    assert np.abs(P_none).max() <= 1e-10


def test_riesz_rejects_contour_through_spectrum():
    model = get_model("two_band_complex")
    lam0 = np.linalg.eigvalsh(model.h(0.0))[0]
    with pytest.raises(ValueError):
        riesz_projection(model, 0.0, ContourSpec(center=lam0 - 1.0, radius=1.0), min_clearance=1e-3)


def test_contour_spec_node_floor():
    with pytest.raises(ValueError):
        ContourSpec(center=0.0, radius=1.0, nodes=32)


def test_grad_projection_constant_model_zero():
    g = make_grid(-8, 8, 64)
    band = band_decompose(get_model("constant_fiber"), g, 0)
    assert np.abs(grad_projection(band, "fd")).max() <= 1e-12
    assert np.abs(grad_projection(band, "analytic")).max() <= 1e-12


@pytest.fixture(scope="module")
def band_ac_fine():
    # the square-root band function is analytic only up to Im z ~ 0.5, so the
    # 1e-8 gradient identities need the finer per-point sampling
    return band_decompose(get_model("two_band_complex"), make_grid(-8, 8, 1024), 0)


def test_grad_projection_diagonal_block_vanishes(band_ac_fine):
    # P (dP) P = 0, a consequence of P^2 = P
    dP = grad_projection(band_ac_fine, "fd")
    P = band_ac_fine.proj
    diag_block = np.einsum("iab,ibc,icd->iad", P, dP, P)
    assert np.abs(diag_block[32:-32]).max() <= 1e-8


def test_grad_projection_offdiag_reconstruction(band_ac_fine):
    # dP = P^perp (dP) P + adjoint, checked across two independent routes
    dP_fd = grad_projection(band_ac_fine, "fd")
    dP_an = grad_projection(band_ac_fine, "analytic")
    assert np.abs(dP_fd - dP_an)[32:-32].max() <= 1e-8
    assert np.abs(dP_an - dP_an.conj().transpose(0, 2, 1)).max() <= 1e-12


def test_band_tracking_through_crossing():
    # the tracked band of the trio follows the smooth branch through X = 0
    g = make_grid(-8, 8, 256)
    band = band_decompose(get_model("crossing_trio"), g, 0, window=(-3, -0.5))
    E = band.band_energy
    # smooth through the crossing: second difference stays bounded
    d2 = np.abs(np.diff(E, 2))
    assert d2[64:-64].max() <= 5 * g.dx
    # on the far right the tracked curve sits on the +X branch (2nd ascending)
    i = g.index_of(1.5)
    assert E[i] == pytest.approx(band.evals[i, 1], abs=1e-10)
