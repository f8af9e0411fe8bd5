import numpy as np
import pytest

from adiband.electronic import band_decompose
from adiband.grids import MolecularWave, make_grid
from adiband.identities import (
    commutator_inverse,
    commutator_inverse_residual,
    offdiag_scaling,
)
from adiband.models import get_model


@pytest.fixture(scope="module")
def ac_fine():
    grid = make_grid(-8, 8, 1024)
    model = get_model("two_band_complex")
    return model, band_decompose(model, grid, 0)


def test_commutator_inverse_zero_for_constant_model():
    grid = make_grid(-8, 8, 64)
    model = get_model("constant_fiber", levels=(0.0, 1.0, 3.0))
    band = band_decompose(model, grid, 0)
    assert np.abs(commutator_inverse(model, band, 0.5)).max() == 0.0


def test_contour_vs_spectral_agreement(ac_fine):
    model, band = ac_fine
    for X in (-1.5, 0.0, 0.7, 2.2):
        Bs = commutator_inverse(model, band, X, method="spectral")
        Bc = commutator_inverse(model, band, X, method="contour")
        assert np.abs(Bs - Bc).max() <= 1e-8


def test_block_structure(ac_fine):
    model, band = ac_fine
    X = 0.4
    B = commutator_inverse(model, band, X)
    w, v = np.linalg.eigh(model.h(X))
    P = np.outer(v[:, 0], v[:, 0].conj())
    Pp = np.eye(2) - P
    assert np.abs(P @ B @ P).max() <= 1e-14
    assert np.abs(Pp @ B @ Pp).max() <= 1e-14
    assert np.abs(B - Pp @ B @ P).max() <= 1e-14


def test_norm_bounded_by_gap(ac_fine):
    # ||B(X)|| * gap^2 stays within a small factor of max ||dH||
    model, band = ac_fine
    xs = np.linspace(-4, 4, 41)
    dh_max = max(np.linalg.norm(model.dh(X), 2) for X in xs)
    for X in xs:
        w = np.linalg.eigvalsh(model.h(X))
        gap = w[1] - w[0]
        B = commutator_inverse(model, band, X)
        assert np.linalg.norm(B, 2) * gap**2 <= 4 * dh_max


def test_commutator_identity_residual(ac_fine):
    model, band = ac_fine
    xs = np.linspace(-3.8, 3.8, 50)
    worst = max(commutator_inverse_residual(model, band, X) for X in xs)
    assert worst <= 1e-8


def test_residual_zero_for_constant_model():
    grid = make_grid(-8, 8, 64)
    model = get_model("constant_fiber")
    band = band_decompose(model, grid, 0)
    assert commutator_inverse_residual(model, band, 0.3) <= 1e-14


def test_residual_grows_toward_crossing():
    grid = make_grid(-6.4, 6.4, 1024)
    model = get_model("rotated_pair")
    band = band_decompose(model, grid, 0, window=(-2, 2))
    inner = commutator_inverse_residual(model, band, 0.0)
    near = commutator_inverse_residual(model, band, 1.9)
    assert inner <= 1e-8
    assert near > inner  # divergent trend approaching the band crossing


def test_gap_floor_raises():
    grid = make_grid(-6.4, 6.4, 256)
    model = get_model("rotated_pair")
    band = band_decompose(model, grid, 0, window=(-2, 2))
    with pytest.raises(ValueError, match="below the safe floor 1.0e-06"):
        commutator_inverse(model, band, 2.0)  # exact crossing


def _coherent_family(grid, band):
    def states(eps):
        out = []
        for q0, p0 in [(-0.8, 0.4), (0.0, -0.6), (0.9, 0.2)]:
            u = (grid.x - q0) / np.sqrt(eps)
            phi = eps**-0.25 * np.exp(1j * p0 * (grid.x - q0) / eps) * np.exp(-(u**2) / 2)
            phi = phi / (np.linalg.norm(phi) * np.sqrt(grid.dx))
            out.append(MolecularWave(grid, phi[:, None] * band.chi, eps=eps))
        return out

    return states


def test_offdiag_scaling_commuting_fixture():
    grid = make_grid(-8, 8, 64)
    model = get_model("constant_fiber", levels=(0.0, 2.0))
    band = band_decompose(model, grid, 0)
    res = offdiag_scaling(model, band, (0.2, 0.1), _coherent_family(grid, band))
    # P = diag(1, 0) and H has no entry between the two levels: P H Q + Q H P is exactly zero
    assert max(res.offdiag_norm) == 0.0


def test_offdiag_scaling_first_order():
    # N = 256 keeps the smallest-eps states far from the momentum lattice edge
    grid = make_grid(-8, 8, 256)
    model = get_model("two_band_complex")
    band = band_decompose(model, grid, 0)
    res = offdiag_scaling(model, band, (0.2, 0.1, 0.05, 0.025), _coherent_family(grid, band))
    assert 0.8 <= res.slope <= 1.2
    assert res.remainder_slope >= 1.6
    assert max(res.remainder_norm) < max(res.offdiag_norm)
