import numpy as np
import pytest

from adiband.grids import (
    MolecularWave,
    NuclearWave,
    fourier_multiplier_matrix,
    make_grid,
    norm,
    sobolev_norm,
    spectral_derivative_matrix,
)
from oracles import circulant_multiplier, fourier_matrix


def test_make_grid_spacing():
    g = make_grid(-8, 8, 256)
    assert g.dx == pytest.approx(0.0625)
    assert g.n_points == 256
    assert g.x[0] == -8 and g.x[-1] == pytest.approx(8 - 0.0625)


def test_make_grid_momentum_lattice_fft_order():
    g = make_grid(0, 2 * np.pi, 8)
    # box length 2*pi -> integer modes in FFT order
    assert np.allclose(g.k, [0, 1, 2, 3, -4, -3, -2, -1])


@pytest.mark.parametrize("n", [100, 7, 0, 24])
def test_make_grid_rejects_bad_sizes(n):
    with pytest.raises(ValueError):
        make_grid(-8, 8, n)


def test_make_grid_rejects_degenerate_interval():
    with pytest.raises(ValueError):
        make_grid(3, 3, 64)


def test_norm_zero_wave():
    g = make_grid(0, 2 * np.pi, 64)
    w = NuclearWave(g, np.zeros(64), eps=0.1)
    assert norm(w) == 0.0


def test_norm_constant_wave():
    g = make_grid(0, 2 * np.pi, 64)
    w = NuclearWave(g, np.ones(64), eps=0.1)
    assert norm(w) == pytest.approx(np.sqrt(2 * np.pi), abs=1e-12)


def test_plancherel_random_wave():
    g = make_grid(-8, 8, 128)
    rng = np.random.default_rng(7)
    v = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    w = NuclearWave(g, v, eps=0.2)
    ft = np.fft.fft(v) / np.sqrt(128)
    nrm_k = np.sqrt(np.sum(np.abs(ft) ** 2) * g.dx)
    assert abs(norm(w) - nrm_k) <= 1e-12 * max(1.0, norm(w))


def test_norm_phase_invariance():
    g = make_grid(-8, 8, 64)
    rng = np.random.default_rng(3)
    v = rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2))
    w = MolecularWave(g, v, eps=0.1)
    w2 = MolecularWave(g, v * np.exp(1j * 0.7321), eps=0.1)
    assert norm(w) == pytest.approx(norm(w2), abs=1e-13)


def test_sobolev_constant_equals_norm():
    g = make_grid(0, 2 * np.pi, 64)
    w = NuclearWave(g, np.ones(64), eps=0.3)
    assert sobolev_norm(w, 1) == pytest.approx(norm(w), abs=1e-12)
    assert sobolev_norm(w, 2) == pytest.approx(norm(w), abs=1e-12)


@pytest.mark.parametrize("k0", [1, 3, -5])
def test_sobolev_plane_wave_closed_form(k0):
    # single Fourier mode: order-1 norm is (eps|k0| + 1)*||phi||
    g = make_grid(0, 2 * np.pi, 64)
    eps = 0.1
    w = NuclearWave(g, np.exp(1j * k0 * g.x), eps=eps)
    expected = (eps * abs(k0) + 1.0) * norm(w)
    assert abs(sobolev_norm(w, 1) - expected) <= 1e-10


def test_sobolev_order2_monotone_to_norm():
    g = make_grid(-8, 8, 128)
    rng = np.random.default_rng(11)
    v = np.exp(-g.x**2) * (1 + 0.2 * rng.standard_normal(128))
    n01 = sobolev_norm(NuclearWave(g, v, eps=0.1), 2)
    n001 = sobolev_norm(NuclearWave(g, v, eps=0.01), 2)
    base = norm(NuclearWave(g, v, eps=0.1))
    assert n001 < n01
    assert n001 - base < 0.01 * (n01 - base) + 1e-12


def test_sobolev_rejects_bad_order():
    g = make_grid(0, 2 * np.pi, 8)
    w = NuclearWave(g, np.ones(8), eps=0.1)
    with pytest.raises(ValueError):
        sobolev_norm(w, 3)


def test_spectral_derivative_constant():
    g = make_grid(-8, 8, 64)
    D = spectral_derivative_matrix(g)
    assert np.abs(D @ np.ones(64)).max() <= 1e-12


def test_spectral_derivative_fourier_mode():
    g = make_grid(0, 2 * np.pi, 64)
    D = spectral_derivative_matrix(g)
    v = np.exp(1j * g.x)
    assert np.abs(D @ v - v).max() <= 1e-10


def test_spectral_derivative_hermitian():
    g = make_grid(-8, 8, 64)
    D = spectral_derivative_matrix(g)
    assert np.abs(D - D.conj().T).max() <= 1e-12


def test_spectral_derivative_diagonalized_by_dft():
    g = make_grid(-8, 8, 32)
    D = spectral_derivative_matrix(g)
    F = fourier_matrix(g)
    assert np.abs(F @ F.conj().T - np.eye(32)).max() <= 1e-12
    Dk = F @ D @ F.conj().T
    assert np.abs(Dk - np.diag(g.k)).max() <= 1e-10


@pytest.mark.parametrize("x_min, x_max, n", [(-8, 8, 64), (-3, 5, 128)])
def test_fourier_multiplier_matches_dft_product(x_min, x_max, n):
    # a symbol that is not even on the lattice, so the matrix is complex
    g = make_grid(x_min, x_max, n)
    symbol = (g.k + 0.3) ** 2
    F = fourier_matrix(g)
    dense = F.conj().T @ (symbol[:, None] * F)
    C = fourier_multiplier_matrix(symbol)
    assert np.abs(dense.imag).max() > 1e-3
    assert np.abs(C - dense).max() <= 1e-13 * np.abs(dense).max()
    # the index gather only copies entries of ifft(s): bitwise equal to SciPy's circulant
    assert np.array_equal(C, circulant_multiplier(symbol))


def test_wave_shape_validation():
    g = make_grid(-8, 8, 64)
    with pytest.raises(ValueError):
        NuclearWave(g, np.zeros(63), eps=0.1)
    with pytest.raises(ValueError):
        MolecularWave(g, np.zeros(64), eps=0.1)
    with pytest.raises(ValueError):
        NuclearWave(g, np.full(64, np.nan), eps=0.1)
