import numpy as np
import pytest

from adiband.electronic import band_decompose, berry_connection, fd_derivative
from adiband.grids import NuclearWave, fourier_matrix, make_grid, norm
from adiband.hamiltonians import (
    assemble_bo,
    assemble_diag,
    assemble_full,
    clamp_field,
    energy_cutoff,
    full_projection,
    kinetic_matrix,
    smoothed_projection_family,
    u_map,
    u_matrix,
    u_star_map,
)
from adiband.models import get_model
from adiband.propagation import diagonalize


@pytest.fixture(scope="module")
def ac_setup():
    grid = make_grid(-8, 8, 128)
    model = get_model("two_band_complex")
    band = band_decompose(model, grid, 0)
    H = assemble_full(model, grid, eps=0.1)
    P = full_projection(band)
    return grid, model, band, H, P


def test_free_particle_spectrum():
    grid = make_grid(0, 2 * np.pi, 64)
    H = assemble_full(get_model("free"), grid, eps=0.5)
    w = np.linalg.eigvalsh(H.matrix)
    expected = np.sort((0.5 * grid.k) ** 2 / 2)
    assert np.abs(w - expected).max() <= 1e-10


def test_small_eps_ground_energy():
    grid = make_grid(-8, 8, 128)
    model = get_model("two_band_complex")
    H = assemble_full(model, grid, eps=1e-3)
    w0 = np.linalg.eigvalsh(H.matrix)[0]
    emin = min(np.linalg.eigvalsh(model.h(X))[0] for X in grid.x)
    assert abs(w0 - emin) <= 1e-4


def test_full_is_hermitian(ac_setup):
    H = ac_setup[3]
    assert np.abs(H.matrix - H.matrix.conj().T).max() <= 1e-12


def test_a_ext_seam_validation():
    grid = make_grid(-8, 8, 64)
    with pytest.raises(ValueError):
        kinetic_matrix(grid, 0.1, a_ext=lambda X: X)  # jumps at the seam
    # periodic vector potential is accepted
    kinetic_matrix(grid, 0.1, a_ext=lambda X: 0.3 * np.sin(np.pi * X / 4))


def test_diag_trivial_projections(ac_setup):
    grid, model, band, H, P = ac_setup
    from adiband.hamiltonians import ProjectionOperator

    eye = ProjectionOperator(np.eye(H.dim, dtype=complex), tag="id")
    zero = ProjectionOperator(np.zeros((H.dim, H.dim), dtype=complex), tag="zero")
    assert np.abs(assemble_diag(H, eye).matrix - H.matrix).max() <= 1e-12
    assert np.abs(assemble_diag(H, zero).matrix - H.matrix).max() <= 1e-12


def test_diag_commutes_while_full_does_not(ac_setup):
    grid, model, band, H, P = ac_setup
    Hd = assemble_diag(H, P)
    comm_d = Hd.matrix @ P.matrix - P.matrix @ Hd.matrix
    comm_f = H.matrix @ P.matrix - P.matrix @ H.matrix
    assert np.abs(comm_d).max() <= 1e-10
    assert np.abs(comm_f).max() >= 1e-4  # off-diagonal coupling of order eps


def test_offdiagonal_split_identity(ac_setup):
    grid, model, band, H, P = ac_setup
    Hd = assemble_diag(H, P)
    Pp = np.eye(H.dim) - P.matrix
    off = Pp @ H.matrix @ P.matrix + P.matrix @ H.matrix @ Pp
    assert np.abs((H.matrix - Hd.matrix) - off).max() <= 1e-11


def test_diag_rejects_projection_off_fiber_blocks(ac_setup):
    grid, model, band, H, P = ac_setup
    from adiband.hamiltonians import ProjectionOperator

    M = P.matrix.copy()
    m = band.fiber_dim
    M[0, m] = M[m, 0] = 1e-3  # couples grid points 0 and 1
    with pytest.raises(ValueError, match="fiber blocks"):
        assemble_diag(H, ProjectionOperator(M, tag="coupled"))


@pytest.mark.parametrize(
    "tag, bands, window, a_ext, real_data",
    [
        ("crossing_trio", (0, 1), None, None, True),
        ("rotated_pair", (0,), (-2, 2), None, True),
        ("two_band_complex", (0,), None, None, False),
        ("rotated_pair", (0,), (-2, 2), lambda X: 0.3 * np.sin(np.pi * X / 4), False),
    ],
)
def test_storage_dtype_follows_data(tag, bands, window, a_ext, real_data):
    grid = make_grid(-4, 4, 32)
    model = get_model(tag)
    band = band_decompose(model, grid, bands, window=window, gauge=None if len(bands) > 1 else "component")
    H = assemble_full(model, grid, eps=0.2, a_ext=a_ext)
    P = full_projection(band)
    Hd = assemble_diag(H, P)
    # the projection depends on the fibers only, not on A_ext
    assert P.matrix.dtype == (np.complex128 if tag == "two_band_complex" else np.float64)
    expected = np.float64 if real_data else np.complex128
    assert H.matrix.dtype == Hd.matrix.dtype == expected
    # eigenvectors are stored complex; real storage gives them zero imaginary part
    for V in (diagonalize(H).eigenvectors, diagonalize(Hd).eigenvectors):
        assert V.dtype == np.complex128
        assert np.any(V.imag) != real_data


def test_kinetic_real_part_is_the_operator():
    grid = make_grid(-8, 8, 64)
    F = fourier_matrix(grid)
    dense = F.conj().T @ ((0.3 * grid.k[:, None]) ** 2 / 2 * F)
    T = kinetic_matrix(grid, 0.3)
    assert np.isrealobj(T)
    assert np.array_equal(T, dense.real)
    assert np.abs(dense.imag).max() <= 1e-14 * np.abs(T).max()


def test_bo_free_band_is_kinetic():
    grid = make_grid(-8, 8, 64)
    band = band_decompose(get_model("free"), grid, 0)
    H = assemble_bo(band, eps=0.3)
    assert np.abs(H.matrix - kinetic_matrix(grid, 0.3)).max() <= 1e-12


def test_bo_ground_state_localized_at_well_bottom():
    grid = make_grid(-6.4, 6.4, 256)
    band = band_decompose(get_model("rotated_pair"), grid, 0, window=(-2, 2))
    H = assemble_bo(band, eps=0.05, delta=0.4)
    w, v = np.linalg.eigh(H.matrix)
    ground = np.abs(v[:, 0]) ** 2
    inside = (grid.x > -1) & (grid.x < 1)
    assert ground[inside].sum() / ground.sum() >= 0.99


def test_bo_gauge_conjugation_covariance():
    grid = make_grid(-8, 8, 256)
    band = band_decompose(get_model("two_band_complex"), grid, 0)
    A = berry_connection(band)
    theta = 0.3 * np.sin(2 * np.pi * grid.x / grid.length)
    dtheta = 0.3 * (2 * np.pi / grid.length) * np.cos(2 * np.pi * grid.x / grid.length)
    H1 = assemble_bo(band, eps=0.1, berry=A + dtheta)
    H0 = assemble_bo(band, eps=0.1, berry=A)
    phase = np.exp(1j * theta)
    conj = np.diag(phase.conj()) @ H0.matrix @ np.diag(phase)
    assert np.abs(H1.matrix - conj).max() <= 1e-9


def test_full_projection_rank_and_action(ac_setup):
    grid, model, band, H, P = ac_setup
    rank = int(round(np.real(np.trace(P.matrix))))
    assert rank == grid.n_points  # one band, whole box
    # lifted in-window state is fixed by P
    phi = np.exp(-grid.x**2)
    psi = (phi[:, None] * band.chi).reshape(-1)
    assert np.abs(P.matrix @ psi - psi).max() <= 1e-12
    assert np.abs(P.matrix @ P.matrix - P.matrix).max() <= 1e-10


def test_full_projection_windowed_rank():
    grid = make_grid(-8, 8, 128)
    band = band_decompose(get_model("rotated_pair"), grid, 0, window=(-2, 2))
    P = full_projection(band)
    assert int(round(np.real(np.trace(P.matrix)))) == int(band.mask.sum())


def test_trio_pair_projection_smooth_across_crossing():
    grid = make_grid(-8, 8, 256)
    pair = band_decompose(get_model("crossing_trio"), grid, (0, 1), gauge=None)
    i0 = grid.index_of(0.0)
    jumps = [
        np.abs(pair.proj[i + 1] - pair.proj[i]).max()
        for i in range(i0 - 4, i0 + 4)
    ]
    assert max(jumps) <= 5 * grid.dx  # bounded difference quotient through X=0


def test_smoothed_family_hierarchy():
    grid = make_grid(-6.4, 6.4, 256)
    band = band_decompose(get_model("rotated_pair"), grid, 0, window=(-2, 2))
    Ps = smoothed_projection_family(band, delta=0.5)
    for i in range(4):
        for j in range(i + 1, 4):
            prod = Ps[i].matrix @ Ps[j].matrix
            assert np.abs(prod - Ps[i].matrix).max() <= 1e-10
            assert np.abs(Ps[j].matrix @ Ps[i].matrix - Ps[i].matrix).max() <= 1e-10
    # deep inside the window P_0 equals the band projection
    P_star = full_projection(band)
    core = np.abs(grid.x) < 2 - 0.5  # window shrunk by delta
    m = band.fiber_dim
    for idx in np.nonzero(core)[0][::16]:
        blk = slice(idx * m, (idx + 1) * m)
        assert np.abs(Ps[0].matrix[blk, blk] - P_star.matrix[blk, blk]).max() <= 1e-12
    # outside the window everything vanishes
    out = np.abs(grid.x) > 2
    for idx in np.nonzero(out)[0][::16]:
        blk = slice(idx * m, (idx + 1) * m)
        for Pi in Ps:
            assert np.abs(Pi.matrix[blk, blk]).max() == 0.0


def test_smoothed_family_delta_too_large():
    grid = make_grid(-6.4, 6.4, 128)
    band = band_decompose(get_model("rotated_pair"), grid, 0, window=(-2, 2))
    with pytest.raises(ValueError):
        smoothed_projection_family(band, delta=2.5)


def test_energy_cutoff_limits_and_rank():
    grid = make_grid(-8, 8, 64)
    H = assemble_full(get_model("two_band_complex"), grid, eps=0.2)
    w, v = np.linalg.eigh(H.matrix)
    assert np.abs(energy_cutoff(w, v, w[0] - 1.0).matrix).max() == 0.0
    assert np.abs(energy_cutoff(w, v, w[-1] + 1.0).matrix - np.eye(H.dim)).max() <= 1e-10
    E0 = np.median(w)
    P = energy_cutoff(w, v, E0)
    assert int(round(np.real(np.trace(P.matrix)))) == int((w <= E0).sum())
    comm = P.matrix @ H.matrix - H.matrix @ P.matrix
    assert np.abs(comm).max() <= 1e-11


def test_u_maps_isometry_and_projection(ac_setup):
    grid, model, band, H, P = ac_setup
    rng = np.random.default_rng(42)
    for _ in range(20):
        phi = NuclearWave(grid, rng.standard_normal(grid.n_points)
                          + 1j * rng.standard_normal(grid.n_points), eps=0.1)
        lifted = u_star_map(phi, band)
        assert abs(norm(lifted) / norm(phi) - 1) <= 1e-12
        back = u_map(lifted, band)
        assert np.abs(back.values - phi.values).max() <= 1e-12


def test_u_star_u_is_band_projection(ac_setup):
    grid, model, band, H, P = ac_setup
    U = u_matrix(band, delta=0.5)
    UU = U @ U.conj().T
    assert np.abs(UU - np.eye(grid.n_points)).max() <= 1e-12
    # U* U acts as P_star on the band range
    rng = np.random.default_rng(1)
    psi = rng.standard_normal(P.dim) + 1j * rng.standard_normal(P.dim)
    psiP = P.matrix @ psi
    assert np.abs(U.conj().T @ (U @ psiP) - psiP).max() <= 1e-12


def test_u_map_kills_orthogonal_complement(ac_setup):
    grid, model, band, H, P = ac_setup
    rng = np.random.default_rng(2)
    psi = rng.standard_normal(P.dim) + 1j * rng.standard_normal(P.dim)
    perp = psi - P.matrix @ psi
    U = u_matrix(band, delta=0.5)
    assert np.abs(U @ (P.matrix @ perp)).max() <= 1e-12


def test_clamp_field_matching_and_flat_tails():
    grid = make_grid(-6.4, 6.4, 512)
    vals = np.sin(grid.x) + 0.3 * grid.x
    out = clamp_field(vals, grid, window=(-2, 2), shrink=0.1)
    ib = int(np.searchsorted(grid.x, 2 - 0.1)) - 1
    # value and first derivative continuous at the clamp boundary (the
    # second derivative may jump there, so compare one-sided differences)
    assert out[ib] == pytest.approx(vals[ib], abs=1e-12)
    one_sided = (out[ib + 1] - out[ib]) / grid.dx
    d_in = fd_derivative(vals, grid.dx)
    assert abs(one_sided - d_in[ib]) <= 0.02
    # constant well beyond the ramp, before the seam blend
    far = (grid.x > 3.2) & (grid.x < 4.5)
    assert np.abs(np.diff(out[far])).max() <= 1e-10
    # periodic seam continuity
    assert abs(out[0] - out[-1]) <= 1e-3
