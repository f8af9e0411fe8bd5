import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiband.electronic import _coupled_components, band_decompose, berry_connection, fd_derivative
from adiband.grids import NuclearWave, make_grid, norm
from adiband.hamiltonians import (
    DenseHamiltonian,
    _band_fibers,
    assemble_bo,
    assemble_diag,
    assemble_full,
    clamp_field,
    full_projection,
    molecular_operator,
    u_map,
    u_matrix,
    u_star_map,
)
from adiband.models import MODEL_TAGS, ElectronicModel, get_model
from adiband.propagation import diagonalize
from oracles import assembled_blocks, assembled_bo, fourier_matrix, kinetic_matrix, kron_hamiltonian


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


def test_non_hermitian_fiber_refused():
    # the check sees the raw assembly, before the stored matrix is symmetrized
    skew = np.array([[0.0, 1e-6], [0.0, 1.0]])
    model = ElectronicModel(tag="skew", fiber_dim=2, params={}, _h=lambda xs: np.repeat(skew[None], len(xs), axis=0),
                            _dh=lambda X: 0 * skew)
    with pytest.raises(AssertionError, match="non-Hermitian"):
        assemble_full(model, make_grid(-4, 4, 32), eps=0.1)


@pytest.mark.parametrize(
    "entries",
    [{(0, 0): np.nan}, {(1, 1): np.inf}, {(0, 1): np.inf, (1, 0): np.inf}, {(0, 1): -np.inf},
     {(0, 1): complex(0, np.inf), (1, 0): complex(0, -np.inf)}],
    ids=["nan", "inf-diagonal", "inf-pair", "inf-one-side", "complex-inf-pair"],
)
def test_non_finite_fiber_refused(entries):
    # a non-finite entry makes its entry of M - M^dag non-finite, so the residual refuses it
    bad = np.array([[0.0, 0.5], [0.5, 1.0]], dtype=complex if any(np.iscomplex(v) for v in entries.values()) else float)
    for ij, v in entries.items():
        bad[ij] = v
    model = ElectronicModel(tag="bad", fiber_dim=2, params={}, _h=lambda xs: np.repeat(bad[None], len(xs), axis=0),
                            _dh=lambda X: 0 * bad)
    with pytest.raises(AssertionError, match="non-finite entries"):
        assemble_full(model, make_grid(-4, 4, 32), eps=0.1)


@pytest.mark.parametrize("tag", ["rotated_pair", "crossing_trio", "two_band_complex"])
def test_blocks_checked_by_parts_equal_the_checked_assembly(tag):
    # the parts check writes the Hermitian part the full-matrix check stores, entry for entry
    grid = make_grid(-6.4, 6.4, 128)
    model = get_model(tag)
    op = molecular_operator(model, grid)
    for eps in (0.2, 0.025):
        got, want = [(c, op.block(eps, c)) for c in op.components], assembled_blocks(model, grid, eps)
        assert [list(c) for c, _ in got] == [list(c) for c, _ in want]
        for (_, a), (_, b) in zip(got, want):
            assert a.matrix.dtype == b.matrix.dtype and np.array_equal(a.matrix, b.matrix)
            assert (a.tag, a.eps, a.fiber_dim, a.grid) == (b.tag, b.eps, b.fiber_dim, b.grid)
        band = band_decompose(model, grid, 0, window=(-2, 2) if tag == "rotated_pair" else None, delta=0.4)
        for include_a_geo in (True, False):
            a, b = assemble_bo(band, eps, include_a_geo), assembled_bo(band, eps, include_a_geo)
            assert a.matrix.dtype == b.matrix.dtype and np.array_equal(a.matrix, b.matrix)


@pytest.mark.parametrize("skew", [1e-6, 3e-11, 1e-11, 2e-12])
@pytest.mark.parametrize("shape", ["pair", "trio", "complex-diagonal"])
def test_parts_check_refuses_as_the_full_check_does(skew, shape):
    # near the 1e-12 relative bound, on either side of it: the same refusals, with the same
    # residual in the message, or the same matrices; a block's scale is its own (trio: {0, 2} and {1}),
    # and the first block built, in component order, that the assembly refuses is refused
    fiber = {
        "pair": np.array([[0.0, skew], [0.0, 1.0]]),
        "trio": np.array([[10.0, 0.0, skew], [0.0, 0.5, 0.0], [0.0, 0.0, 1.0]]),
        "complex-diagonal": np.array([[1.0 + 1j * skew, 0.2], [0.2, 1.0]]),
    }[shape]
    model = ElectronicModel(tag="x", fiber_dim=len(fiber), params={},
                            _h=lambda xs: fiber * (1 + 0.1 * np.sin(xs))[:, None, None], _dh=lambda X: 0 * fiber)
    grid = make_grid(-4, 4, 32)
    op = molecular_operator(model, grid)
    for eps in (0.1, 30.0):
        try:
            want = assembled_blocks(model, grid, eps)
        except AssertionError as exc:
            with pytest.raises(AssertionError) as got:
                [op.block(eps, c) for c in op.components]
            assert str(got.value) == str(exc)
        else:
            for c, (_, b) in zip(op.components, want, strict=True):
                assert np.array_equal(op.block(eps, c).matrix, b.matrix)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_stored_matrix_is_the_hermitian_part_bitwise(dtype):
    rng = np.random.default_rng(11)
    M = rng.standard_normal((32, 32)).astype(dtype)
    if dtype == np.complex128:
        M += 1j * rng.standard_normal((32, 32))
    # Hermitian up to a rounding-sized residual, as an assembly leaves it
    M = M + M.conj().T + 1e-15 * rng.standard_normal((32, 32))
    H = DenseHamiltonian(M.copy(), eps=0.1, tag="test", grid=make_grid(-4, 4, 32), fiber_dim=1)
    assert H.matrix.dtype == dtype
    assert np.array_equal(H.matrix, (M + M.conj().T) / 2)


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


def test_diag_trivial_projections(ac_setup):
    grid, model, band, H, P = ac_setup
    # a band set covering the whole fiber has P = 1, so H_diag = H; the
    # formula is symmetric under P <-> 1 - P, which covers P = 0 as well
    whole = band_decompose(model, grid, (0, 1), gauge=None)
    assert np.abs(full_projection(whole) - np.eye(H.dim)).max() <= 1e-12
    assert np.abs(assemble_diag(H, whole).matrix - H.matrix).max() <= 1e-12


def test_diag_rejects_band_of_other_dimension(ac_setup):
    grid, model, band, H, P = ac_setup
    coarse = band_decompose(model, make_grid(-8, 8, 64), 0)
    for build, op in ((assemble_diag, H), (_band_fibers, molecular_operator(model, grid))):
        with pytest.raises(ValueError, match="dimension mismatch"):
            build(op, coarse)


def test_diag_commutes_while_full_does_not(ac_setup):
    grid, model, band, H, P = ac_setup
    Hd = assemble_diag(H, band)
    comm_d = Hd.matrix @ P - P @ Hd.matrix
    comm_f = H.matrix @ P - P @ H.matrix
    assert np.abs(comm_d).max() <= 1e-10
    assert np.abs(comm_f).max() >= 1e-4  # off-diagonal coupling of order eps


def test_offdiagonal_split_identity(ac_setup):
    grid, model, band, H, P = ac_setup
    Hd = assemble_diag(H, band)
    Pp = np.eye(H.dim) - P
    off = Pp @ H.matrix @ P + P @ H.matrix @ Pp
    assert np.abs((H.matrix - Hd.matrix) - off).max() <= 1e-11


@pytest.mark.parametrize(
    "tag, bands, window, real_data",
    [
        ("crossing_trio", (0, 1), None, True),
        ("rotated_pair", (0,), (-2, 2), True),
        ("two_band_complex", (0,), None, False),
    ],
)
def test_storage_dtype_follows_data(tag, bands, window, real_data):
    grid = make_grid(-4, 4, 32)
    model = get_model(tag)
    band = band_decompose(model, grid, bands, window=window, gauge=None if len(bands) > 1 else "component")
    H = assemble_full(model, grid, eps=0.2)
    P = full_projection(band)
    Hd = assemble_diag(H, band)
    # the kinetic term is real, so the fibers alone decide the storage of H, P and H_diag
    expected = np.float64 if real_data else np.complex128
    assert P.dtype == H.matrix.dtype == Hd.matrix.dtype == expected
    # eigenvectors follow the storage: float64 for real data, complex with a
    # nonzero imaginary part otherwise
    for V in (diagonalize(H).V, diagonalize(Hd).V):
        assert V.dtype == expected
        assert np.any(V.imag) != real_data


@pytest.mark.parametrize("tag", MODEL_TAGS)
def test_blocks_are_the_components_of_the_dense_h(tag):
    # the blocks read from the m x m fiber pattern are the connected components of the
    # exact-zero pattern of the dense N x N H, and hold its entries on their rows
    grid = make_grid(-4, 4, 32)
    model = get_model(tag)
    op = molecular_operator(model, grid)
    dense = assemble_full(model, grid, eps=0.2).matrix
    rows = [op.rows(comp) for comp in op.components]
    assert [list(r) for r in rows] == [list(c) for c in _coupled_components(dense != 0)]
    for r, comp in zip(rows, op.components):
        block = op.block(0.2, comp)
        assert block.fiber_dim == len(comp) and block.matrix.dtype == dense.dtype
        assert np.array_equal(block.matrix, dense[np.ix_(r, r)])
    assert len(op.components) == {"crossing_trio": 2, "constant_fiber": 2}.get(tag, 1)
    # read once per operator
    assert op.components is op.components


BAND_SUBSETS = [
    pytest.param(tag, bands, window, id=f"{tag}-{''.join(map(str, bands))}-{'window' if window else 'box'}")
    for tag in MODEL_TAGS
    for r in range(1, get_model(tag).fiber_dim + 1)
    for bands in itertools.combinations(range(get_model(tag).fiber_dim), r)
    for window in (None, (-1.5, 1.5))
]


@pytest.mark.parametrize("tag, bands, window", BAND_SUBSETS)
def test_band_projection_couples_no_two_blocks(tag, bands, window):
    # P is a function of H_e(X) at each point, so its fiber blocks never couple two blocks
    # of H: _band_fibers refuses a P that does, and the decoupling pair solves each block on its own
    grid = make_grid(-4, 4, 32)
    model = get_model(tag)
    band = band_decompose(model, grid, bands, window=window, gauge="component" if len(bands) == 1 else None)
    owner = np.empty(model.fiber_dim, dtype=int)
    for k, comp in enumerate(molecular_operator(model, grid).components):
        owner[comp] = k
    coupled = (band.proj != 0).any(axis=0)
    assert not np.any(coupled[owner[:, None] != owner[None, :]])


@pytest.mark.parametrize(
    "tag, dtype",
    [("crossing_trio", np.float64), ("two_band_complex", np.complex128)],
    ids=["real", "complex-fibers"],
)
def test_full_equals_kron_construction(tag, dtype):
    grid = make_grid(-4, 4, 32)
    model = get_model(tag)
    H = assemble_full(model, grid, eps=0.2).matrix
    assert H.dtype == dtype
    assert np.array_equal(H, kron_hamiltonian(model, grid, 0.2))


def test_kinetic_real_part_is_the_operator():
    grid = make_grid(-8, 8, 64)
    F = fourier_matrix(grid)
    dense = F.conj().T @ ((0.3 * grid.k[:, None]) ** 2 / 2 * F)
    T = kinetic_matrix(grid, 0.3)
    assert np.isrealobj(T)
    # a field of zeros is no field
    assert np.array_equal(kinetic_matrix(grid, 0.3, np.zeros(grid.n_points)), T)
    # the circulant of the symbol and the DFT product round differently
    assert np.abs(T - dense.real).max() <= 1e-14 * np.abs(T).max()
    assert np.abs(dense.imag).max() <= 1e-14 * np.abs(T).max()


@pytest.mark.parametrize("a_mean", [0.4, 0.0])
def test_kinetic_matches_squared_dressed_derivative(a_mean):
    # the phase-dressed covariant derivative M, squared as a dense product
    grid = make_grid(-8, 8, 64)
    eps = 0.3
    s = 2 * np.pi * grid.x / grid.length
    a_vals = a_mean + 0.5 * np.sin(s) + 0.2 * np.cos(3 * s)
    a_bar = a_vals.mean()
    ft = np.fft.fft(a_vals - a_bar)
    ft_theta = np.zeros_like(ft)
    ft_theta[1:] = ft[1:] / (1j * grid.k[1:])
    phase = np.exp(1j * np.fft.ifft(ft_theta).real)
    F = fourier_matrix(grid)
    D = F.conj().T @ (grid.k[:, None] * F)
    M = eps * (phase.conj()[:, None] * D * phase[None, :] + a_bar * np.eye(grid.n_points))
    dressed = (M @ M) / 2
    T = kinetic_matrix(grid, eps, a_vals)
    assert T.dtype == np.complex128
    assert np.abs(T - dressed).max() <= 1e-13 * np.abs(dressed).max()


def test_bo_free_band_is_kinetic():
    grid = make_grid(-8, 8, 64)
    band = band_decompose(get_model("free"), grid, 0)
    H = assemble_bo(band, eps=0.3)
    assert np.abs(H.matrix - kinetic_matrix(grid, 0.3)).max() <= 1e-12


@pytest.mark.parametrize(
    "tag, window, berry, include_a_geo, real",
    [
        ("rotated_pair", (-2, 2), None, True, True),  # real frame: A_geo = 0
        ("crossing_trio", None, None, True, True),  # the decoupling lift band
        ("two_band_complex", None, None, False, True),  # connection dropped
        ("two_band_complex", None, None, True, False),  # A_geo != 0
        ("rotated_pair", (-2, 2), lambda x: np.full(x.shape, 0.3), True, False),  # constant connection
    ],
)
def test_bo_storage_dtype_follows_gauge_field(tag, window, berry, include_a_geo, real):
    grid = make_grid(-4, 4, 64)
    band = band_decompose(get_model(tag), grid, 0, window=window, gauge="component", delta=0.4)
    eps = 0.2
    samples = None if berry is None else berry(grid.x)
    H = assemble_bo(band, eps, include_a_geo=include_a_geo, berry=samples)
    assert H.matrix.dtype == (np.float64 if real else np.complex128)
    assert np.any(H.matrix.imag) != real
    if real:
        # the zero-field phase dressing: phase = 1, mean(A) = 0, M = eps D
        F = fourier_matrix(grid)
        M = eps * (F.conj().T @ (grid.k[:, None] * F))
        E = clamp_field(band.band_energy, grid, band.window, band.delta)
        dressed = (M @ M) / 2 + np.diag(E)
        assert np.abs(H.matrix - dressed).max() <= 1e-12 * np.abs(dressed).max()


def test_bo_ground_state_localized_at_well_bottom():
    grid = make_grid(-6.4, 6.4, 256)
    band = band_decompose(get_model("rotated_pair"), grid, 0, window=(-2, 2), delta=0.4)
    H = assemble_bo(band, eps=0.05)
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


@settings(max_examples=40, deadline=None)
@given(tag=st.sampled_from(["two_band_complex", "crossing_trio"]), eps=st.sampled_from([0.2, 0.1, 0.025]),
       coeffs=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6))
def test_bo_gauge_covariance_under_a_random_periodic_phase(tag, eps, coeffs):
    # theta = sum_j a_j cos(j w X) + b_j sin(j w X), j = 1..3, periodic on the box: the BO operator of
    # A + theta' is e^{-i theta} H_A e^{i theta}, for a complex band and for a real one (A = 0).  The
    # bands have no window, which would clamp A + theta' outside it
    grid = make_grid(-8, 8, 64)
    band = band_decompose(get_model(tag), grid, 0)
    A = berry_connection(band)
    w, j = 2 * np.pi / grid.length, np.arange(1, 4)[:, None]
    a, b = np.array(coeffs[:3])[:, None], np.array(coeffs[3:])[:, None]
    theta = np.sum(a * np.cos(j * w * grid.x) + b * np.sin(j * w * grid.x), axis=0)
    dtheta = np.sum(j * w * (b * np.cos(j * w * grid.x) - a * np.sin(j * w * grid.x)), axis=0)
    H1 = assemble_bo(band, eps=eps, berry=A + dtheta)
    H0 = assemble_bo(band, eps=eps, berry=A)
    phase = np.exp(1j * theta)
    conj = np.diag(phase.conj()) @ H0.matrix @ np.diag(phase)
    assert np.abs(H1.matrix - conj).max() <= 1e-9


def test_full_projection_rank_and_action(ac_setup):
    grid, model, band, H, P = ac_setup
    rank = int(round(np.real(np.trace(P))))
    assert rank == grid.n_points  # one band, whole box
    # lifted in-window state is fixed by P
    phi = np.exp(-grid.x**2)
    psi = (phi[:, None] * band.chi).reshape(-1)
    assert np.abs(P @ psi - psi).max() <= 1e-12
    assert np.abs(P @ P - P).max() <= 1e-10


def test_full_projection_windowed_rank():
    grid = make_grid(-8, 8, 128)
    band = band_decompose(get_model("rotated_pair"), grid, 0, window=(-2, 2))
    P = full_projection(band)
    assert int(round(np.real(np.trace(P)))) == int(band.mask.sum())


def test_trio_pair_projection_smooth_across_crossing():
    grid = make_grid(-8, 8, 256)
    pair = band_decompose(get_model("crossing_trio"), grid, (0, 1), gauge=None)
    i0 = grid.index_of(0.0)
    jumps = [
        np.abs(pair.proj[i + 1] - pair.proj[i]).max()
        for i in range(i0 - 4, i0 + 4)
    ]
    assert max(jumps) <= 5 * grid.dx  # bounded difference quotient through X=0


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


@settings(max_examples=30, deadline=None)
@given(data=st.data(), tag=st.sampled_from(MODEL_TAGS),
       window=st.one_of(st.none(), st.tuples(st.floats(-3.0, -1.0), st.floats(1.0, 3.0))),
       delta=st.floats(0.1, 0.8), gauge=st.sampled_from(["component", "transport"]), twist=st.floats(-2.0, 2.0),
       seed=st.integers(0, 2**32 - 1))
def test_u_u_star_is_the_identity(data, tag, window, delta, gauge, twist, seed):
    # U U* = 1 on a random single band: its window (or none), its margin delta, its gauge and a
    # periodic gauge shift; U* keeps the norm of a random nuclear state and U maps it back
    grid = make_grid(-6.4, 6.4, 64)
    model = get_model(tag)
    band = band_decompose(model, grid, data.draw(st.integers(0, model.fiber_dim - 1)), window=window,
                          gauge=gauge, delta=delta)
    band = band.with_gauge_shift(twist * np.sin(2 * np.pi * grid.x / grid.length))
    rng = np.random.default_rng(seed)
    phi = NuclearWave(grid, rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points), eps=0.1)
    lifted = u_star_map(phi, band)
    assert abs(norm(lifted) / norm(phi) - 1) <= 1e-12
    assert np.abs(u_map(lifted, band).values - phi.values).max() <= 1e-12 * np.abs(phi.values).max()


def test_u_star_u_is_band_projection(ac_setup):
    grid, model, band, H, P = ac_setup
    U = u_matrix(band)
    UU = U @ U.conj().T
    assert np.abs(UU - np.eye(grid.n_points)).max() <= 1e-12
    # U* U acts as the band projection on its range
    rng = np.random.default_rng(1)
    psi = rng.standard_normal(H.dim) + 1j * rng.standard_normal(H.dim)
    psiP = P @ psi
    assert np.abs(U.conj().T @ (U @ psiP) - psiP).max() <= 1e-12


def test_u_map_kills_orthogonal_complement(ac_setup):
    grid, model, band, H, P = ac_setup
    rng = np.random.default_rng(2)
    psi = rng.standard_normal(H.dim) + 1j * rng.standard_normal(H.dim)
    perp = psi - P @ psi
    U = u_matrix(band)
    assert np.abs(U @ (P @ perp)).max() <= 1e-12


def test_clamp_field_matching_and_flat_tails():
    grid = make_grid(-6.4, 6.4, 512)
    vals = np.sin(grid.x) + 0.3 * grid.x
    out = clamp_field(vals, grid, window=(-2, 2), delta=0.5)
    ib = int(np.searchsorted(grid.x, 2 - 0.5 / 5)) - 1
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
