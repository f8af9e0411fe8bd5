import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiband.electronic import band_decompose
from adiband.grids import MolecularWave, l2_norm, make_grid, norm, sobolev_norm
from adiband.hamiltonians import (
    assemble_blocks,
    assemble_bo,
    assemble_diag,
    assemble_full,
    full_projection,
    split_band_preserving,
)
from adiband.models import get_model
from adiband.propagation import (
    decoupling_error,
    diagonalize,
    diagonalize_band_preserving,
    diagonalize_blocks,
    effective_dynamics_error,
    evolve,
)
from oracles import cutoff_projection, dense_eigenpairs, dense_product_apply, dense_product_cutoff, unitary

# one model stored real (real fibers, real frame) and one stored complex
MODELS = {"real": ("rotated_pair", (-2, 2)), "complex": ("two_band_complex", None)}


def _build(tag, window):
    grid = make_grid(-8, 8, 128)
    model = get_model(tag)
    band = band_decompose(model, grid, 0, window=window)
    H = assemble_full(model, grid, eps=0.1)
    prop = diagonalize(H, validate=True)
    return grid, model, band, H, prop


@pytest.fixture(scope="module")
def setups():
    """Both storage types: every check below runs on each."""
    return [_build(*MODELS[kind]) for kind in ("complex", "real")]


def _gaussian_state(grid, band, eps, q0=0.0, p0=0.5):
    u = (grid.x - q0) / np.sqrt(eps)
    phi = eps**-0.25 * np.pi**-0.25 * np.exp(1j * p0 * (grid.x - q0) / eps) * np.exp(-(u**2) / 2)
    phi = phi / (np.linalg.norm(phi) * np.sqrt(grid.dx))
    return MolecularWave(grid, phi[:, None] * band.chi, eps=eps)


def test_diagonalize_diagonal_input():
    grid = make_grid(0, 2 * np.pi, 8)
    from adiband.hamiltonians import DenseHamiltonian

    d = np.arange(8.0)
    H = DenseHamiltonian(np.diag(d).astype(complex), eps=0.1, tag="test", grid=grid, fiber_dim=1)
    prop = diagonalize(H, validate=True)
    w, V = dense_eigenpairs(prop)
    assert np.allclose(np.sort(w), d)
    assert np.abs(np.abs(V).max(axis=0) - 1).max() <= 1e-12


def test_reconstruction_and_real_eigenvalues(setups):
    for *_, H, prop in setups:
        w, V = dense_eigenpairs(prop)
        recon = (V * w) @ V.conj().T
        assert np.abs(recon - H.matrix).max() <= 1e-10
        assert np.isrealobj(w)


def test_evolve_t0_identity(setups):
    for grid, model, band, H, prop in setups:
        psi = _gaussian_state(grid, band, 0.1)
        out = evolve(prop, psi, 0.0)
        assert np.abs(out.values - psi.values).max() <= 1e-12


def test_evolve_eigenvector_phase(setups):
    for grid, model, band, H, prop in setups:
        k = 17
        w, V = dense_eigenpairs(prop)
        v = V[:, k]
        psi = MolecularWave(grid, v.reshape(grid.n_points, 2), eps=0.1)
        out = evolve(prop, psi, 0.7)
        expected = np.exp(-1j * w[k] * 0.7 / 0.1) * v
        assert np.abs(out.flat() - expected).max() <= 1e-10


def test_evolve_norm_and_group_law(setups):
    for grid, model, band, H, prop in setups:
        psi = _gaussian_state(grid, band, 0.1)
        n0 = norm(psi)
        for t in (0.5, 1.5, 5.0):
            assert abs(norm(evolve(prop, psi, t)) - n0) <= 1e-11
        ab = evolve(prop, evolve(prop, psi, 0.6), 0.9)
        once = evolve(prop, psi, 1.5)
        assert np.abs(ab.values - once.values).max() <= 1e-10


def test_energy_conservation(setups):
    for grid, model, band, H, prop in setups:
        psi = _gaussian_state(grid, band, 0.1)
        def energy(w):
            return np.real(np.vdot(w.flat(), H.matrix @ w.flat())) * grid.dx
        e0 = energy(psi)
        for t in (0.3, 1.1, 4.0):
            assert abs(energy(evolve(prop, psi, t)) - e0) <= 1e-10


def test_apply_block_matches_columns_and_unitary(setups):
    for grid, model, band, H, prop in setups:
        rng = np.random.default_rng(0)
        block = rng.standard_normal((prop.dim, 3)) + 1j * rng.standard_normal((prop.dim, 3))
        t = 0.7
        out = prop.apply(block, t)
        columns = np.column_stack([prop.apply(block[:, j], t) for j in range(3)])
        assert np.abs(out - columns).max() <= 1e-12
        assert np.abs(out - unitary(prop, t) @ block).max() <= 1e-12
        cutoff = float(np.median(dense_eigenpairs(prop)[0]))
        cut = prop.energy_cutoff_apply(block, cutoff)
        columns = np.column_stack([prop.energy_cutoff_apply(block[:, j], cutoff) for j in range(3)])
        assert np.abs(cut - columns).max() <= 1e-12


def test_real_storage_matches_complex_solver():
    from adiband.hamiltonians import assemble_bo

    grid, model, band, H_full, _ = _build(*MODELS["real"])
    # the full H and the Born-Oppenheimer H of the real frame (zero gauge field)
    for H in (H_full, assemble_bo(dataclasses.replace(band, delta=0.4), H_full.eps)):
        assert H.matrix.dtype == np.float64
        prop = diagonalize(H)
        # the real solver ran: real eigenvectors
        w, V = dense_eigenpairs(prop)
        assert not np.any(V.imag)
        ref = diagonalize(dataclasses.replace(H, matrix=H.matrix.astype(complex)))
        assert np.abs(w - dense_eigenpairs(ref)[0]).max() <= 1e-12
        rng = np.random.default_rng(3)
        block = rng.standard_normal((prop.dim, 4)) + 1j * rng.standard_normal((prop.dim, 4))
        block /= np.linalg.norm(block, axis=0)

        def gap(a, b):  # largest column 2-norm of the difference, unit columns in
            return np.linalg.norm(a - b, axis=0).max()

        # the two solvers' eigenvalues differ by ~1e-13 (max|H| ~ 50), a phase
        # error that grows like t/eps: 4e-12 at t = 3
        for t in (0.0, 0.3, 0.7):
            assert gap(prop.apply(block, t), ref.apply(block, t)) <= 1e-12
            assert gap(prop.apply(block[:, :1], t), ref.apply(block[:, :1], t)) <= 1e-12
            assert np.linalg.norm(unitary(prop, t) - unitary(ref, t), 2) <= 1e-12
        # a cutoff inside a spectral gap, so that no degenerate pair is split
        i = int(np.argmax(np.diff(w[: prop.dim // 2])))
        cutoff = 0.5 * (w[i] + w[i + 1])
        assert gap(prop.energy_cutoff_apply(block, cutoff), ref.energy_cutoff_apply(block, cutoff)) <= 1e-12


def test_apply_at_a_row_of_times_equals_stacked_scalar_calls(setups):
    # The batch makes the same products on the same data, but the BLAS picks its
    # kernel by the total column count: zgemm and the small dgemm path (dim 256
    # here) round T k columns differently from k.  So the match is to rounding;
    # dgemm with ten states and blocks of 256 or more is bitwise, while 128-wide
    # blocks are not (tests/test_harness.py::test_decoupling_scan_evaluates_each_eps_as_one_row).
    times = np.array([0.0, 0.3, 1.1, 4.0])
    # complex128 storage (two_band_complex), then float64 storage (rotated_pair)
    assert [dense_eigenpairs(prop)[1].dtype for *_, prop in setups] == [np.complex128, np.float64]
    for *_, prop in setups:
        rng = np.random.default_rng(7)
        block = rng.standard_normal((prop.dim, 3)) + 1j * rng.standard_normal((prop.dim, 3))
        for vec in (block, block[:, 0]):
            out = prop.apply(vec, times)
            stacked = np.stack([prop.apply(vec, t) for t in times])
            assert out.shape == stacked.shape == (len(times),) + vec.shape
            assert np.abs(out - stacked).max() <= 1e-14 * np.abs(stacked).max()
        with pytest.raises(ValueError):
            prop.apply(block, times[None, :])


def _complex_stored(prop):
    """The same eigenpairs as one dense block stored complex128."""
    w, V = dense_eigenpairs(prop)
    return dataclasses.replace(prop, blocks=((slice(None), w, V.astype(complex)),))


def test_float64_storage_equals_complex_storage():
    *_, prop = _build(*MODELS["real"])
    w, V = dense_eigenpairs(prop)
    assert V.dtype == np.float64
    # the same eigenpairs stored complex take the complex products
    ref = _complex_stored(prop)
    rng = np.random.default_rng(5)
    block = rng.standard_normal((prop.dim, 4)) + 1j * rng.standard_normal((prop.dim, 4))
    block /= np.linalg.norm(block, axis=0)
    cutoff = float(np.median(w))
    for vec in (block, block[:, 0]):
        for t in (0.0, 0.7, 3.0):
            out = prop.apply(vec, t)
            assert out.shape == vec.shape
            assert np.abs(out - ref.apply(vec, t)).max() <= 1e-13
        out = prop.energy_cutoff_apply(vec, cutoff)
        assert out.shape == vec.shape
        assert np.abs(out - ref.energy_cutoff_apply(vec, cutoff)).max() <= 1e-13
    for t in (0.7, 3.0):
        assert np.abs(unitary(prop, t) - unitary(ref, t)).max() <= 1e-13


def _per_state_error(pf, pd, psi, t, cutoff):
    """The single-state formula: one vector at a time through complex-stored eigenvectors."""
    pf, pd = _complex_stored(pf), _complex_stored(pd)
    vec = psi.flat()
    if cutoff is not None:
        vec = pf.energy_cutoff_apply(vec, cutoff)
        denom = l2_norm(vec, psi.grid.dx)
    else:
        denom = sobolev_norm(psi, 2)
    return l2_norm(pf.apply(vec, t) - pd.apply(vec, t), psi.grid.dx) / denom


def test_block_decoupling_error_matches_per_state_formula(setups):
    for grid, model, band, H, prop in setups:
        pd = diagonalize(assemble_diag(H, band))
        states = [_gaussian_state(grid, band, 0.1, q0, p0) for q0, p0 in ((-1.0, 0.3), (0.0, 0.5), (0.8, -0.4))]
        # unnormalized on purpose: each column has its own Sobolev norm
        states[1] = MolecularWave(grid, 2.5 * states[1].values, eps=0.1)
        # at the mean energy of the first state: the cutoff keeps part of every state
        v = states[0].flat()
        cutoff = float(np.real(np.vdot(v, H.matrix @ v))) * grid.dx
        times = (0.5, 2.0)
        for energy_cutoff in (None, cutoff):
            got = decoupling_error(prop, pd, states, times, energy_cutoff=energy_cutoff)
            want = np.array([[_per_state_error(prop, pd, psi, t, energy_cutoff) for psi in states] for t in times])
            assert got.shape == (len(times), len(states))
            assert np.all(want > 1e-6)
            assert np.abs(got / want - 1).max() <= 1e-12


def test_decoupling_error_over_times_equals_per_time_calls(setups):
    times = [0.5, 1.0, 2.0]
    for grid, model, band, H, prop in setups:
        pd = diagonalize(assemble_diag(H, band))
        states = [_gaussian_state(grid, band, 0.1, q0, p0) for q0, p0 in ((-1.0, 0.3), (0.8, -0.4))]
        cutoff = float(np.median(dense_eigenpairs(prop)[0]))
        for energy_cutoff in (None, cutoff):
            row = decoupling_error(prop, pd, states, times, energy_cutoff=energy_cutoff)
            # rows of one time, stacked
            per_time = np.concatenate([decoupling_error(prop, pd, states, [t], energy_cutoff=energy_cutoff)
                                       for t in times])
            assert row.shape == per_time.shape == (len(times), len(states))
            assert np.all(per_time > 1e-6)
            assert np.abs(row / per_time - 1).max() <= 1e-12
        # one call form: a scalar time or a nested row is refused, not reshaped
        for bad in (1.0, [times]):
            with pytest.raises(ValueError, match="1-D sequence"):
                decoupling_error(prop, pd, states, bad)


def test_evolve_dimension_mismatch(setups):
    for grid, model, band, H, prop in setups:
        small = make_grid(-8, 8, 64)
        psi = MolecularWave(small, np.ones((64, 2)), eps=0.1)
        with pytest.raises(ValueError):
            evolve(prop, psi, 1.0)


def test_apply_rejects_wrong_row_count(setups):
    # a length k*dim vector must not be folded into a (dim, k) block
    for grid, model, band, H, prop in setups:
        for shape in ((2 * prop.dim,), (2 * prop.dim, 3), (prop.dim // 2, 4)):
            vec = np.ones(shape, dtype=complex)
            with pytest.raises(ValueError):
                prop.apply(vec, 1.0)
            with pytest.raises(ValueError):
                prop.energy_cutoff_apply(vec, 0.0)
        # a family on a finer grid than the propagators'
        pd = diagonalize(assemble_diag(H, band))
        fine = make_grid(-8, 8, 256)
        wave = MolecularWave(fine, np.ones((256, 2)), eps=0.1)
        with pytest.raises(ValueError):
            decoupling_error(prop, pd, [wave, wave], [1.0])


def test_decoupling_error_zero_for_commuting_fixture(monkeypatch):
    # X-independent fibers: [H, P] = 0 and the two evolutions coincide
    grid = make_grid(-8, 8, 64)
    model = get_model("constant_fiber", levels=(0.0, 2.0))
    band = band_decompose(model, grid, 0)
    H = assemble_full(model, grid, eps=0.1)
    Hd = assemble_diag(H, band)
    pf, pd = diagonalize(H), diagonalize(Hd)
    psi = _gaussian_state(grid, band, 0.1)
    assert decoupling_error(pf, pd, [psi], [1.0]).max() <= 1e-10
    # the block-built pair shares both blocks of H: the error is exactly zero, of shape (T, k),
    # and no propagator applies a state; a cutoff that annihilates a state is still refused
    Hb = assemble_blocks(model, grid, eps=0.1)
    full = diagonalize_blocks(Hb)
    diag = diagonalize_band_preserving(Hb, band, full)
    assert len(diag.blocks) == 2 and all(d is f for d, f in zip(diag.blocks, full.blocks))
    monkeypatch.setattr(type(full), "apply", None)
    states = [psi, _gaussian_state(grid, band, 0.1, q0=1.0)]
    for energy_cutoff in (None, 10.0):
        err = decoupling_error(full, diag, states, [0.5, 1.0, 2.0], energy_cutoff=energy_cutoff)
        assert err.shape == (3, 2) and np.all(err == 0.0)
    with pytest.raises(ValueError, match="energy cutoff annihilated the state"):
        decoupling_error(full, diag, states, [1.0], energy_cutoff=-1.0)


def test_decoupling_error_eigenvector_input(setups):
    for grid, model, band, H, prop in setups:
        Hd = assemble_diag(H, band)
        pd = diagonalize(Hd)
        # an eigenvector of H that also lies in Ran P evolves identically under
        # both generators only if it is a common eigenvector; use the commuting
        # constant-fiber case above for the exact statement. Here: error bounded.
        psi = _gaussian_state(grid, band, 0.1)
        e = decoupling_error(prop, pd, [psi], [1.0])
        assert e.shape == (1, 1)
        assert 0 <= e[0, 0] <= 2.0


def test_decoupling_error_rejects_zero_state(setups):
    for grid, model, band, H, prop in setups:
        pd = diagonalize(assemble_diag(H, band))
        zero = MolecularWave(grid, np.zeros((grid.n_points, 2)), eps=0.1)
        psi = _gaussian_state(grid, band, 0.1)
        # a zero state among nonzero ones, with and without a cutoff
        for energy_cutoff in (None, 10.0):
            with pytest.raises(ValueError, match="zero initial state"):
                decoupling_error(prop, pd, [psi, zero], [1.0], energy_cutoff=energy_cutoff)
        # a cutoff below the whole spectrum annihilates a nonzero state
        below = float(dense_eigenpairs(prop)[0][0]) - 1.0
        with pytest.raises(ValueError, match="energy cutoff annihilated the state"):
            decoupling_error(prop, pd, [psi], [1.0], energy_cutoff=below)


@pytest.mark.parametrize("tag", ["rotated_pair", "two_band_complex"])
def test_effective_dynamics_error_equals_dense_formula(tag):
    from adiband.hamiltonians import assemble_bo, u_matrix
    from adiband.states import coherent_state, lift_to_band

    grid = make_grid(-6.4, 6.4, 128)
    model = get_model(tag)
    band = band_decompose(model, grid, 0, window=(-2, 2), delta=0.4)
    eps, times = 0.1, (0.2, 0.5)
    pf = diagonalize(assemble_full(model, grid, eps))
    pb = diagonalize(assemble_bo(band, eps))
    # launched near the window edge, so the clamped frame matters
    psi = lift_to_band(coherent_state(grid, eps, 1.2, 0.3)[0], band)
    vec = full_projection(band) @ psi.flat()
    projected = MolecularWave(grid, vec.reshape(psi.values.shape), eps=eps)
    got = effective_dynamics_error(pf, pb, band, projected, times)
    # dense oracle, one time at a time: U as a matrix
    U = u_matrix(band)
    want = []
    for t in times:
        d = pf.apply(vec, t) - U.conj().T @ pb.apply(U @ vec, t)
        want.append(np.linalg.norm(d) / np.linalg.norm(vec))
    assert got.shape == (len(times),)
    assert min(want) > 1e-4
    assert got == pytest.approx(want, rel=1e-14)


# the band-preserving split solve against the dense oracle diagonalize(assemble_diag(H, band)),
# one dense eigh of the N x N H_diag, with the indices of the blocks of H on which H_diag
# equals H and shares their solve
SPLIT_CASES = {
    # real data, P of rank 2 in a fiber of 3; P is 1 on the -X block at every point
    "crossing_trio-pair": ("crossing_trio", (0, 1), None, None, np.float64, (1,)),
    # P is 1 inside the window and 0 outside, on every block: nothing is shared
    "crossing_trio-windowed": ("crossing_trio", (0, 1), (-2, 2), None, np.float64, ()),
    # P = diag(1, 0) at every point: H_diag = H on both blocks
    "constant_fiber": ("constant_fiber", (0,), None, "component", np.float64, (0, 1)),
    # complex fibers, so complex frames
    "two_band_complex": ("two_band_complex", (0,), None, "component", np.complex128, ()),
    # P vanishes outside the window: the fiber rank is 1 inside and 0 outside
    "rotated_pair-windowed": ("rotated_pair", (0,), (-2, 2), "component", np.float64, ()),
}


def _split_setup(tag, bands, window, gauge):
    grid = make_grid(-8, 8, 128)
    model = get_model(tag)
    band = band_decompose(model, grid, bands, window=window, gauge=gauge)
    H = assemble_blocks(model, grid, eps=0.1)
    return grid, band, H, diagonalize_blocks(H)


def _fibers(band, comp):
    """The (n, d, d) fiber blocks of P on the fiber indices comp, read from the dense P."""
    n, m = band.grid.n_points, band.fiber_dim
    P = full_projection(band).reshape(n, m, n, m)
    return P[np.arange(n), :, np.arange(n), :][:, comp[:, None], comp]


def _ran_p(band, comp, W):
    """Which frame columns of W span ran P: the diagonal of W_i^dag P_i W_i on the block's fibers."""
    return (np.einsum("iac,iab,ibc->ic", W.conj(), _fibers(band, comp), W).real > 0.5).ravel()


@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_band_preserving_split_matches_dense_oracle(case):
    tag, bands, window, gauge, dtype, shared = SPLIT_CASES[case]
    grid, band, H, full = _split_setup(tag, bands, window, gauge)
    got = diagonalize_band_preserving(H, band, full)
    dense = assemble_full(band.model, grid, eps=0.1)
    want = diagonalize(assemble_diag(dense, band))
    assert [rows for rows, *_ in want.blocks] == [slice(None)]
    assert 0 < band.mask.sum() < grid.n_points if window else band.mask.all()
    # one entry per block of H: None where H_diag equals H, else the block's frame of P and
    # its ran P part, then its ran Q part, which together cover the block's rows once
    entries = split_band_preserving(H, band)
    assert len(entries) == len(H.blocks)
    assert tuple(k for k, entry in enumerate(entries) if entry is None) == shared
    rank = sum(block.dim for k, (comp, block) in enumerate(H.blocks) if k in shared and _fibers(band, comp).any())
    for (comp, block), entry in zip(H.blocks, entries):
        if entry is None:
            continue
        W, parts = entry
        d = len(comp)
        assert W.shape == (grid.n_points, d, d)
        assert np.abs(W.conj().transpose(0, 2, 1) @ W - np.eye(d)).max() <= 1e-12
        in_p = _ran_p(band, comp, W)
        assert 0 < in_p.sum() < len(in_p) == block.dim
        assert len(parts) == 2
        for (idx, G), want_idx in zip(parts, (np.flatnonzero(in_p), np.flatnonzero(~in_p))):
            assert np.array_equal(idx, want_idx) and G.dim == len(idx) and G.fiber_dim == d
        rank += int(in_p.sum())
    # ran P has the fiber rank summed over the grid: len(bands) in the window, 0 outside
    assert rank == len(bands) * int(band.mask.sum())

    assert got.dim == H.dim and got.tag == "diag"
    # eigenvalues ascend within each part: a split block lists its ran P part's, then its ran Q part's
    for (_, w, _), entry in zip(got.blocks, entries):
        sizes = [len(w)] if entry is None else [G.dim for _, G in entry[1]]
        assert all(np.all(np.diff(part) >= 0) for part in np.split(w, np.cumsum(sizes)[:-1]))
    (got_w, got_V), (want_w, want_V) = dense_eigenpairs(got), dense_eigenpairs(want)
    gap = np.abs(got_w - want_w).max()
    assert gap <= 1e-12 * np.abs(dense.matrix).max()
    assert got_V.dtype == want_V.dtype == dtype

    rng = np.random.default_rng(3)
    block = rng.standard_normal((H.dim, 4)) + 1j * rng.standard_normal((H.dim, 4))
    # a cutoff in the widest gap of the lower half, away from every eigenvalue
    w = want_w[: H.dim // 2]
    i = int(np.argmax(np.diff(w)))
    cutoff = 0.5 * (w[i] + w[i + 1])
    for vec in (block[:, 0], block):
        # the two sides are independent eigensolves: the phase e^{-i w t/eps} turns
        # their eigenvalue gap into a phase error of gap t/eps, on top of the floor
        for t in (0.7, 3.0):
            a, b = got.apply(vec, t), want.apply(vec, t)
            assert a.shape == vec.shape
            assert np.abs(a - b).max() <= (1e-12 + gap * t / H.eps) * np.abs(b).max()
        a, b = got.energy_cutoff_apply(vec, cutoff), want.energy_cutoff_apply(vec, cutoff)
        assert a.shape == vec.shape
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
    if len(shared) == len(H.blocks):
        # H_diag = H: the two propagators are one, so the decoupling error is exactly zero
        waves = [MolecularWave(grid, block[:, j].reshape(grid.n_points, -1), eps=0.1) for j in range(4)]
        assert np.all(decoupling_error(full, got, waves, [0.7, 3.0]) == 0.0)


@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_full_and_band_preserving_propagators_share_the_blocks_of_h(case):
    # one triple per block of H, in H's order, on the full propagator's rows at the same
    # index; the rows of each propagator cover every row exactly once, and a shared block
    # is the full triple itself
    tag, bands, window, gauge, _, shared = SPLIT_CASES[case]
    grid, band, H, full = _split_setup(tag, bands, window, gauge)
    diag = diagonalize_band_preserving(H, band, full)
    every = np.arange(H.dim)
    assert len(full.blocks) == len(diag.blocks) == len(H.blocks)
    for prop in (full, diag):
        assert np.array_equal(np.sort(np.concatenate([every[rows] for rows, *_ in prop.blocks])), every)
    for k, ((comp, _), f, d) in enumerate(zip(H.blocks, full.blocks, diag.blocks)):
        assert np.array_equal(every[f[0]], H.rows(comp))
        assert np.array_equal(every[d[0]], every[f[0]]) and type(d[0]) is type(f[0])
        assert len(d[1]) == len(f[1]) and f[2].shape == (len(f[1]),) * 2
        assert (d is f) == (k in shared)
        if d is not f:
            # the frame form: the block's frame of P, and each part's square eigenvectors on its
            # frame indices, ran P then ran Q, which cover the block's frame basis once
            W, parts = d[2]
            assert W.shape == (grid.n_points, len(comp), len(comp))
            assert [V.shape for _, _, V in parts] == [(len(idx),) * 2 for idx, _, _ in parts]
            assert np.array_equal(np.sort(np.concatenate([idx for idx, _, _ in parts])), np.arange(len(d[1])))
            assert np.array_equal(np.concatenate([w for _, w, _ in parts]), d[1])


@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_block_pair_decoupling_error_matches_per_state_formula(case):
    # the block-built pair, shared triples dropped and split blocks applied in P's frame, against
    # one state at a time through the dense scattered eigenpairs of both propagators
    tag, bands, window, gauge, _, shared = SPLIT_CASES[case]
    grid, band, H, full = _split_setup(tag, bands, window, gauge)
    diag = diagonalize_band_preserving(H, band, full)
    rng = np.random.default_rng(5)
    states = [MolecularWave(grid, rng.standard_normal((grid.n_points, band.fiber_dim))
                            + 1j * rng.standard_normal((grid.n_points, band.fiber_dim)), eps=0.1) for _ in range(3)]
    times = (0.5, 0.7, 3.0)
    cutoff = float(np.median(dense_eigenpairs(full)[0]))
    for energy_cutoff in (None, cutoff):
        got = decoupling_error(full, diag, states, times, energy_cutoff=energy_cutoff)
        want = np.array([[_per_state_error(full, diag, psi, t, energy_cutoff) for psi in states] for t in times])
        assert got.shape == (len(times), len(states))
        # H_diag = H on every block of constant_fiber: both sides are exactly zero there
        assert np.all(want > 1e-5) != (len(shared) == len(H.blocks))
        assert np.all(np.abs(got - want) <= 1e-12 * want)


def test_decoupling_error_makes_no_product_on_shared_triples(monkeypatch):
    # crossing_trio's pair shares its -X block: without a cutoff no eigenvector of that triple
    # enters an analysis or a synthesis product; with one, its rows enter only the denominator,
    # as the norm of the kept coefficients: one analysis product reads it, and no synthesis
    from adiband import propagation

    grid, band, H, full = _split_setup("crossing_trio", (0, 1), None, None)
    diag = diagonalize_band_preserving(H, band, full)
    shared = [f for f, d in zip(full.blocks, diag.blocks) if f is d]
    assert len(shared) == 1
    products = []
    for name in ("_coefficients", "_synthesize"):
        def counted(V, block, _product=getattr(propagation, name)):
            products.append(V)
            return _product(V, block)
        monkeypatch.setattr(propagation, name, counted)
    rng = np.random.default_rng(4)
    states = [MolecularWave(grid, rng.standard_normal((grid.n_points, 3)) + 0j, eps=0.1) for _ in range(2)]
    for energy_cutoff, reads in ((None, 0), (float(np.median(shared[0][1])), 1)):
        products.clear()
        decoupling_error(full, diag, states, [0.5, 1.0], energy_cutoff=energy_cutoff)
        assert sum(V is shared[0][2] for V in products) == reads
        # the full propagator's 2n block, and the ran P and ran Q parts of H_diag's; with the
        # cutoff, the projection of the 2n block and the analysis of the shared block
        assert len(products) == 2 * 3 + 3 * (energy_cutoff is not None)


@pytest.fixture(scope="module")
def trio_diag():
    """crossing_trio's band-preserving propagator at n = 64: a split block in P's frame and a shared one."""
    grid = make_grid(-8, 8, 64)
    band = band_decompose(get_model("crossing_trio"), grid, (0, 1))
    H = assemble_blocks(band.model, grid, eps=0.1)
    diag = diagonalize_band_preserving(H, band, diagonalize_blocks(H))
    assert [isinstance(V, tuple) for *_, V in diag.blocks] == [True, False]
    return diag


@settings(max_examples=40, deadline=None)
@given(s=st.floats(0.0, 3.0), t=st.floats(0.0, 3.0), seed=st.integers(0, 2**32 - 1))
def test_band_preserving_propagator_is_a_unitary_group(trio_diag, s, t, seed):
    # the norm is kept, and U(s) U(t) v = U(s + t) v, for random times and a random complex v
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(trio_diag.dim) + 1j * rng.standard_normal(trio_diag.dim)
    ut = trio_diag.apply(v, t)
    assert abs(np.linalg.norm(ut) / np.linalg.norm(v) - 1) <= 1e-12
    assert np.abs(trio_diag.apply(ut, s) - trio_diag.apply(v, s + t)).max() <= 1e-11 * np.abs(v).max()


def test_band_preserving_split_refuses_a_p_that_couples_blocks():
    # a P that mixes constant_fiber's two levels couples the two blocks of H: it is not a
    # spectral projection of H_e, which leaves the two levels exactly decoupled
    grid = make_grid(-8, 8, 64)
    band = band_decompose(get_model("constant_fiber"), grid, 0)
    v = np.array([np.cos(0.4), np.sin(0.4)])
    mixed = dataclasses.replace(band, proj=np.tile(np.outer(v, v), (grid.n_points, 1, 1)).astype(complex))
    H = assemble_blocks(band.model, grid, eps=0.1)
    assert len(H.blocks) == 2
    with pytest.raises(ValueError, match="couple two blocks of H"):
        split_band_preserving(H, mixed)
    with pytest.raises(ValueError, match="couple two blocks of H"):
        diagonalize_band_preserving(H, mixed, diagonalize_blocks(H))


def test_band_preserving_split_refuses_non_projections():
    # 0.9 P has eigenvalues 0 and 0.9.  The oblique [[1, 0.3], [0, 0]] is idempotent, and the
    # lower triangle that eigh reads has eigenvalues 0 and 1, but it is not Hermitian
    grid, band, H, full = _split_setup("rotated_pair", (0,), (-2, 2), "component")
    oblique = np.array([[1.0, 0.3], [0.0, 0.0]])
    assert np.array_equal(oblique @ oblique, oblique)
    assert np.array_equal(np.linalg.eigvalsh(oblique), [0.0, 1.0])
    for proj in (0.9 * band.proj, np.tile(oblique, (grid.n_points, 1, 1)).astype(complex)):
        with pytest.raises(ValueError, match="not orthogonal projections"):
            diagonalize_band_preserving(H, dataclasses.replace(band, proj=proj), full)


def test_band_preserving_solve_refuses_another_full_propagator():
    # another eps: the same blocks, with other eigenpairs
    grid, band, H, full = _split_setup("crossing_trio", (0, 1), None, None)
    with pytest.raises(ValueError, match="block-by-block propagator of H"):
        diagonalize_band_preserving(H, band, diagonalize_blocks(assemble_blocks(band.model, grid, eps=0.2)))
    # the same grid, eps and blocks, but levels (1, 7) for the H of levels (1, 2): both blocks are
    # shared, and the second one's eigenvalues sum to 5 n more than the trace of H's block
    grid, band, H, full = _split_setup("constant_fiber", (0,), None, "component")
    other = diagonalize_blocks(assemble_blocks(get_model("constant_fiber", levels=(1.0, 7.0)), grid, eps=0.1))
    assert (other.dim, len(other.blocks), other.eps) == (full.dim, len(full.blocks), full.eps)
    with pytest.raises(ValueError, match="block-by-block propagator of H"):
        diagonalize_band_preserving(H, band, other)


def test_single_block_operators_take_the_dense_solver_unchanged():
    # the full H and the BO H of rotated_pair (real) and two_band_complex (complex) are one
    # block each: diagonalize is np.linalg.eigh itself, and every apply is the dense products
    grid = make_grid(-8, 8, 128)
    bands = [band_decompose(get_model(tag), grid, 0, window=window) for tag, window in MODELS.values()]
    rng = np.random.default_rng(2)
    block = rng.standard_normal((2 * grid.n_points, 3)) + 1j * rng.standard_normal((2 * grid.n_points, 3))
    operators = [H for band in bands for H in (assemble_full(band.model, grid, eps=0.1), assemble_bo(band, 0.1))]
    assert [H.matrix.dtype for H in operators] == [np.float64, np.float64, np.complex128, np.complex128]
    for H in operators:
        w, v = np.linalg.eigh(H.matrix)
        prop = diagonalize(H)
        ((rows, got_w, got_v),) = prop.blocks
        assert rows == slice(None)
        assert np.array_equal(got_w, w) and np.array_equal(got_v, v)
        cutoff = float(np.median(w))
        for vec in (block[: H.dim, 0], block[: H.dim]):
            for t in (0.7, np.array([0.0, 0.7, 3.0])):
                assert np.array_equal(prop.apply(vec, t), dense_product_apply(w, v, H.eps, vec, t))
            assert np.array_equal(prop.energy_cutoff_apply(vec, cutoff), dense_product_cutoff(w, v, vec, cutoff))


def test_block_apply_matches_the_dense_oracle():
    # crossing_trio's full H (blocks 2n, n) and H_diag (the {0, 2} block in P's frame as its ran P
    # and ran Q parts of n, and the shared -X block) against their dense eigenpairs, in which the
    # oracle lifts the frame form itself
    grid, band, H, full = _split_setup("crossing_trio", (0, 1), None, None)
    rng = np.random.default_rng(9)
    block = rng.standard_normal((H.dim, 3)) + 1j * rng.standard_normal((H.dim, 3))
    times = np.array([0.0, 0.7, 3.0])
    for prop in (full, diagonalize_band_preserving(H, band, full)):
        assert len(prop.blocks) > 1 and prop.dim == H.dim
        cutoff = float(np.median(dense_eigenpairs(prop)[0]))
        projection = cutoff_projection(prop, cutoff)
        for vec in (block[:, 0], block):
            pairs = [(prop.apply(vec, 0.7), unitary(prop, 0.7) @ vec),
                     (prop.apply(vec, times), np.stack([unitary(prop, t) @ vec for t in times])),
                     (prop.energy_cutoff_apply(vec, cutoff), projection @ vec)]
            for got, want in pairs:
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_crossing_trio_pair_stores_only_its_blocks():
    # eigenvectors are kept on their blocks' rows: 5 n^2 entries for the full H instead of 9 n^2.
    # H_diag keeps its split 2n block in P's frame, as ran P and ran Q eigenvectors of n each and
    # the (n, 2, 2) frame: 2 n^2 + 4 n entries instead of the 4 n^2 of its lifted eigenvectors,
    # and its shared n block is the full propagator's triple, stored once
    n = 128
    grid, band, H, full = _split_setup("crossing_trio", (0, 1), None, None)
    diag = diagonalize_band_preserving(H, band, full)
    assert [(len(rows), len(w)) for rows, w, _ in full.blocks] == [(2 * n, 2 * n), (n, n)]
    assert all(V.dtype == np.float64 for *_, V in full.blocks)
    assert sum(V.nbytes for *_, V in full.blocks) == 8 * 5 * n * n
    (_, _, (W, parts)), shared = diag.blocks
    assert shared is full.blocks[1]
    arrays = [W] + [V for *_, V in parts]
    assert all(a.dtype == np.float64 for a in arrays)
    assert sum(a.nbytes for a in arrays) == 8 * (2 * n * n + 4 * n)


def test_validate_checks_each_block(monkeypatch):
    # diagonalize solves what it is given as one block: the dense H of crossing_trio, whose
    # entries form blocks of 2n and n, and each ran P / ran Q part of H_diag's split block
    grid, band, H, full = _split_setup("crossing_trio", (0, 1), None, None)
    dense = assemble_full(band.model, grid, eps=0.1)
    parts = [G for entry in split_band_preserving(H, band) if entry is not None for _, G in entry[1]]
    for op in [dense] + parts:
        ((rows, w, _),) = diagonalize(op, validate=True).blocks
        assert rows == slice(None) and len(w) == op.dim
    real_eigh = np.linalg.eigh

    def moved(M):
        # the solve comes back with one eigenvalue off by 1e-6
        w, v = real_eigh(M)
        return w + 1e-6 * (np.arange(len(w)) == 0), v

    monkeypatch.setattr(np.linalg, "eigh", moved)
    for op in (dense, parts[1]):
        with pytest.raises(AssertionError, match="reconstruction error"):
            diagonalize(op, validate=True)


def test_crossing_trio_operators_are_solved_by_blocks(monkeypatch):
    # the -X level couples to nothing: H is assembled and solved as blocks of 2n and n, and
    # H_diag of bands (0, 1) solves only the {0, 2} block again, as ran P and ran Q of n each
    n = 128
    grid, band, H, _ = _split_setup("crossing_trio", (0, 1), None, None)
    assert [(list(comp), block.dim) for comp, block in H.blocks] == [([0, 2], 2 * n), ([1], n)]
    sizes, real_eigh = [], np.linalg.eigh

    def eigh(M):
        if M.ndim == 2:
            sizes.append(len(M))
        return real_eigh(M)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    prop = diagonalize_blocks(H)
    assert sizes == [2 * n, n]
    sizes.clear()
    prop_diag = diagonalize_band_preserving(H, band, prop)
    assert sizes == [n, n]
    # P is 1 on the -X level at every point: H_diag holds H's triple of that block, solved once
    minus_x = prop.blocks[1]
    assert np.array_equal(minus_x[0], 3 * np.arange(n) + 1)
    assert [b is minus_x for b in prop_diag.blocks] == [False, True]
    monkeypatch.undo()
    # the oracles: the dense solve of H and of the dense H_diag
    dense = assemble_full(band.model, grid, eps=0.1)
    scale = np.abs(dense.matrix).max()
    assert np.abs(dense_eigenpairs(prop)[0] - np.linalg.eigh(dense.matrix)[0]).max() <= 1e-12 * scale
    want = dense_eigenpairs(diagonalize(assemble_diag(dense, band)))[0]
    assert np.abs(dense_eigenpairs(prop_diag)[0] - want).max() <= 1e-12 * scale
