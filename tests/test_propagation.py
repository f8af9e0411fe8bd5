import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiband.electronic import band_decompose
from adiband.grids import MolecularWave, make_grid, norm
from adiband.hamiltonians import (
    _band_fibers,
    _split_block,
    assemble_bo,
    assemble_diag,
    assemble_full,
    full_projection,
    molecular_operator,
)
from adiband.models import get_model
from adiband.propagation import (
    decoupling_error,
    diagonalize,
    diagonalize_pair,
    effective_dynamics_error,
    evolve,
)
from oracles import (
    cutoff_projection,
    dense_decoupling_error,
    dense_product_apply,
    diagonalize_blocks,
    split_eigenbases,
    unitary,
)

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


@pytest.fixture(scope="module")
def pairs(setups):
    """The decoupling pair of each setup's H and band at eps = 0.1."""
    return [diagonalize_pair(molecular_operator(model, grid), band, 0.1) for grid, model, band, *_ in setups]


def _gaussian_state(grid, band, eps, q0=0.0, p0=0.5):
    u = (grid.x - q0) / np.sqrt(eps)
    phi = eps**-0.25 * np.pi**-0.25 * np.exp(1j * p0 * (grid.x - q0) / eps) * np.exp(-(u**2) / 2)
    phi = phi / (np.linalg.norm(phi) * np.sqrt(grid.dx))
    return MolecularWave(grid, phi[:, None] * band.chi, eps=eps)


def _random_states(grid, m, count, seed, eps=0.1):
    rng = np.random.default_rng(seed)
    return [MolecularWave(grid, rng.standard_normal((grid.n_points, m)) + 1j * rng.standard_normal((grid.n_points, m)),
                          eps=eps) for _ in range(count)]


def _random_packets(grid, m, count, seed, eps=0.1):
    """Gaussian packets of width sqrt(eps) with random centers in [-2, 2], momenta in [-1, 1] and fiber parts."""
    rng = np.random.default_rng(seed)
    packets = []
    for _ in range(count):
        q0, p0 = rng.uniform(-2, 2), rng.uniform(-1, 1)
        phi = np.exp(-((grid.x - q0) ** 2) / (2 * eps) + 1j * p0 * grid.x / eps)
        packets.append(MolecularWave(grid, phi[:, None] * (rng.standard_normal(m) + 1j * rng.standard_normal(m)),
                                     eps=eps))
    return packets


def _gap_cutoff(w):
    """A cutoff in the widest gap of the lower half of the eigenvalues w, away from every one of them."""
    w = np.sort(w)[: len(w) // 2]
    i = int(np.argmax(np.diff(w)))
    return 0.5 * (w[i] + w[i + 1])


def _energy_cutoff(H, states):
    """A cutoff at the states' mean energy under the dense H, moved to the middle of the spectral gap it lies in."""
    vecs = np.column_stack([psi.flat() for psi in states])
    energy = np.mean(np.real(np.sum(vecs.conj() * (H.matrix @ vecs), axis=0)) / np.sum(np.abs(vecs) ** 2, axis=0))
    w = np.linalg.eigvalsh(H.matrix)
    i = int(np.searchsorted(w, energy))
    return 0.5 * (w[i - 1] + w[i])


def test_diagonalize_diagonal_input():
    grid = make_grid(0, 2 * np.pi, 8)
    from adiband.hamiltonians import DenseHamiltonian

    d = np.arange(8.0)
    H = DenseHamiltonian(np.diag(d).astype(complex), eps=0.1, tag="test", grid=grid, fiber_dim=1)
    prop = diagonalize(H, validate=True)
    w, V = prop.w, prop.V
    assert np.allclose(np.sort(w), d)
    assert np.abs(np.abs(V).max(axis=0) - 1).max() <= 1e-12


def test_reconstruction_and_real_eigenvalues(setups):
    for *_, H, prop in setups:
        w, V = prop.w, prop.V
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
        w, V = prop.w, prop.V
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


def test_apply_block_matches_columns_and_unitary(setups, pairs):
    for (grid, model, band, H, prop), pair in zip(setups, pairs):
        rng = np.random.default_rng(0)
        block = rng.standard_normal((prop.dim, 3)) + 1j * rng.standard_normal((prop.dim, 3))
        t = 0.7
        out = prop.apply(block, t)
        columns = np.column_stack([prop.apply(block[:, j], t) for j in range(3)])
        assert np.abs(out - columns).max() <= 1e-12
        assert np.abs(out - unitary(prop, t) @ block).max() <= 1e-12
        # the pair's energy cutoff projects a family of states as it projects each state alone
        cutoff = float(np.median(prop.w))
        states = [MolecularWave(grid, block[:, j].reshape(grid.n_points, -1), eps=0.1) for j in range(3)]
        cut = decoupling_error(pair, states, [t], energy_cutoff=cutoff)
        columns = np.column_stack([decoupling_error(pair, [psi], [t], energy_cutoff=cutoff) for psi in states])
        assert np.abs(cut / columns - 1).max() <= 1e-12


def test_real_storage_matches_complex_solver():
    grid, model, band, H_full, _ = _build(*MODELS["real"])
    # the full H and the Born-Oppenheimer H of the real frame (zero gauge field)
    for H in (H_full, assemble_bo(dataclasses.replace(band, delta=0.4), H_full.eps)):
        assert H.matrix.dtype == np.float64
        prop = diagonalize(H)
        # the real solver ran: real eigenvectors
        w, V = prop.w, prop.V
        assert not np.any(V.imag)
        ref = diagonalize(dataclasses.replace(H, matrix=H.matrix.astype(complex)))
        assert np.abs(w - ref.w).max() <= 1e-12
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
    # the decoupling pair of the real H, and of the same H stored complex: the complex solver
    # runs on every block and part, and the errors agree, with a cutoff inside a spectral gap
    operator = molecular_operator(model, grid)
    real, cplx = (diagonalize_pair(op, band, 0.1)
                  for op in (operator, dataclasses.replace(operator, fibers=operator.fibers.astype(complex))))
    assert {M.dtype for *_, M in real.split} == {np.dtype(np.float64)}
    assert {M.dtype for *_, M in cplx.split} == {np.dtype(np.complex128)}
    states = _random_states(grid, 2, 4, seed=3)
    cutoff = _gap_cutoff(real.split[0][4])
    for energy_cutoff in (None, cutoff):
        # each error is a norm relative to its state's: a gap of 1e-12 between unit states, as above
        a, b = (decoupling_error(p, states, [0.0, 0.3, 0.7], energy_cutoff=energy_cutoff) for p in (real, cplx))
        assert np.all(b[1:] > 0) and np.abs(a - b).max() <= 1e-12


def test_apply_at_a_row_of_times_equals_stacked_scalar_calls(setups):
    # The batch makes the same products on the same data, but the BLAS picks its
    # kernel by the total column count: zgemm and the small dgemm path (dim 256
    # here) round T k columns differently from k.  So the match is to rounding;
    # dgemm with ten states and blocks of 256 or more is bitwise, while 128-wide
    # blocks are not (tests/test_harness.py::test_decoupling_scan_evaluates_each_eps_as_one_row).
    times = np.array([0.0, 0.3, 1.1, 4.0])
    # complex128 storage (two_band_complex), then float64 storage (rotated_pair)
    assert [prop.V.dtype for *_, prop in setups] == [np.complex128, np.float64]
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
    """The same eigenpairs stored complex128."""
    return dataclasses.replace(prop, V=prop.V.astype(complex))


def _complex_stored_pair(pair):
    """The same pair with its frames, eigenvectors and M stored complex128."""
    split = tuple((rows, W.astype(complex), tuple((idx, V.astype(complex)) for idx, V in parts), w_d, w_f,
                   M.astype(complex)) for rows, W, parts, w_d, w_f, M in pair.split)
    return dataclasses.replace(pair, split=split)


def test_float64_storage_equals_complex_storage(pairs):
    *_, prop = _build(*MODELS["real"])
    w, V = prop.w, prop.V
    assert V.dtype == np.float64
    # the same eigenpairs stored complex take the complex products
    ref = _complex_stored(prop)
    rng = np.random.default_rng(5)
    block = rng.standard_normal((prop.dim, 4)) + 1j * rng.standard_normal((prop.dim, 4))
    block /= np.linalg.norm(block, axis=0)
    for vec in (block, block[:, 0]):
        for t in (0.0, 0.7, 3.0):
            out = prop.apply(vec, t)
            assert out.shape == vec.shape
            assert np.abs(out - ref.apply(vec, t)).max() <= 1e-13
    for t in (0.7, 3.0):
        assert np.abs(unitary(prop, t) - unitary(ref, t)).max() <= 1e-13
    # the real pair and the same pair stored complex give the same errors, with and without a cutoff
    pair = pairs[1]
    assert all(a.dtype == np.float64 for _, W, parts, _, _, M in pair.split for a in (W, M, *(V for _, V in parts)))
    grid = pair.operator.grid
    states = [MolecularWave(grid, block[:, j].reshape(grid.n_points, -1), eps=0.1) for j in range(4)]
    for energy_cutoff in (None, float(np.median(w))):
        a = decoupling_error(pair, states, [0.0, 0.7, 3.0], energy_cutoff=energy_cutoff)
        b = decoupling_error(_complex_stored_pair(pair), states, [0.0, 0.7, 3.0], energy_cutoff=energy_cutoff)
        assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()


def test_block_decoupling_error_matches_per_state_formula(setups, pairs):
    for (grid, model, band, H, prop), pair in zip(setups, pairs):
        states = [_gaussian_state(grid, band, 0.1, q0, p0) for q0, p0 in ((-1.0, 0.3), (0.0, 0.5), (0.8, -0.4))]
        # unnormalized on purpose: each column has its own Sobolev norm
        states[1] = MolecularWave(grid, 2.5 * states[1].values, eps=0.1)
        # at the mean energy of the first state: the cutoff keeps part of every state
        v = states[0].flat()
        cutoff = float(np.real(np.vdot(v, H.matrix @ v))) * grid.dx
        times = (0.5, 2.0)
        for energy_cutoff in (None, cutoff):
            got = decoupling_error(pair, states, times, energy_cutoff=energy_cutoff)
            # the family as one block, against one state at a time through the same pair
            alone = np.column_stack([decoupling_error(pair, [psi], times, energy_cutoff=energy_cutoff)
                                     for psi in states])
            want = dense_decoupling_error(band, 0.1, states, times, energy_cutoff)
            assert got.shape == want.shape == (len(times), len(states))
            assert np.all(want > 1e-6)
            assert np.abs(got / alone - 1).max() <= 1e-12
            assert np.abs(got / want - 1).max() <= 1e-10


def test_decoupling_error_over_times_equals_per_time_calls(pairs):
    times = [0.5, 1.0, 2.0]
    for pair in pairs:
        grid = pair.operator.grid
        states = _random_states(grid, 2, 2, seed=11)
        cutoff = float(np.median(np.concatenate([w_f for *_, w_f, _ in pair.split])))
        for energy_cutoff in (None, cutoff):
            row = decoupling_error(pair, states, times, energy_cutoff=energy_cutoff)
            # rows of one time, stacked
            per_time = np.concatenate([decoupling_error(pair, states, [t], energy_cutoff=energy_cutoff)
                                       for t in times])
            assert row.shape == per_time.shape == (len(times), len(states))
            assert np.all(per_time > 1e-6)
            assert np.abs(row / per_time - 1).max() <= 1e-12
        # one call form: a scalar time or a nested row is refused, not reshaped
        for bad in (1.0, [times]):
            with pytest.raises(ValueError, match="1-D sequence"):
                decoupling_error(pair, states, bad)


def test_evolve_dimension_mismatch(setups):
    for grid, model, band, H, prop in setups:
        small = make_grid(-8, 8, 64)
        psi = MolecularWave(small, np.ones((64, 2)), eps=0.1)
        with pytest.raises(ValueError):
            evolve(prop, psi, 1.0)


def test_apply_rejects_wrong_row_count(setups, pairs):
    # a length k*dim vector must not be folded into a (dim, k) block
    for (grid, model, band, H, prop), pair in zip(setups, pairs):
        for shape in ((2 * prop.dim,), (2 * prop.dim, 3), (prop.dim // 2, 4)):
            vec = np.ones(shape, dtype=complex)
            with pytest.raises(ValueError):
                prop.apply(vec, 1.0)
        # a family on a finer grid than the pair's, with and without a cutoff
        fine = make_grid(-8, 8, 256)
        wave = MolecularWave(fine, np.ones((256, 2)), eps=0.1)
        for energy_cutoff in (None, 0.0):
            with pytest.raises(ValueError, match="dimension mismatch"):
                decoupling_error(pair, [wave, wave], [1.0], energy_cutoff=energy_cutoff)


def test_decoupling_error_zero_for_commuting_fixture(monkeypatch):
    # X-independent fibers: [H, P] = 0 and the two evolutions coincide
    grid = make_grid(-8, 8, 64)
    model = get_model("constant_fiber", levels=(0.0, 2.0))
    band = band_decompose(model, grid, 0)
    psi = _gaussian_state(grid, band, 0.1)
    assert dense_decoupling_error(band, 0.1, [psi], [1.0]).max() <= 1e-10
    # the pair shares both blocks of H: the error is exactly zero, of shape (T, k), and no
    # propagator applies a state; a cutoff that annihilates a state is still refused
    pair = diagonalize_pair(molecular_operator(model, grid), band, 0.1)
    assert pair.split == () and pair.shared == (0, 1)
    from adiband.propagation import SpectralPropagator

    monkeypatch.setattr(SpectralPropagator, "apply", None)
    states = [psi, _gaussian_state(grid, band, 0.1, q0=1.0)]
    for energy_cutoff in (None, 10.0):
        err = decoupling_error(pair, states, [0.5, 1.0, 2.0], energy_cutoff=energy_cutoff)
        assert err.shape == (3, 2) and np.all(err == 0.0)
    with pytest.raises(ValueError, match="energy cutoff annihilated the state"):
        decoupling_error(pair, states, [1.0], energy_cutoff=-1.0)


def test_decoupling_error_eigenvector_input(pairs, setups):
    for (grid, model, band, H, prop), pair in zip(setups, pairs):
        # an eigenvector of H that also lies in Ran P evolves identically under
        # both generators only if it is a common eigenvector; use the commuting
        # constant-fiber case above for the exact statement. Here: error bounded.
        psi = _gaussian_state(grid, band, 0.1)
        e = decoupling_error(pair, [psi], [1.0])
        assert e.shape == (1, 1)
        assert 0 <= e[0, 0] <= 2.0


def test_decoupling_error_rejects_zero_state(setups, pairs):
    for (grid, model, band, H, prop), pair in zip(setups, pairs):
        zero = MolecularWave(grid, np.zeros((grid.n_points, 2)), eps=0.1)
        psi = _gaussian_state(grid, band, 0.1)
        # a zero state among nonzero ones, with and without a cutoff
        for energy_cutoff in (None, 10.0):
            with pytest.raises(ValueError, match="zero initial state"):
                decoupling_error(pair, [psi, zero], [1.0], energy_cutoff=energy_cutoff)
        # a cutoff below the whole spectrum annihilates a nonzero state
        below = float(prop.w[0]) - 1.0
        with pytest.raises(ValueError, match="energy cutoff annihilated the state"):
            decoupling_error(pair, [psi], [1.0], energy_cutoff=below)


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


# the decoupling pair against the dense oracles diagonalize(assemble_full(...)) and
# diagonalize(assemble_diag(H, band)), one dense eigh of the N x N H and of H_diag each, with
# the indices of the blocks of H on which H_diag equals H, which the pair shares and does not solve
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


def _split_setup(tag, bands, window, gauge, n=128):
    grid = make_grid(-8, 8, n)
    model = get_model(tag)
    band = band_decompose(model, grid, bands, window=window, gauge=gauge)
    op = molecular_operator(model, grid)
    return grid, band, op, diagonalize_blocks(op, 0.1)


def _case_pair(case, n=128, eps=0.1):
    """(grid, band, pair) of a SPLIT_CASES entry at n points and eps."""
    tag, bands, window, gauge, *_ = SPLIT_CASES[case]
    grid = make_grid(-8, 8, n)
    model = get_model(tag)
    band = band_decompose(model, grid, bands, window=window, gauge=gauge)
    return grid, band, diagonalize_pair(molecular_operator(model, grid), band, eps)


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
    grid, band, op, full = _split_setup(tag, bands, window, gauge)
    got = diagonalize_pair(op, band, 0.1)
    dense = assemble_full(band.model, grid, eps=0.1)
    dense_diag = assemble_diag(dense, band)
    want = diagonalize(dense_diag)
    assert want.w.shape == (op.dim,) and want.V.shape == (op.dim, op.dim)
    assert 0 < band.mask.sum() < grid.n_points if window else band.mask.all()
    # P's fiber blocks on each component of H: None where H_diag equals H; every other block splits
    # into the block's frame of P and its ran P part, then its ran Q part, which together cover
    # the block's rows once
    fibers = _band_fibers(op, band)
    assert len(fibers) == len(op.components)
    assert tuple(k for k, P in enumerate(fibers) if P is None) == shared == got.shared
    rank = sum(len(op.rows(comp)) for k, comp in enumerate(op.components) if k in shared and _fibers(band, comp).any())
    entries = []
    for comp, P in zip(op.components, fibers):
        if P is None:
            continue
        block = op.block(0.1, comp)
        W, parts = _split_block(block, P)
        entries.append((W, parts))
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

    assert got.dim == op.dim and got.eps == 0.1
    # eigenvalues ascend within each part (a split block lists its ran P part's, then its ran Q
    # part's) and within the full block
    for (_, _, parts, w_d, w_f, M), entry in zip(got.split, entries, strict=True):
        sizes = [G.dim for _, G in entry[1]]
        assert all(np.all(np.diff(part) >= 0) for part in np.split(w_d, np.cumsum(sizes)[:-1]))
        assert np.all(np.diff(w_f) >= 0)
        assert M.dtype == dtype and all(V.dtype == dtype for _, V in parts)
    # the spectra of H_diag and H: the split blocks' and, on a shared block, H's own
    shared_w = [diagonalize(op.block(0.1, op.components[k])).w for k in shared]
    scale = np.abs(dense.matrix).max()
    for w_split, oracle in ((3, dense_diag), (4, dense)):
        w = np.sort(np.concatenate([entry[w_split] for entry in got.split] + shared_w))
        assert np.abs(w - np.linalg.eigvalsh(oracle.matrix)).max() <= 1e-12 * scale
    # on each split block's rows, E_d and E_f = E_d M are orthonormal eigenbases of H_diag and H
    for rows, w_d, E_d, w_f, E_f in split_eigenbases(got):
        b = len(rows)
        for w, E, oracle in ((w_d, E_d, dense_diag), (w_f, E_f, dense)):
            assert np.abs(E.conj().T @ E - np.eye(b)).max() <= 1e-12
            assert np.abs((E * w) @ E.conj().T - oracle.matrix[np.ix_(rows, rows)]).max() <= 1e-12 * scale

    # the errors of both evolutions and of the energy cutoff against the dense oracle
    states = _random_packets(grid, band.fiber_dim, 4, seed=3)
    cutoff = _energy_cutoff(dense, states)
    for energy_cutoff in (None, cutoff):
        a = decoupling_error(got, states, [0.7, 3.0], energy_cutoff=energy_cutoff)
        b = dense_decoupling_error(band, 0.1, states, [0.7, 3.0], energy_cutoff)
        if len(shared) == len(op.components):
            # H_diag = H: the pair shares every block, so the decoupling error is exactly zero
            assert np.all(a == 0.0) and np.abs(b).max() <= 1e-12
        else:
            assert np.abs(a / b - 1).max() <= 1e-10


@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_full_and_band_preserving_propagators_share_the_blocks_of_h(case):
    # one split entry per block of H that P splits, in H's order, on that block's rows, and the
    # index of every other block of H in `shared`; the rows of the split and shared blocks cover
    # every row exactly once
    tag, bands, window, gauge, _, shared = SPLIT_CASES[case]
    grid, band, op, full = _split_setup(tag, bands, window, gauge)
    pair = diagonalize_pair(op, band, 0.1)
    every = np.arange(op.dim)
    assert pair.shared == shared and len(pair.split) + len(shared) == len(op.components)
    split_comps = [comp for k, comp in enumerate(op.components) if k not in shared]
    covered = [rows for rows, *_ in pair.split] + [op.rows(op.components[k]) for k in shared]
    assert np.array_equal(np.sort(np.concatenate(covered)), every)
    for comp, (rows, W, parts, w_d, w_f, M) in zip(split_comps, pair.split, strict=True):
        b = grid.n_points * len(comp)
        assert np.array_equal(rows, op.rows(comp))
        # the block's frame of P, each part's square eigenvectors on its frame indices, ran P then
        # ran Q, which cover the block's frame basis once, and the full block's b eigenvalues and M
        assert W.shape == (grid.n_points, len(comp), len(comp))
        assert [V.shape for _, V in parts] == [(len(idx),) * 2 for idx, _ in parts]
        assert np.array_equal(np.sort(np.concatenate([idx for idx, _ in parts])), np.arange(b))
        assert w_d.shape == w_f.shape == (b,) and M.shape == (b, b)
    # nothing of a shared block is solved until an energy cutoff asks
    assert "shared_solves" not in vars(pair)


@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_block_pair_decoupling_error_matches_per_state_formula(case):
    # the pair, shared blocks dropped and split blocks measured in H_diag's eigenbasis, against
    # one state at a time through the same pair, and against the dense grid-space oracle
    tag, bands, window, gauge, _, shared = SPLIT_CASES[case]
    grid, band, op, full = _split_setup(tag, bands, window, gauge)
    pair = diagonalize_pair(op, band, 0.1)
    states = _random_states(grid, band.fiber_dim, 3, seed=5)
    times = (0.5, 0.7, 3.0)
    cutoff = float(np.median(full.w))
    for energy_cutoff in (None, cutoff):
        got = decoupling_error(pair, states, times, energy_cutoff=energy_cutoff)
        alone = np.column_stack([decoupling_error(pair, [psi], times, energy_cutoff=energy_cutoff)
                                 for psi in states])
        want = dense_decoupling_error(band, 0.1, states, times, energy_cutoff)
        assert got.shape == (len(times), len(states))
        # H_diag = H on every block of constant_fiber: the pair's error is exactly zero there
        if len(shared) == len(op.components):
            assert np.all(got == 0.0) and np.all(alone == 0.0) and np.abs(want).max() <= 1e-12
            continue
        assert np.all(want > 1e-5)
        assert np.all(np.abs(got - alone) <= 1e-12 * alone)
        assert np.all(np.abs(got - want) <= 1e-10 * want)


# the oracle cases at n = 64: bands (0, 1) of crossing_trio with and without a window, the
# complex frames of two_band_complex and the real ones of rotated_pair
ORACLE_CASES = ("crossing_trio-pair", "crossing_trio-windowed", "two_band_complex", "rotated_pair-windowed")


@pytest.fixture(scope="module")
def oracle_bands():
    return {case: _case_pair(case, n=64)[:2] for case in ORACLE_CASES}


@settings(max_examples=12, deadline=None)
@given(case=st.sampled_from(ORACLE_CASES), eps=st.floats(0.1, 0.4),
       times=st.lists(st.floats(0.25, 4.0), min_size=16, max_size=20), with_cutoff=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_pair_errors_equal_the_dense_grid_oracle(oracle_bands, case, eps, times, with_cutoff, seed):
    # a row of at least 16 times, with and without an energy cutoff, against H and H_diag solved
    # dense and applied on the grid
    grid, band = oracle_bands[case]
    pair = diagonalize_pair(molecular_operator(band.model, grid), band, eps)
    states = _random_packets(grid, band.fiber_dim, 3, seed, eps=eps)
    cutoff = _energy_cutoff(assemble_full(band.model, grid, eps), states) if with_cutoff else None
    got = decoupling_error(pair, states, times, energy_cutoff=cutoff)
    want = dense_decoupling_error(band, eps, states, times, cutoff)
    assert got.shape == want.shape == (len(times), 3)
    # each error is a norm relative to its state's, so both sides carry round-off of a few ulps of 1;
    # errors reach down to ~4e-7 here, where 1e-10 of the error alone lies below one ulp
    assert np.all(np.abs(got - want) <= 1e-10 * want + 1e-14)


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_pair_m_is_unitary(oracle_bands, case):
    grid, band = oracle_bands[case]
    for eps in (0.2, 0.05):
        pair = diagonalize_pair(molecular_operator(band.model, grid), band, eps)
        for *_, M in pair.split:
            assert np.abs(M.conj().T @ M - np.eye(len(M))).max() <= 1e-12


def test_pair_of_a_real_h_with_complex_frames():
    # P conjugated by the fiber phase diag(1, e^{0.7 i}) has complex fiber blocks on a real H: the
    # frames, the parts' eigenvectors and M are complex, while H's own eigenvectors are real
    grid, band, _ = _case_pair("rotated_pair-windowed", n=64)
    phase = np.array([1.0, np.exp(0.7j)])
    tilted = dataclasses.replace(band, proj=phase[:, None] * band.proj * phase.conj()[None, :])
    pair = diagonalize_pair(molecular_operator(band.model, grid), tilted, 0.1)
    ((_, W, parts, _, _, M),) = pair.split
    assert W.dtype == M.dtype == np.complex128 and np.any(M.imag)
    assert np.abs(M.conj().T @ M - np.eye(len(M))).max() <= 1e-12
    states = _random_packets(grid, 2, 3, seed=2)
    cutoff = _energy_cutoff(assemble_full(band.model, grid, 0.1), states)
    for energy_cutoff in (None, cutoff):
        got = decoupling_error(pair, states, [0.5, 2.0], energy_cutoff=energy_cutoff)
        want = dense_decoupling_error(tilted, 0.1, states, [0.5, 2.0], energy_cutoff)
        assert np.all(np.abs(got - want) <= 1e-10 * want)


def test_decoupling_error_makes_no_product_on_shared_triples(monkeypatch):
    # crossing_trio's pair shares its -X block: without a cutoff that block is never solved and
    # no product reads its rows; with one, it is solved on the first call, and its rows enter only
    # the denominator, as the norm of the kept coefficients: one analysis product reads it
    from adiband import propagation

    grid, band, op, full = _split_setup("crossing_trio", (0, 1), None, None)
    pair = diagonalize_pair(op, band, 0.1)
    assert pair.shared == (1,)
    minus_x = diagonalize(op.block(0.1, op.components[1]))
    products = []
    real_times = propagation._times

    def counted(A, Z):
        products.append(A)
        return real_times(A, Z)

    monkeypatch.setattr(propagation, "_times", counted)
    rng = np.random.default_rng(4)
    states = [MolecularWave(grid, rng.standard_normal((grid.n_points, 3)) + 0j, eps=0.1) for _ in range(2)]
    decoupling_error(pair, states, [0.5, 1.0])
    assert "shared_solves" not in vars(pair)
    # the split block's analysis (W^dag, then its ran P and ran Q parts), M^dag, and the one product with M
    assert len(products) == 5
    products.clear()
    cutoff = float(np.median(minus_x.w))
    decoupling_error(pair, states, [0.5, 1.0], energy_cutoff=cutoff)
    ((rows, w, V),) = pair.shared_solves
    assert np.array_equal(rows, op.rows(op.components[1])) and np.array_equal(w, minus_x.w)
    assert sum(A.base is V for A in products) == 1
    # and with the cutoff, c_d = M c_f once more
    assert len(products) == 5 + 1 + 1


@settings(max_examples=40, deadline=None)
@given(s=st.floats(0.0, 3.0), t=st.floats(0.0, 3.0), seed=st.integers(0, 2**32 - 1))
def test_band_preserving_propagator_is_a_unitary_group(oracle_bands, s, t, seed):
    # on crossing_trio's split block, H_diag's eigenbasis W V_d keeps the norm of the block's rows,
    # and the full evolution in its coordinates, U(t) = M e^{-i w_f t/eps} M^dag, keeps the norm
    # and is a group, U(s) U(t) c = U(s + t) c, for random times and a random complex state
    from adiband.propagation import _frame_coordinates

    grid, band = oracle_bands["crossing_trio-pair"]
    pair = diagonalize_pair(molecular_operator(band.model, grid), band, 0.1)
    ((rows, W, parts, w_d, w_f, M),) = pair.split
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(len(rows)) + 1j * rng.standard_normal(len(rows))
    c = _frame_coordinates(W, parts, v[:, None])[:, 0]
    assert abs(np.linalg.norm(c) / np.linalg.norm(v) - 1) <= 1e-12

    def U(time, x):
        return M @ (np.exp(-1j * w_f * time / pair.eps) * (M.conj().T @ x))

    ut = U(t, c)
    assert abs(np.linalg.norm(ut) / np.linalg.norm(c) - 1) <= 1e-12
    assert np.abs(U(s, ut) - U(s + t, c)).max() <= 1e-11 * np.abs(c).max()


def test_band_preserving_split_refuses_a_p_that_couples_blocks():
    # a P that mixes constant_fiber's two levels couples the two blocks of H: it is not a
    # spectral projection of H_e, which leaves the two levels exactly decoupled
    grid = make_grid(-8, 8, 64)
    band = band_decompose(get_model("constant_fiber"), grid, 0)
    v = np.array([np.cos(0.4), np.sin(0.4)])
    mixed = dataclasses.replace(band, proj=np.tile(np.outer(v, v), (grid.n_points, 1, 1)).astype(complex))
    op = molecular_operator(band.model, grid)
    assert len(op.components) == 2
    with pytest.raises(ValueError, match="couple two blocks of H"):
        _band_fibers(op, mixed)
    with pytest.raises(ValueError, match="couple two blocks of H"):
        diagonalize_pair(molecular_operator(band.model, grid), mixed, 0.1)


def test_band_preserving_split_refuses_non_projections():
    # 0.9 P has eigenvalues 0 and 0.9.  The oblique [[1, 0.3], [0, 0]] is idempotent, and the
    # lower triangle that eigh reads has eigenvalues 0 and 1, but it is not Hermitian
    grid, band, H, full = _split_setup("rotated_pair", (0,), (-2, 2), "component")
    oblique = np.array([[1.0, 0.3], [0.0, 0.0]])
    assert np.array_equal(oblique @ oblique, oblique)
    assert np.array_equal(np.linalg.eigvalsh(oblique), [0.0, 1.0])
    for proj in (0.9 * band.proj, np.tile(oblique, (grid.n_points, 1, 1)).astype(complex)):
        with pytest.raises(ValueError, match="not orthogonal projections"):
            diagonalize_pair(molecular_operator(band.model, grid), dataclasses.replace(band, proj=proj), 0.1)


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
        assert np.array_equal(prop.w, w) and np.array_equal(prop.V, v)
        for vec in (block[: H.dim, 0], block[: H.dim]):
            for t in (0.7, np.array([0.0, 0.7, 3.0])):
                assert np.array_equal(prop.apply(vec, t), dense_product_apply(w, v, H.eps, vec, t))


def test_block_apply_matches_the_dense_oracle():
    # crossing_trio's full H by blocks (2n, n) against its dense eigenpairs; and the pair's {0, 2}
    # block, lifted from H_diag's eigenbasis to the grid, against the dense H_diag and H on its rows:
    # e^{-iH_diag t/eps} = E_d e^{-i w_d t/eps} E_d^dag, e^{-iHt/eps} = E_f e^{-i w_f t/eps} E_f^dag,
    # and the energy cutoff E_f chi(w_f <= E) E_f^dag with E_f = E_d M
    grid, band, op, full = _split_setup("crossing_trio", (0, 1), None, None)
    rng = np.random.default_rng(9)
    block = rng.standard_normal((op.dim, 3)) + 1j * rng.standard_normal((op.dim, 3))
    times = np.array([0.0, 0.7, 3.0])
    assert len(op.components) > 1 and full.dim == op.dim
    for vec in (block[:, 0], block):
        pairs = [(full.apply(vec, 0.7), unitary(full, 0.7) @ vec),
                 (full.apply(vec, times), np.stack([unitary(full, t) @ vec for t in times]))]
        for got, want in pairs:
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    pair = diagonalize_pair(molecular_operator(band.model, grid), band, 0.1)
    dense_diag = diagonalize(assemble_diag(assemble_full(band.model, grid, eps=0.1), band))
    cutoff = float(np.median(full.w))
    ((rows, w_d, E_d, w_f, E_f),) = split_eigenbases(pair)
    on_rows = np.ix_(rows, rows)
    x = block[rows]
    for t in (0.7, 3.0):
        for w, E, oracle in ((w_d, E_d, dense_diag), (w_f, E_f, full)):
            got = (E * np.exp(-1j * w * t / 0.1)) @ (E.conj().T @ x)
            want = unitary(oracle, t)[on_rows] @ x
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    got = (E_f * (w_f <= cutoff)) @ (E_f.conj().T @ x)
    want = cutoff_projection(full, cutoff)[on_rows] @ x
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_crossing_trio_pair_stores_only_its_blocks():
    # the full H's eigenvectors, solved block by block, take 5 n^2 entries instead of 9 n^2.
    # The pair keeps its split 2n block as ran P and ran Q eigenvectors of n each, the (n, 2, 2)
    # frame and the 2n x 2n M: 6 n^2 + 4 n entries; its shared n block is not stored at all
    n = 128
    grid, band, op, full = _split_setup("crossing_trio", (0, 1), None, None)
    pair = diagonalize_pair(op, band, 0.1)
    solved = [diagonalize(op.block(0.1, comp)) for comp in op.components]
    assert [s.V.shape for s in solved] == [(2 * n, 2 * n), (n, n)]
    assert all(s.V.dtype == np.float64 for s in solved)
    assert sum(s.V.nbytes for s in solved) == 8 * 5 * n * n
    ((_, W, parts, w_d, w_f, M),) = pair.split
    arrays = [W, M] + [V for _, V in parts]
    assert all(a.dtype == np.float64 for a in arrays)
    assert sum(a.nbytes for a in arrays) == 8 * (6 * n * n + 4 * n)
    assert pair.shared == (1,) and "shared_solves" not in vars(pair)


@pytest.mark.parametrize("window", [None, (-2, 2)])
def test_pair_builds_only_the_blocks_it_solves(monkeypatch, window):
    # crossing_trio's bands (0, 1): without a window P is 1 on the -X component {1} at every point,
    # so the pair builds the {0, 2} block once per eps and never {1}, until an energy cutoff builds
    # {1} once, at the first decoupling_error; with a window P splits both, each built once per eps
    from adiband.hamiltonians import FiberedOperator

    grid = make_grid(-8, 8, 64)
    band = band_decompose(get_model("crossing_trio"), grid, (0, 1), window=window, gauge=None)
    op = molecular_operator(band.model, grid)
    built, real_block = [], FiberedOperator.block

    def block(self, eps, comp):
        built.append((eps, list(comp)))
        return real_block(self, eps, comp)

    monkeypatch.setattr(FiberedOperator, "block", block)
    states = _random_states(grid, 3, 2, seed=6)
    for eps in (0.2, 0.1):
        pair = diagonalize_pair(op, band, eps)
        assert built == [(eps, [0, 2])] + ([(eps, [1])] if window else [])
        built.clear()
        decoupling_error(pair, states, [1.0])
        assert built == []
        for _ in range(2):
            decoupling_error(pair, states, [1.0], energy_cutoff=2.0)
        assert built == ([] if window else [(eps, [1])])
        built.clear()


@pytest.mark.parametrize("imag", [1e-3, np.nan])
def test_pair_refuses_a_shared_block_the_check_refuses(monkeypatch, imag):
    # crossing_trio with an imaginary (or nan) part on the -X level {1}: eigh reads one triangle
    # and no imaginary diagonal, so P is 1 on {1} and that block is shared.  The pair still runs
    # the block's check on it, as the dense assembly does, and refuses it before solving anything
    from adiband.models import ElectronicModel

    trio = get_model("crossing_trio")

    def h(xs):
        fibers = trio._h(xs).astype(complex)
        fibers[:, 1, 1] += 1j * imag
        return fibers

    model = ElectronicModel(tag="trio", fiber_dim=3, params={}, _h=h, _dh=trio._dh)
    grid = make_grid(-8, 8, 64)
    band = band_decompose(model, grid, (0, 1), gauge=None)
    op = molecular_operator(model, grid)
    assert [list(c) for c, P in zip(op.components, _band_fibers(op, band)) if P is None] == [[1]]
    message = "non-Hermitian" if np.isfinite(imag) else "non-finite entries"
    with pytest.raises(AssertionError, match=message):
        assemble_full(model, grid, eps=0.1)
    monkeypatch.setattr(np.linalg, "eigh", lambda M: pytest.fail("a block was solved"))
    with pytest.raises(AssertionError, match=message):
        diagonalize_pair(op, band, 0.1)


def test_validate_checks_each_block(monkeypatch):
    # diagonalize solves what it is given as one block: the dense H of crossing_trio, whose
    # entries form blocks of 2n and n, and each ran P / ran Q part of H_diag's split block
    grid, band, op, full = _split_setup("crossing_trio", (0, 1), None, None)
    dense = assemble_full(band.model, grid, eps=0.1)
    parts = [G for comp, P in zip(op.components, _band_fibers(op, band)) if P is not None
             for _, G in _split_block(op.block(0.1, comp), P)[1]]
    for op in [dense] + parts:
        solved = diagonalize(op, validate=True)
        assert solved.w.shape == (op.dim,) and solved.V.shape == (op.dim, op.dim)
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
    # the -X level couples to nothing: H is assembled and solved as blocks of 2n and n.  The pair
    # of bands (0, 1) solves the {0, 2} block, then its ran P and ran Q parts of n, and not the -X
    # block, where H_diag equals H; an energy cutoff solves that once
    from adiband import propagation

    n = 128
    grid, band, op, _ = _split_setup("crossing_trio", (0, 1), None, None)
    assert [(list(comp), op.block(0.1, comp).dim) for comp in op.components] == [([0, 2], 2 * n), ([1], n)]
    minus_x = diagonalize(op.block(0.1, op.components[1]))
    sizes, real_eigh = [], np.linalg.eigh

    def eigh(M):
        if M.ndim == 2:
            sizes.append(len(M))
        return real_eigh(M)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    prop = diagonalize_blocks(op, 0.1)
    assert sizes == [2 * n, n]
    sizes.clear()
    calls, real_diagonalize = [], propagation.diagonalize

    def diagonalize_counted(op, *args, **kwargs):
        calls.append(op.dim)
        return real_diagonalize(op, *args, **kwargs)

    monkeypatch.setattr(propagation, "diagonalize", diagonalize_counted)
    pair = diagonalize_pair(op, band, 0.1)
    assert sizes == calls == [2 * n, n, n]
    states = _random_states(grid, 3, 2, seed=8)
    decoupling_error(pair, states, [1.0])
    assert calls == [2 * n, n, n]
    # with a cutoff, the -X block is solved on the first call and kept: H's own eigenpair of that block
    for _ in range(2):
        decoupling_error(pair, states, [1.0], energy_cutoff=float(np.median(minus_x.w)))
    assert calls == [2 * n, n, n, n]
    ((rows, w, V),) = pair.shared_solves
    assert np.array_equal(rows, 3 * np.arange(n) + 1) and np.array_equal(rows, op.rows(op.components[1]))
    assert np.array_equal(w, minus_x.w) and np.array_equal(V, minus_x.V)
    monkeypatch.undo()
    # the oracles: the dense solve of H and of the dense H_diag
    dense = assemble_full(band.model, grid, eps=0.1)
    scale = np.abs(dense.matrix).max()
    assert np.abs(prop.w - np.linalg.eigh(dense.matrix)[0]).max() <= 1e-12 * scale
    want = diagonalize(assemble_diag(dense, band)).w
    got = np.sort(np.concatenate([pair.split[0][3], w]))
    assert np.abs(got - want).max() <= 1e-12 * scale
