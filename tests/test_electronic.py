import functools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiband import electronic
from adiband.electronic import (
    _coupled_components,
    _track_band,
    band_decompose,
    berry_connection,
    eigh_by_blocks,
    fd_derivative,
    gap_check,
    grad_projection,
    riesz_projection,
)
from adiband.grids import make_grid
from adiband.harness import ExperimentConfig
from adiband.models import get_model
from oracles import stepwise_track_band

GAP0 = 2 * np.sqrt(0.29)  # two_band_complex minimal gap, attained at X = 0


@pytest.fixture(scope="module")
def grid256():
    return make_grid(-8, 8, 256)


@pytest.fixture(scope="module")
def band_ac(grid256):
    return band_decompose(get_model("two_band_complex"), grid256, 0)


# the fiber components no H_e(X) couples to each other: crossing_trio's -X level stands alone
FIBER_COMPONENTS = {"two_band_complex": [[0, 1]], "crossing_trio": [[0, 2], [1]], "rotated_pair": [[0, 1]]}


def _pointwise_by_components(h, components):
    """eigh of each fiber component of h, merged ascending (stable) and scattered: the loop reference."""
    m = len(h)
    w, V, start = np.empty(m), np.zeros((m, m), dtype=h.dtype), 0
    for comp in components:
        cols = slice(start, start + len(comp))
        w[cols], V[np.ix_(comp, range(start, start + len(comp)))] = np.linalg.eigh(h[np.ix_(comp, comp)])
        start += len(comp)
    order = np.argsort(w, kind="stable")
    return w[order], V[:, order]


@pytest.mark.parametrize("tag", ["two_band_complex", "crossing_trio", "rotated_pair"])
def test_band_decompose_stacked_eigh_equals_pointwise(tag):
    g = make_grid(-4, 4, 64)
    model = get_model(tag)
    band = band_decompose(model, g, 0, gauge=None)
    for i, X in enumerate(g.x):
        h = model.h(X)
        h = h if np.any(h.imag) else h.real
        # bitwise the pointwise solve of each decoupled component (for one component, of h itself)
        w, v = _pointwise_by_components(h, FIBER_COMPONENTS[tag])
        assert np.array_equal(band.evals[i], w)
        assert np.array_equal(band.evecs[i], v)
        # and the full pointwise solve to rounding
        w_full, v_full = np.linalg.eigh(h)
        scale = np.abs(h).max()
        assert np.abs(band.evals[i] - w_full).max() <= 1e-14 * scale
        recon = (band.evecs[i] * band.evals[i]) @ band.evecs[i].conj().T
        assert np.abs(recon - (v_full * w_full) @ v_full.conj().T).max() <= 1e-14 * scale
    # real fibers go to the real solver: frames with exactly zero imaginary part
    assert np.any(band.evecs.imag) == (tag == "two_band_complex")


def _permuted_blocks(rng, sizes, dtype, shared=0.7):
    """A Hermitian block-diagonal matrix with its rows and columns randomly permuted.

    Every block has the eigenvalue `shared`, so one eigenvalue repeats across blocks.
    """
    m = sum(sizes)
    M = np.zeros((m, m), dtype=dtype)
    start = 0
    for k in sizes:
        A = rng.standard_normal((k, k))
        if dtype == complex:
            A = A + 1j * rng.standard_normal((k, k))
        Q, _ = np.linalg.qr(A)
        lam = np.concatenate([[shared], rng.uniform(-3, 3, k - 1)])
        M[start:start + k, start:start + k] = (Q * lam) @ Q.conj().T
        start += k
    M = (M + M.conj().T) / 2
    perm = rng.permutation(m)
    return M[np.ix_(perm, perm)]


def _check_eigenpairs(M, w, V):
    """Eigenvalues as np.linalg.eigh's to 1e-13 relative; V unitary and V diag(w) V^dag = M to 1e-12."""
    scale = np.abs(M).max()
    assert np.all(np.diff(w, axis=-1) >= 0)
    assert np.abs(w - np.linalg.eigh(M)[0]).max() <= 1e-13 * scale
    eye = np.eye(M.shape[-1])
    assert np.abs(np.swapaxes(V.conj(), -1, -2) @ V - eye).max() <= 1e-12
    assert np.abs((V * w[..., None, :]) @ np.swapaxes(V.conj(), -1, -2) - M).max() <= 1e-12 * scale


@pytest.mark.parametrize("dtype", [float, complex])
def test_eigh_by_blocks_matches_dense_solver_on_permuted_blocks(dtype):
    M = _permuted_blocks(np.random.default_rng(11), [5, 1, 3, 7], dtype)
    w, V = eigh_by_blocks(M)
    assert V.dtype == np.linalg.eigh(M)[1].dtype
    _check_eigenpairs(M, w, V)
    # the shared eigenvalue appears once per block
    assert np.sum(np.abs(w - 0.7) < 1e-12) == 4
    # each eigenvector is zero off its own block
    assert sorted(np.count_nonzero(V, axis=0)) == sorted([5] * 5 + [1] + [3] * 3 + [7] * 7)


@pytest.mark.parametrize("dtype", [float, complex])
def test_eigh_by_blocks_stack_reorders_per_point(dtype):
    base = _permuted_blocks(np.random.default_rng(5), [2, 3], dtype)
    # shift the block holding index 0 along the stack, so its levels pass those of the other block
    first = base[0] != 0
    stack = np.stack([base + s * np.diag(first.astype(float)) for s in np.linspace(-4, 4, 9)])
    w, V = eigh_by_blocks(stack)
    orders = set()
    for i in range(len(stack)):
        _check_eigenpairs(stack[i], w[i], V[i])
        # which block each ascending eigenvalue comes from
        orders.add(tuple(np.any(V[i][first] != 0, axis=0)))
    assert len(orders) > 1


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_coupled_components_read_both_triangles(side):
    # a coupling stored on one side only still joins its two indices
    pattern = np.eye(5, dtype=bool)
    pattern[(3, 1) if side == "lower" else (1, 3)] = True
    pattern[4, 0] = pattern[0, 4] = True
    assert [list(c) for c in _coupled_components(pattern)] == [[0, 4], [1, 3], [2]]


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


@pytest.mark.parametrize("indices", [-1, 0.5, True, 3, (), (0, 0), (1, 0), (0, 3), [0.0, 1.0]])
def test_band_decompose_refuses_indices_it_would_misread(indices):
    # -1 would wrap to the top band, 0.5 truncate to band 0, True be taken as band 1
    with pytest.raises(ValueError, match=r"strictly ascending integers in \[0, 3\)"):
        band_decompose(get_model("crossing_trio"), make_grid(-8, 8, 64), indices)


def test_riesz_matches_spectral_oracle():
    model = get_model("two_band_complex")
    for X in (-1.3, 0.0, 0.8):
        w, v = np.linalg.eigh(model.h(X))
        spec = np.outer(v[:, 0], v[:, 0].conj())
        P = riesz_projection(model, X, w[0], 0.4 * (w[1] - w[0]))
        assert np.abs(P - spec).max() <= 1e-10
        assert np.abs(P @ P - P).max() <= 1e-10


def test_riesz_all_and_none():
    model = get_model("two_band_complex")
    P_all = riesz_projection(model, 0.5, 0.0, 10.0)
    assert np.abs(P_all - np.eye(2)).max() <= 1e-10
    P_none = riesz_projection(model, 0.5, 30.0, 1.0)
    assert np.abs(P_none).max() <= 1e-10


def test_riesz_rejects_contour_through_spectrum():
    model = get_model("two_band_complex")
    lam0 = np.linalg.eigvalsh(model.h(0.0))[0]
    # the circle touches lambda_0: its clearance, 1.1e-16, is under the floor of 1e-6 of the radius
    with pytest.raises(ValueError, match="required clearance 1.000e-06"):
        riesz_projection(model, 0.0, lam0 - 1.0, 1.0)


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


# -- the tracker on its overlap table against the tracker by steps ---------------------------


@functools.cache
def _shipped_bands():
    """(id, band) of every gauged single band a shipped config decomposes: its bands and its lift band."""
    root = Path(__file__).resolve().parents[1]
    out = {}
    for path in sorted(root.glob("src/adiband/configs/*.json")) + sorted(root.glob("perfbench/configs/*.json")):
        cfg = ExperimentConfig.from_json(path.read_text())
        for band in (cfg.build_band(), cfg.lift_band()):
            if band.chi is not None:
                out[f"{path.parts[-3]}/{path.stem}-band{band.band_indices[0]}"] = band
    return sorted(out.items())


# crossing_trio on a grid holding X = 0, where its +X and -X levels cross exactly
_TRIO_CROSSING = [(f"crossing_trio-exact-crossing-band{j}", j) for j in range(3)]


@pytest.mark.parametrize("gauge", ["component", "transport"])
@pytest.mark.parametrize("name", [name for name, _ in _shipped_bands()] + [name for name, _ in _TRIO_CROSSING])
def test_band_tracking_equals_the_stepwise_tracker(name, gauge, monkeypatch):
    # chi and the band energy of band_decompose, bitwise, with _track_band and with its oracle by steps
    bands = dict(_shipped_bands())
    if name in bands:
        b = bands[name]
        args = (b.model, b.grid, b.band_indices, b.window)
    else:
        grid = make_grid(-4, 4, 256)
        assert 0.0 in grid.x
        args = (get_model("crossing_trio"), grid, dict(_TRIO_CROSSING)[name], None)
    try:
        got = band_decompose(*args, gauge=gauge)
    except RuntimeError as exc:
        # a band whose reference component vanishes inside the window refuses the component gauge the same way
        monkeypatch.setattr(electronic, "_track_band", stepwise_track_band)
        with pytest.raises(RuntimeError, match=str(exc)):
            band_decompose(*args, gauge=gauge)
        return
    monkeypatch.setattr(electronic, "_track_band", stepwise_track_band)
    want = band_decompose(*args, gauge=gauge)
    assert got.chi.tobytes() == want.chi.tobytes() and got.band_energy.tobytes() == want.band_energy.tobytes()


@pytest.mark.parametrize("anchor, lost_at", [(0, 7), (11, 6)])
def test_band_tracking_loss_raises_at_the_index_of_the_stepwise_tracker(anchor, lost_at):
    # three levels; from grid index 7 on the frame is the 3 x 3 DFT, whose columns all meet the
    # standard basis at overlap 1/sqrt(3) < 0.7: tracking is lost entering it, from either side
    n = 12
    evals = np.tile([0.0, 1.0, 2.0], (n, 1))
    evecs = np.tile(np.eye(3, dtype=complex), (n, 1, 1))
    evecs[7:] = np.exp(2j * np.pi * np.outer(np.arange(3), np.arange(3)) / 3) / np.sqrt(3)
    message = f"band tracking lost at grid index {lost_at}: best overlap 0.577"
    with pytest.raises(RuntimeError, match=message):
        stepwise_track_band(evals, evecs, 1, anchor)
    with pytest.raises(RuntimeError, match=message):
        _track_band(evals, evecs, 1, anchor)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 4), n=st.integers(2, 40),
       step=st.sampled_from([0.02, 0.3, 1.5]), degenerate=st.floats(0.0, 0.5))
def test_band_tracking_matches_the_stepwise_tracker_on_random_frames(seed, m, n, step, degenerate):
    # a random Hermitian path, smooth or jumping, with points where two levels agree to rounding:
    # the same bits, or the same refusal at the same index
    rng = np.random.default_rng(seed)
    A, B = (rng.standard_normal((2, m, m)) + 1j * rng.standard_normal((2, m, m)))
    A, B = A + A.conj().T, B + B.conj().T
    t = np.cumsum(rng.uniform(0, step, n))
    H = np.cos(t)[:, None, None] * A + np.sin(t)[:, None, None] * B
    for i in np.flatnonzero(rng.uniform(size=n) < degenerate):
        U = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))[0]
        d = rng.standard_normal(m)
        d[1] = d[0]
        H[i] = (U * d) @ U.conj().T
    evals, evecs = np.linalg.eigh(H)
    band, anchor = int(rng.integers(m)), int(rng.integers(n))
    try:
        want = stepwise_track_band(evals, evecs, band, anchor)
    except RuntimeError as exc:
        with pytest.raises(RuntimeError, match=str(exc)):
            _track_band(evals, evecs, band, anchor)
        return
    got = _track_band(evals, evecs, band, anchor)
    assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
