"""The matrix-free Chebyshev propagator and the operator parts it runs on.

Only the decoupling pair is dense in the scans: the Born-Oppenheimer
propagator is a `ChebyshevPropagator` on `bo_operator`'s parts, and the
full molecular one (`PropagatorCache.full`) on `molecular_operator`'s.
Their oracles here are the dense solves, `diagonalize(assemble_bo(...))`
and `diagonalize_blocks(molecular_operator(...), eps)`, which solves the
dense block of each fiber component.  The gate of the switch is the
scans of the `effective`, `berry` (A_geo on and off) and `state_rates`
configs on both backends: every point agrees with the dense one to 1e-10
relative, and each config's criterion gives the same verdict.  Measured
at two BLAS threads: at most 4.6e-11 (effective, eps = 0.025), 3.2e-13
(berry) and 6.9e-14 (state_rates).  The switch took the effective-ladder
benchmark scan from 1.52 s to 0.73 s at one BLAS thread (median of nine
interleaved pairs on a two-core host).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

from adiband import harness
from adiband.electronic import band_decompose
from adiband.grids import make_grid
from adiband.hamiltonians import assemble_bo, bo_operator, molecular_operator
from adiband.harness import PropagatorCache, eps_scan
from adiband.models import get_model
from adiband.propagation import ChebyshevPropagator, SpectralPropagator, _bessel_rows, diagonalize
from oracles import diagonalize_blocks

# one BO operator stored real (no gauge phase) and one complex, with the gauge field of its Berry connection
MODELS = {"real": ("rotated_pair", (-2, 2)), "complex": ("two_band_complex", None)}


def _band(kind, n=128, **kwargs):
    tag, window = MODELS[kind]
    return band_decompose(get_model(tag), make_grid(-8, 8, n), 0, window=window, **kwargs)


def _block(dim, k, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))


# -- Bessel rows ----------------------------------------------------------------

def _degree(x):
    return int(np.ceil(abs(x) + 10 * np.cbrt(abs(x)) + 20))


def test_bessel_rows_match_scipy():
    # one call for the whole row, each z with its own degree, zero past it
    z = np.array([0.3, 5.0, -17.5, 50.3, 200.7, -333.3])
    degrees = np.array([_degree(x) for x in z])
    rows = _bessel_rows(z, degrees)
    assert rows.shape == (len(z), degrees.max() + 1)
    for row, x, d in zip(rows, z, degrees):
        assert np.abs(row[: d + 1] - jv(np.arange(d + 1), x)).max() <= 1e-14
        assert not row[d + 1 :].any()
    # z = 0 is the row (1, 0, ..., 0); below |z| = 1e-8, (1, z/2, 0, ..., 0) is the series to rounding
    small = np.array([0.0, 5e-324, -1e-200, 9e-9, 1.1e-8, 1e-3])
    rows = _bessel_rows(small, 25)
    assert np.array_equal(rows[0], np.eye(26)[0])
    assert np.all(np.isfinite(rows))
    assert np.abs(rows - jv(np.arange(26), small[:, None])).max() <= 2e-16


LARGE_Z = (401.2, 599.9, 700.3, 799.9)


def test_bessel_rows_match_scipy_to_800():
    # past z ~ 350 scipy's jv itself is off by more than 1e-14 from 30-digit values (1.1e-14 at
    # z = 401.2, 1.3e-14 at 799.9) while the recurrence stays within 1.3e-15 of them, so the
    # bound against scipy is 2e-14 here; `test_bessel_rows_match_mpmath` holds 1e-14
    for x in LARGE_Z:
        (row,) = _bessel_rows(np.array([x]), _degree(x))
        assert np.abs(row - jv(np.arange(_degree(x) + 1), x)).max() <= 2e-14


def test_bessel_rows_match_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    for x in LARGE_Z:
        (row,) = _bessel_rows(np.array([x]), _degree(x))
        ks = np.arange(0, len(row), 25)
        exact = np.array([float(mpmath.besselj(int(k), x)) for k in ks])
        assert np.abs(row[ks] - exact).max() <= 1e-14


# -- the operator parts ----------------------------------------------------------


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_action_and_bounds_match_the_dense_blocks(kind):
    # both operators of a band: the molecular H (one block) and its BO operator
    band = _band(kind)
    rng_block = _block(2 * band.grid.n_points, 3, 1)
    for op in (molecular_operator(band.model, band.grid), bo_operator(band)):
        (comp,) = op.components
        H = op.block(0.1, comp)
        x = rng_block[: op.dim]
        n, m = op.grid.n_points, op.fiber_dim
        # the step runs on the grid-last layout (m, k, n) of the molecular block (n m, k)
        x_last = np.ascontiguousarray(x.reshape(n, m, 3).transpose(1, 2, 0))
        for shift, scale in ((0.0, 1.0), (0.7, 2 / 3)):
            want = scale * (H.matrix @ x - shift * x)
            out = np.empty_like(x_last)
            op.action(0.1, shift=shift, scale=scale)(x_last, out)
            got = out.transpose(2, 0, 1).reshape(n * m, 3)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        w = np.linalg.eigvalsh(H.matrix)
        lo, hi = op.spectral_bounds(0.1)
        assert lo <= w[0] + 1e-12 and w[-1] <= hi + 1e-12
    # the real band's BO operator has no gauge phase; the complex one's carries its Berry connection
    assert (bo_operator(band).phase is None) == (kind == "real")


# -- the BO propagator against the dense BO ----------------------------------------


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_bo_chebyshev_matches_the_dense_bo(kind):
    band = _band(kind, delta=0.4)
    prop = ChebyshevPropagator(bo_operator(band), 0.1)
    dense = diagonalize(assemble_bo(band, 0.1))
    assert (prop.dim, prop.eps) == (dense.dim, dense.eps)
    block = _block(prop.dim, 3, 2)
    times = np.array([0.0, 0.7, 3.0])
    for vec in (block[:, 0], block):
        for t in (0.7, times):
            got, want = prop.apply(vec, t), dense.apply(vec, t)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # t = 0 is the identity
    assert np.abs(prop.apply(block, 0.0) - block).max() <= 1e-15 * np.abs(block).max()


def test_each_time_is_independent_of_its_row():
    # a row runs one recurrence, to its largest degree, and each time stops at its own
    prop = ChebyshevPropagator(bo_operator(_band("complex", delta=0.4)), 0.1)
    vec = _block(prop.dim, 2, 3)
    row = prop.apply(vec, [0.2, 1.5, 3.0])
    for got, t in zip(row, (0.2, 1.5, 3.0)):
        assert np.array_equal(got, prop.apply(vec, t))


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("k", [None, 1, 3])
@pytest.mark.parametrize("t", [0.7, (0.2, 0.7)])
def test_apply_leaves_its_input_alone(m, k, t):
    # the recurrence runs in place on its own buffers: the input is copied into them, never
    # used as one, even for m = k = 1, where the grid-last layout of the input is the input itself
    band = _band("real", n=64, delta=0.4)
    op = bo_operator(band) if m == 1 else molecular_operator(band.model, band.grid)
    prop = ChebyshevPropagator(op, 0.1)
    block = _block(prop.dim, 1 if k is None else k, 6)
    vec = block[:, 0] if k is None else block
    before = vec.copy()
    out = prop.apply(vec, t)
    assert np.array_equal(vec, before)
    assert not np.shares_memory(out, vec)
    out[...] = 0
    assert np.array_equal(vec, before)


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_chebyshev_sum_is_converged_at_its_degree(kind, monkeypatch):
    # degree K and K + 50 agree to rounding; a third of K is far off
    prop = ChebyshevPropagator(bo_operator(_band(kind, delta=0.4)), 0.05)
    vec = _block(prop.dim, 1, 4)[:, 0]
    (K,) = prop.degrees([2.0])
    at_k = prop.apply(vec, 2.0)
    scale = np.abs(at_k).max()
    for degree, near in ((K + 50, True), (K // 3, False)):
        monkeypatch.setattr(ChebyshevPropagator, "degrees", lambda self, times: np.full(np.shape(times), degree))
        gap = np.abs(prop.apply(vec, 2.0) - at_k).max()
        assert gap <= 1e-13 * scale if near else gap >= 1e-3 * scale


@pytest.fixture(scope="module")
def bo_prop():
    """The complex BO propagator of two_band_complex band 0, with its gauge field, at n = 64."""
    band = band_decompose(get_model("two_band_complex"), make_grid(-8, 8, 64), 0)
    return ChebyshevPropagator(bo_operator(band), 0.1)


@settings(max_examples=40, deadline=None)
@given(s=st.floats(0.0, 3.0), t=st.floats(0.0, 3.0), seed=st.integers(0, 2**32 - 1))
def test_bo_propagator_is_a_unitary_group(bo_prop, s, t, seed):
    # the norm is kept, and U(s) U(t) v = U(s + t) v, for random times and a random complex v
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(bo_prop.dim) + 1j * rng.standard_normal(bo_prop.dim)
    ut = bo_prop.apply(v, t)
    assert abs(np.linalg.norm(ut) / np.linalg.norm(v) - 1) <= 1e-12
    assert np.abs(bo_prop.apply(ut, s) - bo_prop.apply(v, s + t)).max() <= 1e-11 * np.abs(v).max()


@pytest.fixture(scope="module")
def full_props():
    """The scans' matrix-free molecular propagators (`PropagatorCache.full`) at n = 64: crossing_trio, of two
    blocks and real fibers, and two_band_complex, of complex fibers."""
    grid = make_grid(-8, 8, 64)
    return {tag: PropagatorCache().full(None, get_model(tag), grid, 0.1)
            for tag in ("crossing_trio", "two_band_complex")}


@settings(max_examples=40, deadline=None)
@given(tag=st.sampled_from(["crossing_trio", "two_band_complex"]), s=st.floats(0.0, 3.0), t=st.floats(0.0, 3.0),
       seed=st.integers(0, 2**32 - 1))
def test_full_propagator_is_a_unitary_group(full_props, tag, s, t, seed):
    # the norm is kept, and U(s) U(t) v = U(s + t) v, for random times and a random complex v
    prop = full_props[tag]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(prop.dim) + 1j * rng.standard_normal(prop.dim)
    ut = prop.apply(v, t)
    assert abs(np.linalg.norm(ut) / np.linalg.norm(v) - 1) <= 1e-12
    assert np.abs(prop.apply(ut, s) - prop.apply(v, s + t)).max() <= 1e-11 * np.abs(v).max()


def test_full_chebyshev_matches_the_dense_block_solve():
    # crossing_trio: H of two blocks, solved dense, against the scans' matrix-free full propagator
    grid = make_grid(-8, 8, 128)
    model = get_model("crossing_trio")
    dense = diagonalize_blocks(molecular_operator(model, grid), 0.1)
    prop = PropagatorCache().full(None, model, grid, 0.1)
    block = _block(prop.dim, 2, 5)
    times = np.array([0.5, 2.0])
    want = dense.apply(block, times)
    assert np.abs(prop.apply(block, times) - want).max() <= 1e-12 * np.abs(want).max()


# -- the scans on both backends ------------------------------------------------------


class DenseBOCache(PropagatorCache):
    """The scans' cache with the dense BO propagator, the oracle of the matrix-free one."""

    def bo(self, cfg, band, eps):
        return diagonalize(assemble_bo(band, eps, include_a_geo=cfg.include_a_geo))


class DenseFullCache(PropagatorCache):
    """The scans' cache with the dense block solve of the molecular H, the oracle of the matrix-free one.

    Each solve is kept, so the scans that share this cache solve a model and
    grid once per eps.
    """

    def full(self, cfg, model, grid, eps):
        key = ("dense full", self._system_key(model, grid), eps)
        return self.get(key, lambda: diagonalize_blocks(molecular_operator(model, grid), eps))


def test_oracle_caches_substitute_through_full_and_bo(monkeypatch):
    # the scans take their full and BO propagators from `full` and `bo`, so the oracle caches
    # above reach every effective row: dense where they override, matrix-free elsewhere
    seen, real = [], harness.effective_dynamics_error

    def recording(pf, pb, *args):
        seen.append((type(pf), type(pb)))
        return real(pf, pb, *args)

    monkeypatch.setattr(harness, "effective_dynamics_error", recording)
    cfg = harness._config("effective", eps_ladder=[0.2, 0.1, 0.05],
                          grid={"x_min": -6.4, "x_max": 6.4, "n_points": 128})
    cheb, dense = ChebyshevPropagator, SpectralPropagator
    for cache, want in ((PropagatorCache(), (cheb, cheb)), (DenseFullCache(), (dense, cheb)),
                        (DenseBOCache(), (cheb, dense))):
        seen.clear()
        harness._scan_effective(cfg, cache, 0.1, [1.0])
        assert seen == [want]


# each config with its suite's verdict on a scan of it
VERDICTS = {
    "effective": ("effective", {}, lambda res: 0.75 <= res.slope <= 1.25),  # effective-rate
    "berry_on": ("berry", {}, lambda res: res.slope >= 0.75),  # berry-on-rate
    "berry_off": ("berry", {"include_a_geo": False},  # berry-off-floor
                  lambda res: min(p["error"] for p in res.points) >= 0.05),
    "state_rates": ("state_rates", {}, lambda res: 0.35 <= res.slope <= 0.75),  # packet-rate
}


@pytest.fixture(scope="module")
def scans():
    """{(config, backend): scan}: every config on the scans' cache and on the dense full H, effective also on the dense BO.

    Each backend keeps one cache for all its scans, as a suite does.
    """
    backends = {"scan": PropagatorCache(), "dense_full": DenseFullCache(), "dense_bo": DenseBOCache()}
    out = {}
    for config, (name, overrides, _) in VERDICTS.items():
        cfg = harness._config(name, **overrides)
        for backend, cache in backends.items():
            if backend != "dense_bo" or config == "effective":
                out[config, backend] = eps_scan(cfg, cache)
    return out


def _agree(scans, config, oracle):
    # per point to 1e-10 relative, and the same verdict of the config's criterion: it passes on both
    scan, other = scans[config, "scan"], scans[config, oracle]
    assert [(p["eps"], p["t"]) for p in scan.points] == [(p["eps"], p["t"]) for p in other.points]
    for p, q in zip(scan.points, other.points):
        assert p["status"] == q["status"] == "ok"
        assert abs(p["error"] - q["error"]) <= 1e-10 * abs(q["error"]), (p, q)
    verdict = VERDICTS[config][2]
    assert verdict(scan) and verdict(other)


@pytest.mark.parametrize("oracle", ["dense_bo", "dense_full"])
def test_effective_scan_agrees_with_each_oracle(scans, oracle):
    _agree(scans, "effective", oracle)


@pytest.mark.parametrize("config", ["berry_on", "berry_off", "state_rates"])
def test_scan_agrees_with_the_dense_full(scans, config):
    _agree(scans, config, "dense_full")
