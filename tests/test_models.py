import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiband.grids import make_grid
from adiband.models import MODEL_TAGS, get_model, list_models
from oracles import point_fiber, stacked_fibers

ROOT = Path(__file__).resolve().parents[1]

# (x_min, x_max, n_points) of every shipped config's grid
SHIPPED_GRIDS = sorted({
    (g["x_min"], g["x_max"], g["n_points"])
    for path in sorted(ROOT.glob("src/adiband/configs/*.json")) + sorted(ROOT.glob("perfbench/configs/*.json"))
    for g in [json.loads(path.read_text())["grid"]]
})


def test_two_band_complex_at_zero():
    m = get_model("two_band_complex")
    H = m.h(0.0)
    expected = np.array([[0.0, 0.5 + 0.2j], [0.5 - 0.2j, 0.0]])
    assert np.abs(H - expected).max() <= 1e-14


def test_two_band_complex_asymptotic_eigenvalues():
    # far from the origin the off-diagonal tends to 0.5, so eigenvalues -> +-sqrt(1.25)
    m = get_model("two_band_complex")
    w = np.linalg.eigvalsh(m.h(30.0))
    assert w == pytest.approx([-np.sqrt(1.25), np.sqrt(1.25)], abs=1e-10)


def test_hermiticity_random_positions():
    rng = np.random.default_rng(5)
    for tag in list_models():
        m = get_model(tag)
        for X in rng.uniform(-6, 6, size=100):
            H = m.h(X)
            assert np.abs(H - H.conj().T).max() <= 1e-13, tag


def test_analytic_derivative_matches_finite_difference():
    h = 1e-5
    for tag in ("two_band_complex", "crossing_trio", "rotated_pair"):
        m = get_model(tag)
        for X in (-1.7, -0.3, 0.0, 0.9, 2.4):
            fd = (m.h(X + h) - m.h(X - h)) / (2 * h)
            assert np.abs(fd - m.dh(X)).max() <= 1e-8, (tag, X)


def test_smoothness_bounded_difference_quotient():
    m = get_model("two_band_complex")
    xs = np.linspace(-6, 6, 200)
    quot = [np.abs(m.h(x + 1e-4) - m.h(x)).max() / 1e-4 for x in xs]
    assert max(quot) < 10.0


def test_crossing_trio_levels_cross_exactly_at_origin():
    m = get_model("crossing_trio")
    w = np.linalg.eigvalsh(m.h(0.0))
    assert w[0] == pytest.approx(0.0, abs=1e-14)
    assert w[1] == pytest.approx(0.0, abs=1e-14)
    assert w[2] == pytest.approx(3.0, abs=1e-14)


def test_rotated_pair_band_values():
    m = get_model("rotated_pair")
    w = np.linalg.eigvalsh(m.h(0.0))
    assert w == pytest.approx([-4.0, 4.0], abs=1e-13)
    w2 = np.linalg.eigvalsh(m.h(2.0))  # crossing point
    assert w2 == pytest.approx([0.0, 0.0], abs=1e-13)


def test_constant_fiber_levels():
    m = get_model("constant_fiber", levels=(0.5, 1.5, 4.0))
    assert m.fiber_dim == 3
    assert np.allclose(np.diag(m.h(2.3)), [0.5, 1.5, 4.0])
    assert np.abs(m.dh(1.0)).max() == 0.0


def test_unknown_tag():
    with pytest.raises(KeyError):
        get_model("nope")


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bounds", SHIPPED_GRIDS)
@pytest.mark.parametrize("tag", MODEL_TAGS)
def test_h_batch_is_the_per_point_stack_on_the_shipped_grids(tag, bounds):
    # the closed form on the whole grid gives the per-point formula's bits, in its storage type
    xs = make_grid(*bounds).x
    got = get_model(tag).h_batch(xs)
    assert _same_bits(got, stacked_fibers(tag, xs)) and got.flags.c_contiguous
    # there Python's X**2 equals X * X at every point, so the per-point models that called
    # `X**2` on each float gave the same stack
    assert [X**2 for X in xs.tolist()] == (xs * xs).tolist()


_PARAMS = {
    "two_band_complex": st.fixed_dictionaries({"g_re": st.floats(-2, 2), "g_im": st.floats(-2, 2)}),
    "crossing_trio": st.fixed_dictionaries(
        {"g0": st.floats(-2, 2), "curvature": st.floats(-1, 1), "offset": st.floats(-5, 5)}),
    "rotated_pair": st.fixed_dictionaries({"theta0": st.floats(-1.5, 1.5), "well": st.floats(-10, 10)}),
    "constant_fiber": st.fixed_dictionaries(
        {"levels": st.lists(st.floats(-5, 5), min_size=1, max_size=4).map(tuple)}),
    "free": st.just({}),
}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_h_batch_matches_the_per_point_stack(data):
    # random positions (zeros and subnormals among them) and model parameters: the stack, and
    # h at single points, are the per-point formula's bits
    tag = data.draw(st.sampled_from(MODEL_TAGS))
    params = data.draw(_PARAMS[tag])
    xs = np.array(data.draw(st.lists(st.floats(-40, 40), min_size=1, max_size=40)))
    model = get_model(tag, **params)
    assert _same_bits(model.h_batch(xs), stacked_fibers(tag, xs, **params))
    for X in xs[:3]:
        assert _same_bits(model.h(X), point_fiber(tag, X, **params))
