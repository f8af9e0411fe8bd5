import numpy as np
import pytest

from adiband.models import get_model, list_models


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
