"""Built-in families X -> H_e(X) of Hermitian fiber Hamiltonians.

Each model provides the matrix H_e(X) as one closed form on an array of
positions, and its closed-form derivative dH_e/dX at one position.  The
closed form is evaluated once on the whole grid (`ElectronicModel.h_batch`,
the fiber stack of the band decomposition and the molecular operator) and
on a one-point array for `h(X)`.  It is written entry by entry with the
operations of the formula at one point, a square as numpy's correctly
rounded `xs**2`, so each entry of the stack is the same bits as that
formula evaluated at its point alone.  The analytic derivative backs the
high-precision identity checks (gradients of projections, eigenvector
perturbation formulas) where grid-based differentiation of non-periodic
entries would limit accuracy.

Registry tags
-------------
``two_band_complex``
    2x2 with f(X) = tanh X on the diagonal and complex off-diagonal
    g(X) = 0.5 + 0.2i sech X.  Gap 2*sqrt(f^2+|g|^2) >= 2*sqrt(0.29)
    everywhere: a globally isolated band pair with complex fibers and a
    nonvanishing Berry connection.
``crossing_trio``
    3x3: levels +X and -X crossing exactly at X = 0, plus a spectator
    level 3 + 0.2X^2 coupled to the first level by c(X) = g0*X*exp(-X^2/2).
    The pair {1,2} is globally isolated from the spectator (min distance
    ~1.75) while containing a genuine band crossing.  The -X level couples
    to neither other component, which is what lets it cross +X, so the
    fibers, the band projection of the pair and the molecular H all split
    into exactly decoupled blocks: the fibers' pattern has two components,
    {0, 2} and {1} (`hamiltonians.FiberedOperator.components`), whose
    blocks of H (`FiberedOperator.block`) are 2n and n.  The pair's P is 1
    on the -X block at every point, so there the band-preserving H equals H
    and the decoupling pair neither builds nor solves it, and the 2n block
    of H_diag is solved as its ran P and ran Q parts of n each; a window
    makes P 0 outside it, and then both blocks are split.
``rotated_pair``
    2x2: R(theta) diag(X^2-4, 4-X^2) R(theta)^T with theta = 0.3 tanh X.
    Real symmetric; bands cross at X = +-2, so the lower band is isolated
    only locally on (-2, 2).
``constant_fiber``
    X-independent diagonal levels; the commuting fixture.
``free``
    1x1 zero fiber (bare kinetic energy).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = ["ElectronicModel", "get_model", "list_models", "MODEL_TAGS"]


@dataclass(frozen=True)
class ElectronicModel:
    """A smooth family of m x m Hermitian matrices with analytic derivative.

    `_h` is the family's closed form on an array of positions: it maps a
    float vector xs of shape (n,) to the stack H_e(xs) of shape (n, m, m),
    real or complex.  `_dh` is the derivative at one position.
    """

    tag: str
    fiber_dim: int
    params: dict
    _h: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    _dh: Callable[[float], np.ndarray] = field(repr=False)

    def h(self, X: float) -> np.ndarray:
        """H_e(X) as an (m, m) complex Hermitian matrix: the closed form at the one point X."""
        return self._h(np.array([float(X)]))[0].astype(complex)

    def dh(self, X: float) -> np.ndarray:
        """Closed-form dH_e/dX at X."""
        return self._dh(float(X))

    def h_batch(self, xs: np.ndarray) -> np.ndarray:
        """Stack of H_e over a vector of positions: shape (len(xs), m, m), one closed-form evaluation.

        The stack is real (a contiguous float64 array) when every H_e(X)
        has exactly zero imaginary part, and complex otherwise.  This is the
        one place that decides the storage type of the fibers: the band
        decomposition and the molecular operator take it as given, so real
        fibers reach the real-symmetric solvers.
        """
        stack = np.ascontiguousarray(self._h(np.asarray(xs, dtype=float)))
        return stack if np.any(stack.imag) else np.ascontiguousarray(stack.real, dtype=float)


def _fill(n: int, m: int, entries: dict, dtype=float) -> np.ndarray:
    """An (n, m, m) stack, zero except entries[(a, b)] at (:, a, b)."""
    out = np.zeros((n, m, m), dtype=dtype)
    for (a, b), value in entries.items():
        out[:, a, b] = value
    return out


def _two_band_complex(g_re=0.5, g_im=0.2):
    def h(xs):
        f = np.tanh(xs)
        # g_im / cosh X as a real quotient: a complex array divided by a real one is scaled by its
        # reciprocal, which would not give the bits of the per-point formula's complex scalar division.
        # That division turns a -0.0 g_im into a +0.0 real part, which `+ 0.0` does here (with
        # g_re = -0.0 the real part of g is then +0.0, as there)
        g = g_re + 1j * ((g_im + 0.0) / np.cosh(xs))
        return _fill(len(xs), 2, {(0, 0): f, (0, 1): g, (1, 0): np.conj(g), (1, 1): -f}, complex)

    def dh(X):
        df = 1.0 / np.cosh(X) ** 2
        dg = -1j * g_im * np.tanh(X) / np.cosh(X)
        return np.array([[df, dg], [np.conj(dg), -df]])

    return h, dh


def _crossing_trio(g0=0.5, curvature=0.2, offset=3.0):
    def h(xs):
        c = g0 * xs * np.exp(-(xs**2) / 2)
        return _fill(len(xs), 3, {(0, 0): xs, (0, 2): c, (1, 1): -xs, (2, 0): c, (2, 2): offset + curvature * xs**2})

    def dh(X):
        dc = g0 * (1 - X**2) * np.exp(-(X**2) / 2)
        return np.array(
            [[1.0, 0.0, dc], [0.0, -1.0, 0.0], [dc, 0.0, 2 * curvature * X]],
            dtype=complex,
        )

    return h, dh


def _rotated_pair(theta0=0.3, well=4.0):
    def h(xs):
        th = theta0 * np.tanh(xs)
        a = xs**2 - well
        c, s = np.cos(th), np.sin(th)
        R = _fill(len(xs), 2, {(0, 0): c, (0, 1): -s, (1, 0): s, (1, 1): c})
        return R @ _fill(len(xs), 2, {(0, 0): a, (1, 1): -a}) @ R.transpose(0, 2, 1)

    def dh(X):
        th = theta0 * np.tanh(X)
        dth = theta0 / np.cosh(X) ** 2
        a = X**2 - well
        da = 2 * X
        c, s = np.cos(th), np.sin(th)
        R = np.array([[c, -s], [s, c]])
        dR = dth * np.array([[-s, -c], [c, -s]])
        A = np.diag([a, -a])
        dA = np.diag([da, -da])
        return (dR @ A @ R.T + R @ dA @ R.T + R @ A @ dR.T).astype(complex)

    return h, dh


def _constant_fiber(levels=(1.0, 2.0)):
    lev = np.asarray(levels, dtype=float)

    def h(xs):
        return _fill(len(xs), len(lev), {(a, a): v for a, v in enumerate(lev)})

    def dh(X):
        return np.zeros((len(lev), len(lev)), dtype=complex)

    return h, dh


def _free():
    def h(xs):
        return np.zeros((len(xs), 1, 1))

    def dh(X):
        return np.zeros((1, 1), dtype=complex)

    return h, dh


_BUILDERS = {
    "two_band_complex": (_two_band_complex, 2),
    "crossing_trio": (_crossing_trio, 3),
    "rotated_pair": (_rotated_pair, 2),
    "constant_fiber": (_constant_fiber, None),
    "free": (_free, 1),
}

MODEL_TAGS = tuple(_BUILDERS)


def get_model(tag: str, **params) -> ElectronicModel:
    """Look up a model family by tag; params override the built-in defaults."""
    if tag not in _BUILDERS:
        raise KeyError(f"unknown model tag {tag!r}; available: {', '.join(MODEL_TAGS)}")
    builder, m = _BUILDERS[tag]
    h, dh = builder(**params)
    if m is None:
        m = h(np.zeros(1)).shape[-1]
    return ElectronicModel(tag=tag, fiber_dim=m, params=dict(params), _h=h, _dh=dh)


def list_models() -> list[str]:
    return list(MODEL_TAGS)
