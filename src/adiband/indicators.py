"""Mollified characteristic functions and phase-space regions.

The ramp profile is the standard smooth partition step
``s(u) = b(u)/(b(u) + b(1-u))`` with ``b(u) = exp(-1/u)`` for u > 0 and 0
otherwise: genuinely C^infinity, exactly 0 for u <= 0 and exactly 1 for
u >= 1, with all derivatives vanishing at both ends.  Every smoothed
cutoff in the package (interval indicators, phase-space indicators,
clamped extensions) is built from this one profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "smooth_step",
    "interval_indicator",
    "PhaseSpaceRegion",
    "SmoothIndicator",
    "smooth_indicator",
    "ramp_to_constant",
]


def smooth_step(u):
    """C^inf step: 0 for u <= 0, 1 for u >= 1, b(u)/(b(u)+b(1-u)) between."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    out[u >= 1.0] = 1.0
    mid = (u > 0.0) & (u < 1.0)
    um = u[mid]
    a = np.exp(-1.0 / um)
    b = np.exp(-1.0 / (1.0 - um))
    out[mid] = a / (a + b)
    return out


def interval_indicator(x, intervals, margin: float) -> np.ndarray:
    """Smoothed indicator of a union of intervals with margin.

    Equals 1 exactly where the distance to the complement of some interval
    is >= margin, 0 exactly outside the union; values in [0, 1].

    Parameters
    ----------
    x : array of evaluation points
    intervals : sequence of (a, b) pairs
    margin : ramp width > 0
    """
    if margin <= 0:
        raise ValueError("margin must be positive")
    x = np.asarray(x, dtype=float)
    one_minus = np.ones_like(x)
    for a, b in intervals:
        if b - a < 2 * margin:
            raise ValueError(f"interval ({a}, {b}) thinner than twice the margin {margin}")
        ind = smooth_step((x - a) / margin) * smooth_step((b - x) / margin)
        one_minus *= 1.0 - ind
    return 1.0 - one_minus


@dataclass(frozen=True)
class PhaseSpaceRegion:
    """Finite union of closed rectangles [q1,q2] x [p1,p2] in phase space.

    A rectangle with a bound that is not finite (NaN or +-inf) or a reversed
    side is refused as malformed.
    """

    rects: tuple

    def __init__(self, rects):
        rects = tuple(tuple(float(v) for v in r) for r in np.atleast_2d(rects))
        for q1, q2, p1, p2 in rects:
            if not (np.isfinite([q1, q2, p1, p2]).all() and q1 <= q2 and p1 <= p2):
                raise ValueError(f"malformed rectangle {(q1, q2, p1, p2)}")
        object.__setattr__(self, "rects", rects)

    @property
    def q_bounds(self):
        return (min(r[0] for r in self.rects), max(r[1] for r in self.rects))

    def check_inside(self, window, delta: float):
        """Raise ValueError unless the q-extent lies inside the window shrunk by delta."""
        lo, hi = window[0] + delta, window[1] - delta
        if not (lo < self.q_bounds[0] and self.q_bounds[1] < hi):
            raise ValueError(f"region q-extent {self.q_bounds} not inside the shrunk window ({lo}, {hi})")

    def erode(self, alpha: float) -> "PhaseSpaceRegion":
        """Per-axis erosion by alpha (the inner core of each rectangle)."""
        inner = [
            (q1 + alpha, q2 - alpha, p1 + alpha, p2 - alpha)
            for q1, q2, p1, p2 in self.rects
            if q2 - q1 >= 2 * alpha and p2 - p1 >= 2 * alpha
        ]
        if not inner:
            raise ValueError(f"region erodes to nothing at margin {alpha}")
        return PhaseSpaceRegion(inner)

    def contains(self, q, p) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        p = np.asarray(p, dtype=float)
        hit = np.zeros(np.broadcast(q, p).shape, dtype=bool)
        for q1, q2, p1, p2 in self.rects:
            hit |= (q >= q1) & (q <= q2) & (p >= p1) & (p <= p2)
        return hit

    def sample_cloud(self, resolution: float) -> np.ndarray:
        """Deterministic lattice of (q, p) points covering the region.

        Every rectangle contributes an inclusive lattice of spacing at most
        `resolution` per axis, so corners are always sampled.
        """
        pts = []
        for q1, q2, p1, p2 in self.rects:
            nq = max(2, int(np.ceil((q2 - q1) / resolution)) + 1) if q2 > q1 else 1
            np_ = max(2, int(np.ceil((p2 - p1) / resolution)) + 1) if p2 > p1 else 1
            qs = np.linspace(q1, q2, nq)
            ps = np.linspace(p1, p2, np_)
            Q, P = np.meshgrid(qs, ps, indexing="ij")
            pts.append(np.column_stack([Q.ravel(), P.ravel()]))
        cloud = np.concatenate(pts)
        return np.unique(cloud, axis=0)


@dataclass(frozen=True)
class SmoothIndicator:
    """Mollified characteristic function of a phase-space region.

    1 exactly on the eroded core (region - alpha, per-axis), 0 exactly
    outside the region, C^inf ramp in between.
    """

    region: PhaseSpaceRegion
    alpha: float

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("margin alpha must be positive")
        self.region.erode(self.alpha)  # raises if the core is empty

    def __call__(self, q, p) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        p = np.asarray(p, dtype=float)
        one_minus = np.ones(np.broadcast(q, p).shape)
        for q1, q2, p1, p2 in self.region.rects:
            ind = (
                smooth_step((q - q1) / self.alpha)
                * smooth_step((q2 - q) / self.alpha)
                * smooth_step((p - p1) / self.alpha)
                * smooth_step((p2 - p) / self.alpha)
            )
            one_minus *= 1.0 - ind
        return 1.0 - one_minus


def smooth_indicator(region, alpha: float) -> SmoothIndicator:
    """Build the mollified characteristic function of `region` with margin alpha."""
    if not isinstance(region, PhaseSpaceRegion):
        region = PhaseSpaceRegion(region)
    return SmoothIndicator(region=region, alpha=alpha)


def ramp_to_constant(distance, width: float):
    """Antiderivative ramp: r(d) = int_0^d (1 - smooth_step(v/width)) dv.

    Starts with unit slope at d = 0 (all higher derivatives zero there) and
    saturates to the constant r(inf) = width/2.  Used to extend a field
    beyond a boundary with matched value and first derivative.
    """
    d = np.asarray(distance, dtype=float)
    v = np.linspace(0.0, 1.0, 257)
    integrand = 1.0 - smooth_step(v)
    cumulative = np.concatenate(
        [[0.0], np.cumsum((integrand[:-1] + integrand[1:]) / 2.0) * (v[1] - v[0])]
    )
    return width * np.interp(d / width, v, cumulative, right=cumulative[-1])
