"""Correctness checks folded into the benchmark's ok_frac metric.

A scan point fails when
- its status is not "ok", or its error is not finite;
- a reference is given and the error differs from it by more than
  REL_TOL relative (the backend-agreement gate of the project's roadmap);
- its scan's fitted slope is missing or outside SLOPE_BAND, the acceptance
  band of the decoupling and effective suites (then every point of that
  scan fails).
"""

from __future__ import annotations

import math

REL_TOL = 1e-10
SLOPE_BAND = (0.75, 1.25)


def failed_points(points, slope, reference=None) -> int:
    """Number of failed points of one scan.

    `points` are ScanResult.points dicts; `reference` maps (eps, t) to the
    error recorded for seed 0, or is None for seeds without one.
    """
    lo, hi = SLOPE_BAND
    if slope is None or not lo <= slope <= hi:
        return len(points)
    failed = 0
    for pt in points:
        err = pt.get("error")
        if pt.get("status") != "ok" or err is None or not math.isfinite(err):
            failed += 1
        elif reference is not None:
            ref = reference.get((pt["eps"], pt["t"]))
            if ref is None or abs(err - ref) > REL_TOL * abs(ref):
                failed += 1
    return failed


def reference_map(entry) -> dict:
    """(eps, t) -> error from a reference file entry's [eps, t, error] rows."""
    return {(eps, t): err for eps, t, err in entry["points"]}
