"""The benchmark's workload configs, scanned as the benchmark scans them, stay inside
the reference gate of perfbench/checks.py at every point.

perfbench/reference.json holds the seed-0 errors of each workload, and the
benchmark counts a point as failed when its error leaves REL_TOL (relative)
of the recorded one.  The benchmark files are read, not imported as a
package, and not changed.  The sweep's cache, built before the benchmark's
timed phase, holds the propagators a cold scan builds, so the errors are
the same.  The effective-ladder references come from the dense BO solve;
the scans now apply the BO propagator matrix-free, and its eps = 0.025
point sits about 5e-11 from its reference, near the float64 floor of that
point.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from adiband.harness import ExperimentConfig, PropagatorCache, eps_scan

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", PERFBENCH / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CONFIGS = {
    "decoupling-ladder": "decoupling.json",
    "decoupling-sweep": "decoupling_sweep.json",
    "effective-ladder": "effective.json",
}


def _scan_inside_the_gate(workload):
    checks = _checks()
    entry = json.loads((PERFBENCH / "reference.json").read_text())["workloads"][workload]
    reference = checks.reference_map(entry)
    cfg = ExperimentConfig.from_json((PERFBENCH / "configs" / CONFIGS[workload]).read_text())
    res = eps_scan(cfg, PropagatorCache())
    assert sorted((p["eps"], p["t"]) for p in res.points) == sorted(reference)
    for p in res.points:
        ref = reference[p["eps"], p["t"]]
        assert p["status"] == "ok", p
        assert abs(p["error"] - ref) <= checks.REL_TOL * abs(ref), (p, ref)
    assert checks.failed_points(res.points, res.slope, reference) == 0


@pytest.mark.parametrize("workload", ["decoupling-ladder", "decoupling-sweep"])
def test_decoupling_workload_stays_inside_the_reference_gate(workload):
    _scan_inside_the_gate(workload)


def test_effective_workload_stays_inside_the_reference_gate():
    _scan_inside_the_gate("effective-ladder")
