"""The benchmark's workload configs, scanned as the benchmark scans them, stay inside
the reference gate of perfbench/checks.py at every point.

perfbench/reference.json holds the seed-0 errors of each workload, and the
benchmark counts a point as failed when its error leaves REL_TOL (relative)
of the recorded one.  The benchmark files are read, not imported as a
package, and not changed.  The sweep's cache, built before the benchmark's
timed phase, holds the propagators a cold scan builds, so the errors are
the same.  The effective-ladder references come from dense solves of the
full and the BO H; the scans now apply both matrix-free, and the seed-0
points read +6.3e-13, +6.4e-12, +2.3e-12 and -5.15e-11 relative to them,
the last near the float64 floor of the eps = 0.025 point.

The three configs are scanned in one child interpreter with
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS set to 1, the cap
perfbench/run.py applies to the benchmark.  The matrix-free effective errors
do not depend on that cap: a second child scans effective-ladder at two
BLAS threads, and its errors must be the same floats, to the last bit.  (The
dense full H they replaced read -5.17e-11 at one thread and -9.71e-11 at
two.)
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

CONFIGS = {
    "decoupling-ladder": "decoupling.json",
    "decoupling-sweep": "decoupling_sweep.json",
    "effective-ladder": "effective.json",
}

# scans each (workload, config path) of argv[1] and prints {workload: {points, slope}}
SCAN = """
import json, sys
from adiband.harness import ExperimentConfig, PropagatorCache, eps_scan

out = {}
for workload, path in json.loads(sys.argv[1]).items():
    res = eps_scan(ExperimentConfig.from_file(path), PropagatorCache())
    out[workload] = {"points": res.points, "slope": res.slope}
print(json.dumps(out))
"""


def _checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", PERFBENCH / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _scan_in_child(workloads, threads):
    """{workload: {points, slope}} of the workloads, scanned in one child interpreter at `threads` BLAS threads."""
    paths = {workload: str(PERFBENCH / "configs" / CONFIGS[workload]) for workload in workloads}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **{var: str(threads) for var in BLAS_VARS})
    out = subprocess.run([sys.executable, "-c", SCAN, json.dumps(paths)], env=env, capture_output=True,
                         text=True, check=True)
    return json.loads(out.stdout)


@pytest.fixture(scope="module")
def scans():
    """{workload: {points, slope}} of every workload, from one child interpreter at one BLAS thread."""
    return _scan_in_child(CONFIGS, 1)


def _scan_inside_the_gate(scans, workload):
    checks = _checks()
    entry = json.loads((PERFBENCH / "reference.json").read_text())["workloads"][workload]
    reference = checks.reference_map(entry)
    res = scans[workload]
    assert sorted((p["eps"], p["t"]) for p in res["points"]) == sorted(reference)
    for p in res["points"]:
        ref = reference[p["eps"], p["t"]]
        assert p["status"] == "ok", p
        assert abs(p["error"] - ref) <= checks.REL_TOL * abs(ref), (p, ref)
    assert checks.failed_points(res["points"], res["slope"], reference) == 0


@pytest.mark.parametrize("workload", ["decoupling-ladder", "decoupling-sweep"])
def test_decoupling_workload_stays_inside_the_reference_gate(scans, workload):
    _scan_inside_the_gate(scans, workload)


def test_effective_workload_stays_inside_the_reference_gate(scans):
    _scan_inside_the_gate(scans, "effective-ladder")


def test_effective_errors_are_the_same_at_two_blas_threads(scans):
    two = _scan_in_child(["effective-ladder"], 2)["effective-ladder"]
    one = scans["effective-ladder"]
    assert [(p["eps"], p["t"]) for p in two["points"]] == [(p["eps"], p["t"]) for p in one["points"]]
    assert [repr(p["error"]) for p in two["points"]] == [repr(p["error"]) for p in one["points"]]
