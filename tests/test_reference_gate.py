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

The three configs are scanned in one child interpreter with
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS set to 1, the cap
perfbench/run.py applies to the benchmark, so the errors gated here are
rounded as the benchmark rounds them whatever BLAS threads the test run
has: at two threads the eps = 0.025 effective point reads -9.71e-11 relative
against the 1e-10 gate, at one -5.17e-11.
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


@pytest.fixture(scope="module")
def scans():
    """{workload: {points, slope}} of every workload, from one child interpreter at one BLAS thread."""
    paths = {workload: str(PERFBENCH / "configs" / name) for workload, name in CONFIGS.items()}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **{var: "1" for var in BLAS_VARS})
    out = subprocess.run([sys.executable, "-c", SCAN, json.dumps(paths)], env=env, capture_output=True,
                         text=True, check=True)
    return json.loads(out.stdout)


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
