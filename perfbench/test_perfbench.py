"""Tests of the benchmark's own checks, tracer and workloads.

    python3 -m pytest -q perfbench

They run on small grids and take a few seconds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from adiband import harness, propagation  # noqa: E402
from tracer import SPAN_NAMES, UNIT_METRICS, Tracer  # noqa: E402

@pytest.fixture
def reference():
    entry = json.loads((HERE / "reference.json").read_text())["workloads"]["decoupling-ladder"]
    points = [{"eps": e, "t": t, "error": err, "status": "ok"} for e, t, err in entry["points"]]
    return points, entry["slope"], checks.reference_map(entry)


def small_config(name, **overrides) -> str:
    """A workload's config on a 128-point grid with a ladder that it resolves."""
    data = json.loads(workloads.config_text(workloads.WORKLOADS[name], 0))
    data["grid"]["n_points"] = 128
    data["eps_ladder"] = [0.2, 0.1, 0.05]
    data.update(overrides)
    return json.dumps(data)


# -- checks ---------------------------------------------------------------------------


def test_reference_points_pass(reference):
    points, slope, ref = reference
    assert checks.failed_points(points, slope, ref) == 0
    points[1]["error"] *= 1 + 1e-11
    assert checks.failed_points(points, slope, ref) == 0


def test_point_off_reference_fails(reference):
    points, slope, ref = reference
    points[2]["error"] *= 1 + 2e-10
    assert checks.failed_points(points, slope, ref) == 1


def test_errored_and_nonfinite_points_fail(reference):
    points, slope, ref = reference
    points[0] = {"eps": points[0]["eps"], "t": points[0]["t"], "error": None, "status": "error",
                 "message": "ValueError: boom"}
    points[3]["error"] = math.nan
    assert checks.failed_points(points, slope, ref) == 2
    assert checks.failed_points(points, slope, None) == 2


def test_slope_out_of_band_fails_every_point(reference):
    points, _, ref = reference
    assert checks.failed_points(points, 1.3, ref) == len(points)
    assert checks.failed_points(points, 0.7, None) == len(points)
    assert checks.failed_points(points, None, None) == len(points)


# -- workloads ------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_zero_is_the_stored_config(name):
    wl = workloads.WORKLOADS[name]
    stored = json.loads((workloads.CONFIG_DIR / wl.config_file).read_text())
    assert json.loads(workloads.config_text(wl, 0)) == stored


def test_seeded_shift_is_deterministic_and_small():
    wl = workloads.WORKLOADS["effective-ladder"]
    base = json.loads(workloads.config_text(wl, 0))["state"]["params"]
    texts = {seed: workloads.config_text(wl, seed) for seed in range(1, 30)}
    assert texts[7] == workloads.config_text(wl, 7)
    assert len(set(texts.values())) == len(texts)
    region = harness.PhaseSpaceRegion(json.loads(texts[1])["region"])
    for text in texts.values():
        state = json.loads(text)["state"]["params"]
        assert abs(state["q0"] - base["q0"]) <= wl.max_shift
        assert abs(state["p0"] - base["p0"]) <= wl.max_shift
        assert region.contains(state["q0"], state["p0"])


# -- tracer ---------------------------------------------------------------------------


def test_cold_decoupling_scan_counts():
    tracer = Tracer()
    res, m = tracer.run("unit", workloads.run_unit, small_config("decoupling-ladder"), None)
    assert all(p["status"] == "ok" for p in res.points)
    assert m["propagation.diagonalize.calls"] == 6
    assert m["propagation.diagonalize.n3_sum"] == 6 * 384**3
    assert m["hamiltonians.assemble_diag.calls"] == 3
    assert m["propagation.decoupling_error.calls"] == 30
    assert m["propagation.apply.calls"] == 60
    assert m["propagation.apply.bytes_computed"] == 60 * 2 * 16 * 384**2
    assert m["electronic.band_decompose.calls"] == 6
    assert (m["harness.cache.gets"], m["harness.cache.misses"]) == (6, 6)
    assert m["harness.cache.hit_ratio"] == 0.0
    assert m["semiclassics.hitting_times.calls"] == 0
    assert m["harness.config_load.calls"] == m["harness.eps_scan.calls"] == 1
    for name in SPAN_NAMES:
        assert 0 <= m[f"{name}.self_s"] <= m[f"{name}.s"] + 1e-12


def test_warm_sweep_reuses_every_propagator():
    text = small_config("decoupling-sweep", times=[0.5, 1.0])
    tracer = Tracer()
    cache, setup = tracer.run("setup", workloads.build_cache, text)
    assert setup["propagation.diagonalize.calls"] == 6
    assert setup["harness.cache.misses"] == 6
    _, m = tracer.run("unit", workloads.run_unit, text, cache)
    assert m["propagation.diagonalize.calls"] == 0
    assert m["harness.cache.misses"] == 0
    assert m["harness.cache.gets"] == 2 * 6
    assert m["harness.cache.hit_ratio"] == 1.0
    assert m["propagation.apply.calls"] == 20 * 6


def test_force_evaluations_are_counted():
    text = small_config("effective-ladder", flow_dt=0.05)
    cfg = harness.ExperimentConfig.from_json(text)
    tracer = Tracer()
    window, m = tracer.run("unit", lambda: cfg.hitting_window())
    assert window == cfg.hitting_window()
    assert m["harness.hitting_window.calls"] == 1
    assert m["semiclassics.hitting_times.calls"] == 1
    # both directions run to the horizon of 50, two force calls per step
    assert m["semiclassics.force_evals"] >= 2 * 2 * int(50 / 0.05)
    assert m["semiclassics.force_points"] > m["semiclassics.force_evals"]


def test_uninstall_restores_every_binding():
    before = (harness.diagonalize, propagation.diagonalize, harness.eps_scan,
              propagation.SpectralPropagator.__dict__["apply"],
              harness.ExperimentConfig.__dict__["from_json"], harness.PropagatorCache.__dict__["get"])
    tracer = Tracer().install()
    assert harness.diagonalize is not before[0]
    assert harness.diagonalize is propagation.diagonalize
    tracer.uninstall()
    after = (harness.diagonalize, propagation.diagonalize, harness.eps_scan,
             propagation.SpectralPropagator.__dict__["apply"],
             harness.ExperimentConfig.__dict__["from_json"], harness.PropagatorCache.__dict__["get"])
    assert all(a is b for a, b in zip(before, after))


# -- the benchmark's declared contract ------------------------------------------------


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    traced = set(UNIT_METRICS) | {f"setup.{n}" for n in run.SETUP_LAYERS} | set(run.TRACE_METRICS)
    assert {m["name"] for m in spec["per_layer"]} == traced
    assert {m["name"] for m in spec["end_to_end"]} == {
        "scan_s", "setup_s", "peak_rss_mb", "ok_frac", "points_per_s"}


def test_run_refuses_a_tree_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decoupling-ladder", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
