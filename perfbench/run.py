#!/usr/bin/env python3
"""adiband benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload decoupling-ladder --seed 0 --seconds 20 --trace 0

Run from the repository root; the package is imported from ./src.  The
BLAS thread cap is set here, before numpy loads.  Set-up (timed as
setup_s) is the median of IMPORT_PROBES fresh-interpreter imports of
adiband, plus, for a workload with a warm cache, the median of
SETUP_REPEATS cache builds.  The timed phase then repeats the workload's
unit (config JSON -> ScanResult) until --seconds have passed, at least
once, and reports the median.

With --trace 1 it alternates untraced and traced units (at least one of
each), reports per-layer metrics (the lower median over traced units, so counts stay whole) and writes
the spans to perfbench/out/.

Standard output: one JSON line of details (run environment, every sample),
then, as the last line, the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: on a shared two-core host, two threads made scan_s spread
# 15-20% between runs against under 3% with one.
BLAS_CAP = 1
IMPORT_PROBES = 5
SETUP_REPEATS = 2
# set-up layers reported by a traced run, next to the timed unit's layers
SETUP_LAYERS = ("propagation.diagonalize.calls", "propagation.diagonalize.s",
                "hamiltonians.assemble_diag.s", "harness.cache.misses")
TRACE_METRICS = ("trace.scan_s", "trace.untraced_scan_s", "trace.overhead_s")
PROBE = "import adiband, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"


def cap_blas_threads() -> int:
    """Cap BLAS threads at min(BLAS_CAP, usable cores) for this process and its children."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(min(BLAS_CAP, nproc))
    os.environ["PYTHONPATH"] = str(SRC)
    return nproc


def import_seconds() -> float:
    """Wall time from spawning a fresh interpreter until it has imported adiband."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", PROBE], cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"import probe failed (exit {code})")
    return elapsed


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_environment(nproc: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cpu": cpu_model(),
        "git_sha": git_sha(),
    }


def main() -> int:
    nproc = cap_blas_threads()
    if not (SRC / "adiband" / "__init__.py").is_file():
        print(f"no adiband package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import adiband

    if Path(adiband.__file__).resolve().parent != SRC / "adiband":
        print(f"imported adiband from {adiband.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import checks
    import workloads
    from tracer import UNIT_METRICS, Tracer

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload]
    text = workloads.config_text(wl, args.seed)
    points_per_unit = workloads.point_count(text)
    reference = None
    if args.seed == 0:
        ref_file = json.loads((HERE / "reference.json").read_text())
        reference = checks.reference_map(ref_file["workloads"][wl.name])
    tracer = Tracer() if args.trace else None

    # -- set-up ---------------------------------------------------------------
    import_s = [import_seconds() for _ in range(IMPORT_PROBES)]
    warmup_s, cache, setup_layers = [], None, {}
    for _ in range(SETUP_REPEATS if wl.warm_cache else 0):
        cache = None  # release the previous cache before building the next
        t0 = time.perf_counter()
        if tracer:
            cache, setup_layers = tracer.run("setup", workloads.build_cache, text)
        else:
            cache = workloads.build_cache(text)
        warmup_s.append(time.perf_counter() - t0)
    setup_s = statistics.median(import_s) + (statistics.median(warmup_s) if warmup_s else 0.0)

    # -- timed phase --------------------------------------------------------------
    scan_s, traced_s, unit_layers, slopes = [], [], [], []
    attempted = failed = 0
    t_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(scan_s) > len(traced_s)
        t0 = time.perf_counter()
        if traced:
            res, layers = tracer.run(f"unit{len(scan_s) + len(traced_s)}", workloads.run_unit, text, cache)
            traced_s.append(time.perf_counter() - t0)
            unit_layers.append(layers)
        else:
            res = workloads.run_unit(text, cache)
            scan_s.append(time.perf_counter() - t0)
        attempted += len(res.points)
        failed += checks.failed_points(res.points, res.slope, reference)
        slopes.append(res.slope)
        if time.perf_counter() - t_start >= args.seconds and (tracer is None or traced_s):
            break

    # -- report ---------------------------------------------------------------------
    if tracer:
        metrics = {name: {"value": statistics.median_low([u[name] for u in unit_layers]), "unit": unit}
                   for name, unit in UNIT_METRICS.items()}
        for name in SETUP_LAYERS:
            metrics[f"setup.{name}"] = {"value": setup_layers.get(name, 0), "unit": UNIT_METRICS[name]}
        traced_scan, untraced_scan = statistics.median(traced_s), statistics.median(scan_s)
        for name, value in zip(TRACE_METRICS, (traced_scan, untraced_scan, traced_scan - untraced_scan)):
            metrics[name] = {"value": value, "unit": "s"}
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{wl.name}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(tracer.span_records()))
    else:
        median_scan = statistics.median(scan_s)
        metrics = {
            "scan_s": {"value": median_scan, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            "ok_frac": {"value": 1.0 - failed / attempted, "unit": "ratio"},
            "points_per_s": {"value": points_per_unit / median_scan, "unit": "1/s"},
        }
    detail = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": run_environment(nproc), "points_per_unit": points_per_unit,
        "import_s": import_s, "warmup_s": warmup_s, "scan_s": scan_s, "traced_scan_s": traced_s,
        "slopes": slopes,
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
