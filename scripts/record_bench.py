#!/usr/bin/env python3
"""Record one BENCH_<n>.json at the repository root.

    python3 scripts/record_bench.py

Writes the next free BENCH_<n>.json.  Runs, one after another and each in a fresh process:
- perfbench/run.py on every workload of BENCHMARK.json at seed 0 for its
  run_seconds, with --trace 0 (end-to-end metrics, peak RSS) and --trace 1 (per-layer split);
- IMPORT_PROBES fresh interpreters that only `import adiband`, under the
  benchmark's BLAS cap (median wall time, peak RSS);
- the tier-1 tests (`python -m pytest -q --continue-on-collection-errors`);
- each acceptance suite (`python -m adiband.cli suite <name>`).

The benchmark caps BLAS at its own thread count; the tests and suites run
with the BLAS threads of the calling environment, recorded as given.  Run
it on a clean checkout: the file records the HEAD sha and whether tracked
files differ from it.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from adiband.harness import SUITE_NAMES  # noqa: E402

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBES = 5


def timed(cmd, env=None):
    """(wall seconds, exit code, peak RSS in MB, stdout) of one child process."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return wall, proc.returncode, usage.ru_maxrss / 1024, out


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def bench_workload(name, seconds):
    entry = {}
    for trace in (0, 1):
        cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "0",
               "--seconds", str(seconds), "--trace", str(trace)]
        _, code, _, out = timed(cmd)
        if code != 0:
            raise RuntimeError(f"{' '.join(cmd)} exited {code}:\n{out}")
        lines = out.strip().splitlines()
        detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        if trace == 0:
            entry.update(command=cmd[1:], correct=result["correct"], attempted=result["attempted"],
                         failed=result["failed"], end_to_end=metrics, peak_rss_mb=metrics["peak_rss_mb"],
                         scan_s_samples=detail["scan_s"], env=detail["env"])
        else:
            entry.update(per_layer_command=cmd[1:], per_layer=metrics)
        print(f"{name} --trace {trace}: done", flush=True)
    return entry


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = next(ROOT / f"BENCH_{n}.json" for n in range(1, 1000) if not (ROOT / f"BENCH_{n}.json").exists())

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    record = {
        "command": "python3 scripts/record_bench.py",
        "git_sha": git("rev-parse", "HEAD"),
        "tracked_changes": bool(git("status", "--porcelain", "--untracked-files=no")),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_tests_and_suites": {var: os.environ.get(var) for var in BLAS_VARS},
        "workloads": {},
    }
    for wl in spec["workloads"]:
        record["workloads"][wl["name"]] = bench_workload(wl["name"], spec["run_seconds"])
    record["blas_threads_benchmark"] = next(iter(record["workloads"].values()))["env"]["blas_threads"]

    cmd = [sys.executable, "-c", "import adiband"]
    probes = [timed(cmd, dict(env, **record["blas_threads_benchmark"])) for _ in range(IMPORT_PROBES)]
    for _, code, _, text in probes:
        if code != 0:
            raise RuntimeError(f"{' '.join(cmd)} exited {code}:\n{text}")
    walls = [wall for wall, _, _, _ in probes]
    record["import"] = {"command": cmd[1:], "wall_s": statistics.median(walls), "wall_s_samples": walls,
                        "peak_rss_mb": max(rss for _, _, rss, _ in probes)}
    print(f"import adiband: {record['import']['wall_s']:.3f} s, {record['import']['peak_rss_mb']:.1f} MB", flush=True)

    wall, code, rss, text = timed([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                                   "-p", "no:cacheprovider"], env)
    record["tier1"] = {"wall_s": wall, "exit_code": code, "peak_rss_mb": rss,
                       "summary": text.strip().splitlines()[-1]}
    print(f"tier-1: {wall:.1f} s, {record['tier1']['summary']}", flush=True)

    record["suites"] = {}
    for name in (s for s in SUITE_NAMES if s != "all"):
        wall, code, rss, _ = timed([sys.executable, "-m", "adiband.cli", "suite", name], env)
        record["suites"][name] = {"wall_s": wall, "passed": code == 0, "peak_rss_mb": rss}
        print(f"suite {name}: {wall:.2f} s, {'PASS' if code == 0 else 'FAIL'}", flush=True)

    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
