#!/usr/bin/env python3
"""Regenerate the benchmark's recorded files, from the repository root.

    python3 perfbench/record.py reference  # perfbench/reference.json: seed-0 error of every scan point
    python3 perfbench/record.py baseline   # perfbench/baseline.json: seed 0, one untraced and one traced run each

The reference is the oracle of the ok_frac metric; record it again only
when a change is meant to move the numbers, and say so.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run

BENCHMARK = run.ROOT / "BENCHMARK.json"


def record_reference():
    import workloads

    out = {"seed": 0, "workloads": {}}
    for wl in workloads.WORKLOADS.values():
        res = workloads.run_unit(workloads.config_text(wl, 0), None)
        if any(p["status"] != "ok" for p in res.points):
            raise RuntimeError(f"{wl.name}: a scan point failed; no reference recorded")
        out["workloads"][wl.name] = {
            "slope": res.slope,
            "points": [[p["eps"], p["t"], p["error"]] for p in res.points],
        }
        print(wl.name, "slope", res.slope, flush=True)
    (run.HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n")


def bench(workload: str, seconds: int, trace: int):
    """(command, detail, result) of one run.py run at seed 0."""
    cmd = ["perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run([sys.executable, *cmd], cwd=run.ROOT, capture_output=True, text=True,
                         timeout=600, check=True)
    lines = out.stdout.strip().splitlines()
    return cmd, json.loads(lines[-2])["detail"], json.loads(lines[-1])


def record_baseline():
    import workloads

    spec = json.loads(BENCHMARK.read_text())
    out = {"command": "python3 perfbench/record.py baseline", "workloads": {}}
    for wl in workloads.WORKLOADS.values():
        cmd0, detail, plain = bench(wl.name, spec["run_seconds"], 0)
        cmd1, traced_detail, traced = bench(wl.name, spec["run_seconds"], 1)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        share = sum(layers[k] for k in wl.dominant) / layers["trace.scan_s"]
        out["env"] = detail["env"]
        out["workloads"][wl.name] = {
            "end_to_end": {"command": ["python3", *cmd0], "detail": detail, "result": plain},
            "per_layer": {"command": ["python3", *cmd1], "detail": traced_detail, "result": traced},
            "dominant_layers": list(wl.dominant),
            "dominant_share": share,
            "trace_overhead_s": layers["trace.overhead_s"],
        }
        print(f"{wl.name}: scan_s {plain['metrics']['scan_s']['value']:.3f}, "
              f"dominant share {share:.3f}", flush=True)
    (run.HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    run.cap_blas_threads()
    sys.path.insert(0, str(run.SRC))
    what = sys.argv[1] if len(sys.argv) > 1 else ""
    if what == "reference":
        record_reference()
    elif what == "baseline":
        record_baseline()
    else:
        sys.exit(__doc__)
