#!/usr/bin/env python3
"""Run the benchmark on a git revision and on this checkout in alternating pairs.

    python3 scripts/paired_bench.py REF

REF is any git revision (a sha, a branch, HEAD~1).  Its committed files are
exported to a temporary directory (`compare_outputs.exported`, `git
archive`); the checkout side is the working tree as it stands, uncommitted
edits included.  For each workload of BENCHMARK.json, 10 pairs run

    python3 perfbench/run.py --workload W --seed 0 --trace 0 --seconds S

once in each tree, from the tree's root, with S the `run_seconds` of
BENCHMARK.json.  Each run is a fresh process with bytecode writing off, and
the side that runs first alternates from pair to pair (REF first in pair 1).

It prints every pair's end-to-end metrics, then for each metric of
BENCHMARK.json's `end_to_end`: each side's median and quartiles, the pairs
the checkout wins by the metric's `better` (ties count for neither side),
and the checkout's median move relative to REF's median.  A move worse than
the metric's `bound` (a fraction of REF's median) is marked "PAST BOUND".
A metric whose REF runs spread wider than its bound (interquartile range
over median) is marked "unresolved", unless every checkout run is better
than every REF run.  It reads BENCHMARK.json only.  The exit status is 1
when a run fails or a median is PAST BOUND, 0 otherwise.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

from compare_outputs import exported

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10


def _run(tree: Path, workload: str, seconds) -> dict:
    """{metric: value} of one `perfbench/run.py` run of `workload` in `tree`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--trace", "0",
           "--seconds", str(seconds)]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return {name: m["value"] for name, m in json.loads(proc.stdout.strip().splitlines()[-1])["metrics"].items()}


def _worse(metric: dict, ref: float, new: float) -> float:
    """How much worse `new` is than `ref` by the metric's `better`, as a fraction of |ref| (negative: better)."""
    gap = new - ref if metric["better"] == "lower" else ref - new
    if ref == 0:
        return 0.0 if gap == 0 else math.copysign(math.inf, gap)
    return gap / abs(ref)


def _summary(metric: dict, pairs: list) -> tuple:
    """(the metric's summary line, whether its median is past its bound)."""
    name = metric["name"]
    ref = [r[name] for r, _ in pairs]
    new = [c[name] for _, c in pairs]
    (r1, ref_med, r3), (c1, new_med, c3) = (statistics.quantiles(v, n=4, method="inclusive") for v in (ref, new))
    wins = sum(_worse(metric, r, c) < 0 for r, c in zip(ref, new))
    move = _worse(metric, ref_med, new_med)
    spread = (r3 - r1) / abs(ref_med) if ref_med else 0.0
    all_better = all(_worse(metric, r, c) < 0 for r in ref for c in new)
    past = move > metric["bound"]
    flags = (["PAST BOUND"] if past else []) + (["unresolved"] if spread > metric["bound"] and not all_better else [])
    line = (f"  {name} [{metric['unit']}, {metric['better']} is better, bound {metric['bound']}]: "
            f"ref median {ref_med:.6g} (quartiles {r1:.6g}, {r3:.6g}), "
            f"checkout median {new_med:.6g} (quartiles {c1:.6g}, {c3:.6g}), "
            f"checkout wins {wins}/{len(pairs)}, median worse by {move:+.2%}" + "".join(f"  {f}" for f in flags))
    return line, past


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: paired_bench.py REF", file=sys.stderr)
        return 2
    ref = args[0]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    past_bound = False
    with exported(ref) as ref_tree:
        try:
            for workload in [w["name"] for w in spec["workloads"]]:
                pairs = []
                for k in range(PAIRS):
                    order = [(0, ref_tree), (1, ROOT)] if k % 2 == 0 else [(1, ROOT), (0, ref_tree)]
                    runs = {}
                    for side, tree in order:
                        runs[side] = _run(tree, workload, spec["run_seconds"])
                    pairs.append((runs[0], runs[1]))
                    shown = ", ".join(f"{m['name']} {runs[0][m['name']]:.6g} -> {runs[1][m['name']]:.6g}"
                                      for m in spec["end_to_end"] if m["name"] in runs[0])
                    print(f"{workload} pair {k + 1} ({'ref' if k % 2 == 0 else 'checkout'} first): {shown}", flush=True)
                print(f"{workload}: {ref} against the checkout, {len(pairs)} pairs")
                for metric in spec["end_to_end"]:
                    if metric["name"] in pairs[0][0]:
                        line, past = _summary(metric, pairs)
                        past_bound |= past
                        print(line, flush=True)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
    return 1 if past_bound else 0


if __name__ == "__main__":
    sys.exit(main())
