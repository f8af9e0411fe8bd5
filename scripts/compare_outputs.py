#!/usr/bin/env python3
"""Compare what this checkout and a git revision print, item by item.

    python3 scripts/compare_outputs.py REF

REF is any git revision (a sha, a branch, HEAD~1).  Its committed files are
exported to a temporary directory with `git archive`; the checkout side is
the working tree as it stands, uncommitted edits included.  Each side runs,
every item in a fresh process at one BLAS thread:
- every acceptance suite, `python -m adiband.cli suite <name> --output
  report.json`, run once: its stdout and the report file are compared as
  two items (the stdout shows the detail values as printed, which the
  JSON file may not tell apart, for example a numpy scalar);
- every shipped config under `src/adiband/configs/`, `python -m adiband.cli
  run <config> --output report.json`: its stdout and its report, two items;
  for a config with a window and a region (effective, berry, leakage) also
  the stdout of `python -m adiband.cli hitting-times <config>`;
- the canonical payload of each benchmark workload at seeds 0 and 3, from
  `perfbench/workloads.py` (`config_text` then `run_unit`), compared by `repr`;
- the stdout of every demo under `demos/`.

Children run in a temporary directory with bytecode writing off, so neither
tree gains a file.  One line is printed per item, "identical" or "differs";
an item whose two texts differ only in their numbers also gets the largest
relative difference of those numbers.  The exit status is 1 when any item
differs or fails on either side.
"""

from __future__ import annotations

import functools
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 3)
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
CONFIGS = Path("src") / "adiband" / "configs"

# prints repr(canonical_payload()) of one workload at one seed; argv: tree, workload, seed
PAYLOAD = """
import sys
tree, name, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path[:0] = [tree + "/src", tree + "/perfbench"]
import workloads
text = workloads.config_text(workloads.WORKLOADS[name], seed)
print(repr(workloads.run_unit(text, None).canonical_payload()))
"""


def _names(tree: Path):
    """(suite names, workload names, demo files, {config file: has a window and a region}) as `tree` defines them."""
    code = ("import sys; sys.path[:0] = [sys.argv[1] + '/src', sys.argv[1] + '/perfbench'];"
            "from adiband.harness import SUITE_NAMES; import workloads;"
            "print(' '.join(n for n in SUITE_NAMES if n != 'all')); print(' '.join(workloads.WORKLOADS))")
    suites, loads = _run(tree, [sys.executable, "-c", code, str(tree)]).splitlines()
    configs = {}
    for path in sorted((tree / CONFIGS).glob("*.json")):
        data = json.loads(path.read_text())
        configs[path.name] = data.get("window") is not None and data.get("region") is not None
    return suites.split(), loads.split(), sorted(p.name for p in (tree / "demos").glob("*.py")), configs


def _run(tree: Path, cmd, cwd=None) -> str:
    """stdout of `cmd` against the package in `tree`; raises with stderr when it fails."""
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else f"exit {proc.returncode}")
    return proc.stdout


def _items(tree: Path, names):
    """{item label: zero-argument function giving the item's output text} for `tree`."""
    suites, loads, demos, configs = names
    items = {}

    def stdout(*cmd):
        with tempfile.TemporaryDirectory() as workdir:
            return _run(tree, [sys.executable, *cmd], cwd=workdir)

    @functools.cache
    def reported(*args):
        """(stdout, report file) of one `adiband <args> --output report.json`; the relative path prints the same on both sides."""
        with tempfile.TemporaryDirectory() as workdir:
            out = _run(tree, [sys.executable, "-m", "adiband.cli", *args, "--output", "report.json"], cwd=workdir)
            return out, (Path(workdir) / "report.json").read_text()

    for name in suites:
        items[f"suite {name} --output"] = lambda name=name: reported("suite", name)[1]
        items[f"suite {name} stdout"] = lambda name=name: reported("suite", name)[0]
    for name, windowed in configs.items():
        path = str(tree / CONFIGS / name)
        items[f"run {name} --output"] = lambda path=path: reported("run", path)[1]
        items[f"run {name} stdout"] = lambda path=path: reported("run", path)[0]
        if windowed:
            items[f"hitting-times {name} stdout"] = lambda path=path: stdout("-m", "adiband.cli", "hitting-times", path)
    for name in loads:
        for seed in SEEDS:
            items[f"workload {name} seed {seed} canonical_payload"] = (
                lambda name=name, seed=seed: stdout("-c", PAYLOAD, str(tree), name, str(seed)))
    for name in demos:
        items[f"demo {name} stdout"] = lambda name=name: stdout(str(tree / "demos" / name))
    return items


NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def _number_gap(a: str, b: str):
    """The largest relative difference of the numbers of two texts that differ only in them, else None."""
    if NUMBER.split(a) != NUMBER.split(b):
        return None
    return max((abs(float(x) - float(y)) / max(abs(float(x)), abs(float(y)))
                for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)) if float(x) != float(y)), default=0.0)


def _outcome(fn):
    try:
        return fn(), None
    except RuntimeError as exc:
        return None, str(exc)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: compare_outputs.py REF", file=sys.stderr)
        return 2
    ref = args[0]
    with tempfile.TemporaryDirectory() as tmp:
        ref_tree = Path(tmp)
        archive = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT, capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", str(ref_tree)], input=archive.stdout, check=True)
        ours, theirs = _items(ROOT, _names(ROOT)), _items(ref_tree, _names(ref_tree))
        differs = 0
        for label in sorted(set(ours) | set(theirs)):
            if label not in ours or label not in theirs:
                verdict = f"differs (only in {'the checkout' if label in ours else ref})"
            else:
                (a, err_a), (b, err_b) = _outcome(ours[label]), _outcome(theirs[label])
                if err_a or err_b:
                    verdict = f"differs (failed: checkout {err_a!r}, {ref} {err_b!r})"
                else:
                    gap = None if a == b else _number_gap(a, b)
                    verdict = ("identical" if a == b else "differs" if gap is None
                               else f"differs (numbers only, largest relative difference {gap:.1e})")
            differs += verdict != "identical"
            print(f"{label}: {verdict}", flush=True)
    print(f"{differs} of {len(set(ours) | set(theirs))} items differ")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
