"""The benchmark's workloads: a config, a seeded launch-point shift, a set-up
step and one timed unit each, all through adiband's public API.

A timed unit starts from the config's JSON text and ends with the finished
ScanResult, so it includes ExperimentConfig.from_json and its validate().
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from adiband import harness
from adiband.harness import ExperimentConfig, PropagatorCache

CONFIG_DIR = Path(__file__).resolve().parent / "configs"


@dataclass(frozen=True)
class Workload:
    name: str
    config_file: str
    # Largest seeded shift of the launch points, in q and in p.  Shifted
    # decoupling centers stay at least 2.5 from the edges of the box [-4, 4];
    # the effective launch point stays inside its region, and its slope
    # (1.20 at seed 0) inside the band.
    max_shift: float
    warm_cache: bool  # build every propagator during set-up
    dominant: tuple  # traced layers expected to take most of scan_s


WORKLOADS = {
    w.name: w
    for w in (
        Workload("decoupling-ladder", "decoupling.json", max_shift=0.1, warm_cache=False,
                 dominant=("propagation.diagonalize.s", "hamiltonians.assemble_diag.s")),
        Workload("effective-ladder", "effective.json", max_shift=0.05, warm_cache=False,
                 dominant=("semiclassics.hitting_times.s",)),
        Workload("decoupling-sweep", "decoupling_sweep.json", max_shift=0.1, warm_cache=True,
                 dominant=("propagation.decoupling_error.s",)),
    )
}


def config_text(workload: Workload, seed: int) -> str:
    """The workload's config JSON; seed 0 verbatim, other seeds with shifted launch points."""
    data = json.loads((CONFIG_DIR / workload.config_file).read_text())
    if seed != 0:
        rng = random.Random(seed)
        dq = round(rng.uniform(-workload.max_shift, workload.max_shift), 6)
        dp = round(rng.uniform(-workload.max_shift, workload.max_shift), 6)
        state = data["state"]
        if "family_params" in state:
            fam = state["family_params"]
            fam["q_centers"] = [q + dq for q in fam["q_centers"]]
            fam["p_centers"] = [p + dp for p in fam["p_centers"]]
            fam["wkb"][0] += dq
        else:
            state["params"]["q0"] += dq
            state["params"]["p0"] += dp
    return json.dumps(data, sort_keys=True)


def point_count(text: str) -> int:
    data = json.loads(text)
    return len(data["eps_ladder"]) * len(data["times"])


def build_cache(text: str) -> PropagatorCache:
    """A cache holding every propagator the scan of `text` will ask for."""
    cfg = ExperimentConfig.from_json(text)
    model, grid, band = cfg.build_model(), cfg.build_grid(), cfg.build_band()
    cache = PropagatorCache()
    for eps in cfg.eps_ladder:
        cache.full(cfg, model, grid, eps)
        cache.diag(cfg, model, grid, band, eps)
    return cache


def run_unit(text: str, cache: PropagatorCache | None):
    """One timed unit: parse and validate the config, then scan it."""
    cfg = ExperimentConfig.from_json(text)
    return harness.eps_scan(cfg, cache if cache is not None else PropagatorCache())
