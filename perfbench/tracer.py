"""Per-layer tracing of adiband from outside the package.

Tracer.install() replaces every module-level binding of each traced
function in every adiband module (and the traced methods on their classes)
by a wrapper that records a span (name, start, end, parent) in memory.
Tracer.uninstall() puts the originals back, so traced and untraced units
can alternate in one process.  Self time is computed from the spans:
a span's duration minus the durations of its direct children.

Counters taken at the same boundaries:
- propagation.diagonalize.n3_sum: sum of dim**3 over eigendecompositions;
- propagation.apply.bytes_computed: 2 * 16 * dim**2 per applied vector
  (two complex dense matvecs);
- semiclassics.force_evals / force_points: calls of the dE callable
  returned by band_energy_interpolant, and the positions they evaluate;
- harness.cache.gets / misses / hit_ratio: PropagatorCache.get calls and
  those that ran their builder.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from collections import Counter

import numpy as np

import adiband
from adiband import electronic, hamiltonians, harness, propagation, semiclassics, states

FUNCTIONS = (
    electronic.band_decompose,
    electronic.berry_connection,
    hamiltonians.assemble_full,
    hamiltonians.assemble_diag,
    hamiltonians.assemble_bo,
    hamiltonians.full_projection,
    hamiltonians.u_matrix,
    propagation.diagonalize,
    propagation.decoupling_error,
    propagation.effective_dynamics_error,
    semiclassics.hitting_times,
    semiclassics.phase_space_projection,
    semiclassics.weyl_quantize,
    semiclassics.band_energy_interpolant,
    states.coherent_state,
    states.lift_to_band,
    harness.standard_state_family,
    harness.eps_scan,
)

# (span name, class, attribute)
METHODS = (
    ("propagation.apply", propagation.SpectralPropagator, "apply"),
    ("harness.config_load", harness.ExperimentConfig, "from_json"),
    ("harness.validate", harness.ExperimentConfig, "validate"),
    ("harness.hitting_window", harness.ExperimentConfig, "hitting_window"),
)

COUNTERS = (
    "propagation.diagonalize.n3_sum",
    "propagation.apply.bytes_computed",
    "semiclassics.force_evals",
    "semiclassics.force_points",
    "harness.cache.gets",
    "harness.cache.misses",
)


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


SPAN_NAMES = tuple(span_name(fn) for fn in FUNCTIONS) + tuple(m[0] for m in METHODS)

# every metric of one traced unit, with its unit
UNIT_METRICS = {
    **{f"{name}.{stat}": ("count" if stat == "calls" else "s")
       for name in SPAN_NAMES for stat in ("calls", "s", "self_s")},
    **{name: ("bytes" if "bytes" in name else "count") for name in COUNTERS},
    "harness.cache.hit_ratio": "ratio",
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, unit label]
        self.counts = Counter()
        self._stack = []
        self._undo = []
        self._label = None
        self._t0 = time.perf_counter()

    # -- spans ----------------------------------------------------------------

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter() - self._t0, None,
                          stack[-1] if stack else -1, self._label])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter() - self._t0

        return wrapper

    # -- counting replacements --------------------------------------------------

    def _counting(self, fn):
        counts = self.counts
        if fn is propagation.diagonalize:
            def diagonalize(H, *args, **kwargs):
                counts["propagation.diagonalize.n3_sum"] += H.dim ** 3
                return fn(H, *args, **kwargs)
            return diagonalize
        if fn is semiclassics.band_energy_interpolant:
            def band_energy_interpolant(*args, **kwargs):
                E, dE = fn(*args, **kwargs)

                def counted_dE(q):
                    counts["semiclassics.force_evals"] += 1
                    counts["semiclassics.force_points"] += np.size(q)
                    return dE(q)

                return E, counted_dE
            return band_energy_interpolant
        return fn

    def _apply(self, fn):
        counts = self.counts

        def apply(prop, vec, t):
            nvec = 1 if np.ndim(vec) == 1 else np.shape(vec)[1]
            counts["propagation.apply.bytes_computed"] += 2 * 16 * prop.dim ** 2 * nvec
            return fn(prop, vec, t)

        return apply

    def _cache_get(self, fn):
        counts = self.counts

        def get(cache, key, builder):
            counts["harness.cache.gets"] += 1

            def counted_builder():
                counts["harness.cache.misses"] += 1
                return builder()

            return fn(cache, key, counted_builder)

        return get

    # -- install / uninstall ------------------------------------------------------

    def install(self):
        modules = [adiband] + [importlib.import_module(f"adiband.{m.name}")
                               for m in pkgutil.iter_modules(adiband.__path__)]
        for fn in FUNCTIONS:
            wrapped = self._span(span_name(fn), self._counting(fn))
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._set(mod, attr, wrapped)
        for name, cls, attr in METHODS:
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._span(name, raw.__func__)))
            elif attr == "apply":
                self._set(cls, attr, self._span(name, self._apply(raw)))
            else:
                self._set(cls, attr, self._span(name, raw))
        self._set(harness.PropagatorCache, "get", self._cache_get(harness.PropagatorCache.__dict__["get"]))
        return self

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- units and metrics ----------------------------------------------------------

    def run(self, label, fn, *args):
        """Call fn(*args) traced; return (result, metrics of this call)."""
        first = len(self.spans)
        self.counts.clear()
        self._label = label
        self.install()
        try:
            result = fn(*args)
        finally:
            self.uninstall()
            self._label = None
        return result, self.metrics(self.spans[first:], first)

    def metrics(self, spans, offset=0) -> dict:
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= offset:
                child[parent - offset] += end - start
        out = {m: 0 for m in UNIT_METRICS}
        for (name, start, end, _, _), covered in zip(spans, child):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - covered
        out.update({name: self.counts[name] for name in COUNTERS})
        gets = self.counts["harness.cache.gets"]
        out["harness.cache.hit_ratio"] = (gets - self.counts["harness.cache.misses"]) / gets if gets else 0.0
        return out

    def span_records(self):
        """Spans as dicts, for writing out at exit."""
        return [{"name": n, "start": s, "end": e, "parent": p, "unit": u}
                for n, s, e, p, u in self.spans]
