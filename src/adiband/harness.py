"""Experiment orchestration: eps ladders, slope fits, acceptance suites, and
machine-readable reports.

A single JSON document configures a scan (see ExperimentConfig); the named
acceptance suites below load frozen configurations, `configs/<suite>.json`
next to this module, whose geometry
(windows, phase-space regions, launch points, times) was chosen so that
each measured quantity sits in its asymptotic regime on the standard
ladder eps = 0.2 ... 0.025 at desk-scale grids.

A suite is its criteria in report order (`_SUITES`).  A criterion maps
(seed, cache) to its reports; a rate criterion, the fitted slope of one
scan of an acceptance configuration within [lo, hi], is one `_rate` entry,
and a check with its own logic is a small function.

Determinism: every scan is a pure function of its configuration; reports
serialize with sorted keys and repr floats, so identical configurations
produce byte-identical files.  Wall-clock timings are collected but kept
out of the canonical payload.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import namedtuple
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .electronic import BandData, band_decompose, berry_connection, grad_projection, riesz_projection
from .grids import Grid1D, MolecularWave, NuclearWave, make_grid, norm, spectral_derivative_matrix
from .hamiltonians import assemble_bo, assemble_full, bo_operator, molecular_operator, u_map, u_star_map
from .identities import commutator_inverse, commutator_inverse_residual
from .indicators import PhaseSpaceRegion, smooth_indicator
from .models import ElectronicModel, get_model
from .propagation import (
    ChebyshevPropagator,
    DecouplingPair,
    decoupling_error,
    diagonalize,
    diagonalize_pair,
    effective_dynamics_error,
    evolve,
)
from .semiclassics import (
    Symbol,
    apply_phase_space_projection,
    band_energy_interpolant,
    boundary_leakage,
    classical_flow,
    egorov_residual,
    hitting_times,
    reduced_observable_residual,
    weyl_quantize,
    wigner_marginal,
)
from .states import (
    _check_coherent_center, _coherent_values, _gaussian, _wkb_normalized,
    coherent_state, envelope, lift_to_band, sharp_momentum_state, wkb_state,
)

__all__ = [
    "ExperimentConfig",
    "ScanResult",
    "fit_loglog",
    "eps_scan",
    "run_suite",
    "emit_report",
    "load_result",
    "SUITE_NAMES",
    "FUNCTIONALS",
]

SCHEMA_VERSION = 1


def _document_fields(data, cls, what: str) -> dict:
    """The fields of a loaded document for the dataclass `cls`, without `schema_version`.

    Refused, in order: a document that is not a JSON object (an array, a
    number, null), a `schema_version` other than SCHEMA_VERSION (absent is
    current), a field `cls` does not have, and a required field the
    document lacks; `what` names the document in the refusal.
    """
    if not isinstance(data, dict):
        raise ValueError(f"the document must be a JSON object, got {data!r:.40}")
    version = data.pop("schema_version", SCHEMA_VERSION)
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(f"schema_version {version!r} is not {SCHEMA_VERSION}")
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    missing = [f.name for f in fields(cls) if f.name not in data and f.default is f.default_factory is MISSING]
    if unknown or missing:
        raise ValueError(f"unknown {what} fields {unknown}" if unknown else f"missing {what} fields {missing}")
    return data


# ---------------------------------------------------------------------------
# configuration


def _wkb_functions(center, width, amp, k):
    """(f, S, dS) of the WKB packet with Gaussian amplitude (center, width) and phase amp*sin(k X)."""
    return (
        lambda X: _gaussian(X, center, width),
        lambda X: amp * np.sin(k * np.asarray(X)),
        lambda X: amp * k * np.cos(k * np.asarray(X)),
    )


def _wkb_wave(grid, eps, center, width, amp, k):
    """WKB packet with Gaussian amplitude (center, width) and phase amp*sin(k X)."""
    return wkb_state(grid, eps, *_wkb_functions(center, width, amp, k))


# the constructor of each state family; `state.params` are its keyword arguments
_STATE_FAMILIES = {"coherent": coherent_state, "sharp_momentum": sharp_momentum_state, "wkb": _wkb_wave}


def _is_number(value) -> bool:
    """Whether `value` is a real number: an int or a float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite_numbers(values) -> bool:
    """Whether `values` is a list (or tuple) of finite real numbers."""
    return isinstance(values, (list, tuple)) and all(_is_number(v) and abs(v) <= sys.float_info.max for v in values)


def _param_kind_error(family, key, value):
    """What `state.params[key]` of `family` must be, or None when `value` is that.

    Every parameter is a finite number, except the coherent `profile`, an `envelope` name.
    """
    if (family, key) == ("coherent", "profile"):
        try:
            envelope(value)
        except KeyError:
            return "an envelope name"
        return None
    if not _finite_numbers([value]):
        return "a finite real number"
    return None


def _built(name, build, errors=(RuntimeError, ValueError)):
    """build(); one of `errors` is refused by a ValueError that names `name` and quotes the builder's message."""
    try:
        return build()
    except errors as exc:
        raise ValueError(f"cannot build the {name}: {exc}") from None


# the keys of the `grid` and `model` dicts, which build_grid and build_model read
_SYSTEM_KEYS = {"grid": {"x_min", "x_max", "n_points"}, "model": {"tag", "params"}}

# the config fields every scan reads
_READ_BY_ALL = {"model", "grid", "eps_ladder", "functional", "times", "band_indices", "lift_band_index",
                "window", "delta", "fit_residual_threshold", "state"}


@dataclass
class ExperimentConfig:
    """One scan: a model system, a ladder of eps values, and a functional."""

    model: dict
    grid: dict
    eps_ladder: list
    functional: str
    band_indices: list = field(default_factory=lambda: [0])
    lift_band_index: int | None = None
    window: list | None = None
    delta: float = 0.5
    region: list | None = None
    alpha: float = 0.3
    times: list = field(default_factory=lambda: [1.0])
    state: dict = field(default_factory=lambda: {"family": "coherent", "params": {"q0": 0.0, "p0": 0.5}})
    symbol: str | None = None
    include_a_geo: bool = True
    energy_cutoff: float | None = None
    fit_residual_threshold: float = 0.5
    flow_dt: float = 1e-3

    # (_content(), {key: value}): the validation, each band set and the hitting window
    # of that content (see `_kept`); not a dataclass field
    _store = None

    def _kept(self, key, build):
        """build(), kept in the config's one store under `key` while the content is what it was built for.

        The store is keyed by `_content()`, so a config changed in place
        (`cfg.times[0] = 50.0`, `cfg.delta = 0.3`) finds it empty and builds
        anew.  A build that raises is not kept: it raises again on the next call.
        """
        text = self._content()
        if self._store is None or self._store[0] != text:
            self._store = (text, {})
        store = self._store[1]
        if key not in store:
            store[key] = build()
        return store[key]

    def validate(self):
        """Check the configuration and return it.

        The verdict is kept in the config's store (`_kept`): validate()
        returns at once while the content is what it last passed, and checks
        a changed config again.  A field JSON cannot write (a numpy float32,
        a set) is refused by name first, since the store's key is written
        from every field.
        """
        for f in fields(self):
            try:
                json.dumps(getattr(self, f.name), sort_keys=True)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{f.name} must hold only JSON values, got {getattr(self, f.name)!r}: {exc}") from None
        self._kept("validated", self._check)
        return self

    def _check(self):
        """Refuse a configuration that a scan would misread, ignore or fail on at every point.

        The fields are checked by kind first.  Then what a row builds is
        built, with the row's own builders, so a config that loads has a
        system every row can build (`_check_system`), every input a row
        builds that does not depend on eps, and a state set some row can
        build (`_check_states`), and the rows trust them.  The inputs that
        do not depend on eps are chosen by what the functional reads
        (`FUNCTIONALS`): the band set and the lift band (`build_band`, kept
        for the rows), which must be one band; on it the BO operator when
        the functional reads `include_a_geo`, and the band-energy
        interpolant when it reads `flow_dt` (kept, and read by the hitting
        window and the rows); and the region's smooth indicator when it
        reads `region`.  A build that fails is refused with its builder's
        message, so `band_decompose` alone rules which band indices and
        which window a band takes.
        """
        eps = self.eps_ladder
        if not isinstance(eps, (list, tuple)) or not all(_is_number(e) for e in eps):
            raise ValueError(f"eps_ladder must be a list of real numbers, got {eps!r}")
        if len(eps) < 3:
            raise ValueError("eps ladder needs at least 3 values")
        if any(not (0 < e < 1) for e in eps):
            raise ValueError(f"eps values must lie in (0, 1): {eps}")
        if not all(eps[i] > eps[i + 1] for i in range(len(eps) - 1)):
            raise ValueError(f"eps ladder must be strictly decreasing: {eps}")
        times = self.times
        if not (times and _finite_numbers(times)):
            raise ValueError(f"times must be a non-empty list of finite real numbers, got {times!r}")
        if self.energy_cutoff is not None and not _finite_numbers([self.energy_cutoff]):
            raise ValueError(f"energy_cutoff must be null or a finite real number, got {self.energy_cutoff!r}")
        for name in ("alpha", "delta", "flow_dt", "fit_residual_threshold"):
            value = getattr(self, name)
            if not (_finite_numbers([value]) and value > 0):
                raise ValueError(f"{name} must be a positive finite real number, got {value!r}")
        if not isinstance(self.include_a_geo, bool):
            raise ValueError(f"include_a_geo must be true or false, got {self.include_a_geo!r}")
        if not (self.symbol is None or (isinstance(self.symbol, str) and self.symbol in _SYMBOLS)):
            raise ValueError(f"symbol must be null or one of {sorted(_SYMBOLS)}, got {self.symbol!r}")
        if self.functional not in FUNCTIONALS:
            raise ValueError(
                f"unknown functional {self.functional!r}; available: {sorted(FUNCTIONALS)}"
            )
        self._check_system()
        self._check_reads()
        reads = FUNCTIONALS[self.functional].reads
        # band_decompose takes a bare index as a band set of one
        if not isinstance(self.band_indices, (list, tuple)):
            raise ValueError(f"band_indices must be a list of band indices, got {self.band_indices!r}")
        if self.energy_cutoff is not None:
            # H >= min s + min spec H_e(X_i) by Weyl's inequality, and the symbol's minimum is 0 at every eps
            floor = molecular_operator(self.build_model(), self.build_grid()).spectral_bounds(eps[0])[0]
            if self.energy_cutoff < floor:
                raise ValueError(f"energy_cutoff {self.energy_cutoff} lies below the spectrum of H, which is "
                                 f">= {floor:.6g} (the least fiber eigenvalue): it annihilates every state")
        if self.window is not None and not (_finite_numbers(self.window) and len(self.window) == 2):
            raise ValueError(f"window must be null or a list of two finite real numbers, got {self.window!r}")
        _built("band set", self.build_band)
        # every functional lifts its states onto, or evolves on, one band: the lift band
        lift = _built("lift band", self.lift_band)
        if lift.chi is None:
            raise ValueError(f"the lift band must be one band: set lift_band_index, or give band_indices one index; "
                             f"got band_indices {self.band_indices!r} and lift_band_index null")
        if "include_a_geo" in reads:
            _built("BO operator", lambda: bo_operator(lift, include_a_geo=self.include_a_geo))
        if "flow_dt" in reads:
            _built("band-energy interpolant", self._dE)
        self._check_states()
        if "region" in reads:
            missing = [name for name in ("window", "region") if getattr(self, name) is None]
            if missing:
                raise ValueError(f"{self.functional} needs {missing}; got null")
            PhaseSpaceRegion(self.region).check_inside(self.window, self.delta)
            _built("region's smooth indicator", lambda: smooth_indicator(self.build_region(), self.alpha))
        if self.functional == "effective_dynamics":
            t_minus, t_plus = self.hitting_window()
            bad = [t for t in self.times if not (t_minus <= t <= t_plus)]
            if bad:
                raise ValueError(
                    f"times {bad} outside the hitting-time window "
                    f"[{t_minus:.4f}, {t_plus:.4f}] computed for this region"
                )

    def _check_system(self):
        """Refuse a `grid` or `model` key that no builder reads, and a grid or model that cannot be built.

        Each model parameter must be a finite real number or a list of them,
        as `state.params` are.  The model is then built and its fiber stack
        H_e(X_i) formed on the whole grid (`ElectronicModel.h_batch`), the
        stack every row's band decomposition and molecular operator read, so
        a model that is not finite and Hermitian at some grid point is
        refused here and not by every scan row.  No row reads dH_e/dX.
        """
        def build_fibers():
            for key, value in dict(self.model.get("params", {})).items():
                if not (_finite_numbers([value]) or _finite_numbers(value)):
                    raise ValueError(f"params[{key!r}] must be a finite real number or a list of them, got {value!r}")
            self.build_model().h_batch(self.build_grid().x)

        for name, build in (("grid", self.build_grid), ("model", build_fibers)):
            if not isinstance(getattr(self, name), dict):
                raise ValueError(f"{name} must be a JSON object, got {getattr(self, name)!r}")
            unknown = sorted(set(getattr(self, name)) - _SYSTEM_KEYS[name])
            if unknown:
                raise ValueError(f"unknown {name} keys {unknown}; {name} reads {sorted(_SYSTEM_KEYS[name])}")
            _built(f"{name} {getattr(self, name)}", build, (AssertionError, KeyError, TypeError, ValueError))

    def _check_reads(self):
        """Refuse a field off its default, a state key or a state parameter the functional does not read."""
        _, reads, keys, sub = FUNCTIONALS[self.functional]
        defaults = {f.name: f.default if f.default_factory is MISSING else f.default_factory() for f in fields(self)}
        unread = [name for name, d in defaults.items() if name not in _READ_BY_ALL | reads and getattr(self, name) != d]
        if unread:
            raise ValueError(f"{self.functional} does not read {unread}; leave them at their defaults")
        if set(self.state) != set(keys):
            raise ValueError(f"{self.functional} reads state keys {sorted(keys)}, got {sorted(self.state)}")
        nested = self.state[keys[-1]]
        if sub is None:
            family = self.state["family"]
            if family not in _STATE_FAMILIES:
                raise ValueError(f"unknown state family {family!r}; available: {sorted(_STATE_FAMILIES)}")
            try:
                inspect.signature(_STATE_FAMILIES[family]).bind(None, None, **nested)
            except TypeError as exc:
                raise ValueError(f"state.{keys[-1]} do not fit the {family} constructor: {exc}") from None
            for key, value in nested.items():
                kind = _param_kind_error(family, key, value)
                if kind:
                    raise ValueError(f"state.{keys[-1]}[{key!r}] of the {family} family must be {kind}, got {value!r}")
        elif set(nested) != sub:
            raise ValueError(f"{self.functional} reads state.{keys[-1]} keys {sorted(sub)}, got {sorted(nested)}")
        else:
            # the number lists of the decoupling family and the observable-pairing centers: (key, form, check)
            for key, form, ok in (
                ("q_centers", "a list of finite real numbers", _finite_numbers),
                ("p_centers", "a list of finite real numbers", _finite_numbers),
                ("wkb", "4 finite real numbers (center, width, amp, k)", lambda v: _finite_numbers(v) and len(v) == 4),
                ("centers", "a list of [q0, p0] pairs of finite real numbers, not empty",
                 lambda v: isinstance(v, (list, tuple)) and v and all(_finite_numbers(c) and len(c) == 2 for c in v)),
            ):
                if key in nested and not ok(nested[key]):
                    raise ValueError(f"state.{keys[-1]}[{key!r}] must be {form}, got {nested[key]!r}")
        if self.functional == "decoupling" and self.state["family"] != "coherent":
            raise ValueError(f"decoupling needs the coherent state family, got {self.state['family']!r}")

    def _check_states(self):
        """Refuse a state set that the row's own builder refuses at every eps of the ladder.

        At each eps, from the largest, the row's whole state set is built
        until one eps holds it: the decoupling family's lattice and WKB row
        (`_lattice_block`, the block `standard_state_family` lifts), the
        observable-pairing centers (`_lattice_block`, the block that row
        lifts), or a single-state functional's state by its family
        constructor.  A coherent center's halo 5 sqrt(eps) and its momentum
        window, the sharp-momentum bound 0.8 eps max |k| and the seam's
        winding 2 pi eps change with eps, so a set that fits at one eps
        loads, and its other rows report their refusal; a set that fits at
        none is refused with the refusal at each eps.  A finite parameter
        that overflows a constructor (a boost or k of 1e308) is refused by
        the non-finite state it leaves, not by a floating-point warning.
        """
        _, _, keys, sub = FUNCTIONALS[self.functional]
        params, grid, refusals = self.state[keys[-1]], self.build_grid(), []
        for eps in self.eps_ladder:
            try:
                with np.errstate(all="ignore"):
                    if sub is None:
                        _STATE_FAMILIES[self.state["family"]](grid, eps, **params)
                    else:  # the observable-pairing centers, or the decoupling lattice and its WKB row
                        centers = params.get("centers") or [
                            (q0, p0) for q0 in params["q_centers"] for p0 in params["p_centers"]]
                        _lattice_block(grid, eps, centers, params.get("wkb"))
                return
            except ValueError as exc:
                refusals.append(f"at eps {eps}: {exc}")
        raise ValueError(f"state.{keys[-1]} fits no eps of the ladder; {'; '.join(refusals)}")

    # -- builders ---------------------------------------------------------

    def build_grid(self) -> Grid1D:
        return make_grid(self.grid["x_min"], self.grid["x_max"], self.grid["n_points"])

    def build_model(self) -> ElectronicModel:
        return get_model(self.model["tag"], **self.model.get("params", {}))

    def build_band(self, indices=None) -> BandData:
        """The band set `indices` (default `band_indices`), a list of band indices, decomposed once per content.

        The indices go to `band_decompose` as given, so its rule alone says
        which band sets there are: 0.5 or true is no band index.  Each band
        set is kept in the config's store (`_kept`) under the indices' JSON
        text, so validation and every scan of an unchanged config share its
        bands, and a config changed since gets new ones.
        """
        indices = self.band_indices if indices is None else indices
        window = tuple(self.window) if self.window is not None else None
        return self._kept(("band", json.dumps(indices)), lambda: band_decompose(
            self.build_model(), self.build_grid(), indices, window=window, delta=self.delta))

    def build_region(self) -> PhaseSpaceRegion:
        if self.region is None:
            raise ValueError("configuration has no phase-space region")
        return PhaseSpaceRegion(self.region)

    def hitting_window(self):
        """The hitting-time window of the region, on the lift band's window and margin.

        Computed once per content and kept in the config's store (`_kept`):
        validation of an effective-dynamics config computes it, and every
        later call of the unchanged config reads it.
        """
        def compute():
            band = self.lift_band()
            return hitting_times(self.build_region(), band.window, band.delta, self._dE(), alpha=self.alpha,
                                 dt=self.flow_dt)

        return self._kept("window", compute)

    def _dE(self):
        """The derivative dE of the lift band's `band_energy_interpolant`, kept in the config's store (`_kept`)."""
        return self._kept("dE", lambda: band_energy_interpolant(self.lift_band())[1])

    def lift_band(self) -> BandData:
        """The band states are lifted to: `[lift_band_index]`, or else `band_indices`."""
        return self.build_band(self.band_indices if self.lift_band_index is None else [self.lift_band_index])

    def make_state(self, band, eps):
        """(lifted molecular wave, nuclear wave, classical density) of the configured family, on the band's grid."""
        wave, rho = _STATE_FAMILIES[self.state["family"]](band.grid, eps, **self.state["params"])
        return lift_to_band(wave, band), wave, rho

    # -- (de)serialization --------------------------------------------------

    def _content(self) -> str:
        """The fields as one JSON text, the key of the config's store: what to_json() holds, without its copy."""
        return json.dumps([getattr(self, f.name) for f in fields(self)], sort_keys=True)

    def to_json(self) -> str:
        payload = {"schema_version": SCHEMA_VERSION, **asdict(self)}
        return json.dumps(payload, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls(**_document_fields(json.loads(text), cls, "config")).validate()

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_json(fh.read())


# ---------------------------------------------------------------------------
# slope fitting and scan results


def fit_loglog(eps_values, errors, residual_threshold=0.5):
    """Least-squares slope of log error against log eps.

    Returns (slope, intercept, residual, dropped) where `dropped` records
    whether the largest-eps point was excluded as preasymptotic (done once,
    when the full-ladder fit residual exceeds the threshold).  Slope is
    None when there are fewer than 3 points, when errors are nonpositive,
    or when the refit residual still exceeds the threshold.
    """
    e = np.asarray(eps_values, dtype=float)
    r = np.asarray(errors, dtype=float)
    if len(e) < 3 or np.any(~np.isfinite(r)) or np.any(r <= 0):
        return None, None, None, False

    def _fit(x, y):
        coef = np.polyfit(x, y, 1)
        resid = float(np.sqrt(np.mean((np.polyval(coef, x) - y) ** 2)))
        return float(coef[0]), float(coef[1]), resid

    x, y = np.log(e), np.log(r)
    slope, intercept, resid = _fit(x, y)
    dropped = False
    if resid > residual_threshold and len(e) > 3:
        slope, intercept, resid = _fit(x[1:], y[1:])
        dropped = True
    if resid > residual_threshold:
        return None, None, resid, dropped
    return slope, intercept, resid, dropped


@dataclass
class ScanResult:
    """Per-(eps, t) error measurements with a fitted convergence slope."""

    functional: str
    points: list
    slope: float | None
    intercept: float | None
    fit_residual: float | None
    dropped_largest_eps: bool
    config: dict
    extras: dict = field(default_factory=dict)
    wall_clock: list = field(default_factory=list)

    def canonical_payload(self, include_timing: bool = False) -> dict:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "functional": self.functional,
            "points": self.points,
            "slope": self.slope,
            "intercept": self.intercept,
            "fit_residual": self.fit_residual,
            "dropped_largest_eps": self.dropped_largest_eps,
            "config": self.config,
            "extras": self.extras,
        }
        if include_timing:
            payload["wall_clock"] = self.wall_clock
        return payload


def emit_report(result: ScanResult, path, fmt: str = "json", include_timing: bool = False):
    """Write a scan result; JSON is byte-stable for identical configs."""
    if fmt == "json":
        with open(path, "w") as fh:
            fh.write(json.dumps(result.canonical_payload(include_timing), sort_keys=True, indent=2))
            fh.write("\n")
    elif fmt == "csv":
        with open(path, "w") as fh:
            fh.write("epsilon,t,error,slope_so_far\n")
            seen_e, seen_err = [], []
            for pt in result.points:
                if pt.get("status", "ok") != "ok":
                    continue
                seen_e.append(pt["eps"])
                seen_err.append(pt["error"])
                if len(set(seen_e)) >= 2 and min(seen_err) > 0:
                    so_far = np.polyfit(np.log(seen_e), np.log(seen_err), 1)[0]
                    s = repr(float(so_far))
                else:
                    s = ""
                fh.write(f"{pt['eps']!r},{pt['t']!r},{pt['error']!r},{s}\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return path


def load_result(path) -> ScanResult:
    with open(path) as fh:
        return ScanResult(**_document_fields(json.load(fh), ScanResult, "result"))


# ---------------------------------------------------------------------------
# propagator cache


class PropagatorCache:
    """Keeps what a scan would otherwise build again and pays for: one dict, filled only through `get`.

    It holds three kinds of entry, each keyed by what its builder reads
    from the objects it is given (the model's tag and parameters, the
    grid's bounds and size, eps, and for the pair the band's indices and
    window; a config's JSON text), so two models or grids never share one:
    - an acceptance suite's loaded config (`_config`), once per JSON text;
    - the parts of the molecular H (`hamiltonians.molecular_operator`, its
      fiber stack H_e(X_i)), once per model and grid;
    - the dense decoupling pair of an eps, `"pair"`, the one build that
      costs: `diag` builds it (`propagation.diagonalize_pair`) from the
      dense blocks of H that P splits, each derived from the parts
      (`FiberedOperator.block`) and dropped once solved.  The entry keeps,
      per split block of H, H_diag's eigenbasis in P's frame, both sets of
      eigenvalues and the full block's eigenvectors as coordinates in that
      basis, M; a shared block of H is built and solved into it only when
      an energy cutoff asks.  H_diag reads neither the band's gauge nor its
      margin, so bands that differ only in those share an entry.

    `full` and `bo` keep nothing: each returns a new `ChebyshevPropagator`
    (the full one on the kept parts), cheap to build next to the dense
    pair.  They stay methods because they are the seams through which the
    oracle tests substitute dense propagators.  `full` and `diag` take a
    `cfg` they do not read, the signature the benchmark's workloads call.
    """

    def __init__(self):
        self._store = {}

    @staticmethod
    def _system_key(model: ElectronicModel, grid: Grid1D):
        return (model.tag, json.dumps(model.params, sort_keys=True), grid.x_min, grid.x_max, grid.n_points)

    def get(self, key, builder):
        if key not in self._store:
            self._store[key] = builder()
        return self._store[key]

    def _operator(self, model, grid):
        """The parts of the molecular H (a `FiberedOperator`), kept once for the model and grid."""
        return self.get(("parts", self._system_key(model, grid)), lambda: molecular_operator(model, grid))

    def full(self, cfg, model, grid, eps) -> ChebyshevPropagator:
        return ChebyshevPropagator(self._operator(model, grid), eps)

    def diag(self, cfg, model, grid, band, eps) -> DecouplingPair:
        """The dense pair of the full and the band-preserving evolution at eps (`propagation.DecouplingPair`)."""
        return self.get(("pair", self._system_key(model, grid), band.band_indices, band.window, eps),
                        lambda: diagonalize_pair(self._operator(model, grid), band, eps))

    def bo(self, cfg, band, eps) -> ChebyshevPropagator:
        return ChebyshevPropagator(bo_operator(band, include_a_geo=cfg.include_a_geo), eps)


_OBSERVABLE_SET = (
    Symbol(lambda q, p: np.ones_like(np.asarray(q) + np.asarray(p)), "1"),
    Symbol(lambda q, p: q + 0 * p, "q"),
    Symbol(lambda q, p: p + 0 * q, "p"),
    Symbol(lambda q, p: np.asarray(q) ** 2 + 0 * p, "q^2"),
    Symbol(lambda q, p: np.asarray(p) ** 2 + 0 * q, "p^2"),
)


_SYMBOLS = {sym.name: sym for sym in _OBSERVABLE_SET}
_SYMBOLS["windowed_p^2"] = Symbol(
    lambda q, p: np.asarray(p) ** 2 * np.exp(-np.asarray(p) ** 2 / 8) + 0 * q, "windowed_p^2"
)


def _lattice_block(grid, eps, centers, wkb=None):
    """The nuclear values of a coherent lattice, one packet per row, with the WKB row last when `wkb` is given.

    Each center (q0, p0) is checked as `coherent_state` checks it, in
    order, and the packets are the rows of one `_coherent_values` block, so
    each row is the same bits as its own center's vector.  `wkb` is the
    (center, width, amp, k) of a `_wkb_wave`, whose normalized values
    (refused by the seam check as `wkb_state` refuses them) form the last
    row.  The config load builds this block to check the state sets of the
    decoupling and observable-pairing rows, and the rows lift it.
    """
    for q0, p0 in centers:
        _check_coherent_center(grid, eps, q0, p0)
    q0, p0 = np.array(centers, dtype=float).reshape(-1, 2).T[:, :, None]
    rows = [_coherent_values(grid, eps, q0, p0)]
    if wkb is not None:
        f, S, _ = _wkb_functions(*wkb)
        rows.append(_wkb_normalized(grid, eps, f, S).values)
    return np.vstack(rows)


def standard_state_family(band, eps, q_centers, p_centers, wkb_params):
    """The fixed ten-state test family: a 3 x 3 coherent lattice plus one WKB state.

    Returned as molecular waves on the band frame, on the band's grid, not
    normalized: `decoupling_error` divides each state's error by a norm of
    that state, with or without an energy cutoff, so a rescaled state has the
    same error.  The family is the lift of one `_lattice_block`, the lattice
    in lattice order and the WKB wave last, with one `chi_clamped()`.  Each
    state is the same bits as `lift_to_band` of its own constructor's wave.
    """
    centers = [(q0, p0) for q0 in q_centers for p0 in p_centers]
    block = _lattice_block(band.grid, eps, centers, wkb_params)
    return [MolecularWave(band.grid, values, eps) for values in block[:, :, None] * band.chi_clamped()]


# ---------------------------------------------------------------------------
# scan functionals


# Each functional maps (cfg, cache, eps, times) to one error per time: `cache`
# is the scan's PropagatorCache, `times` a sequence of times, and whatever
# does not depend on t is built once for the row.  The bands come from the
# config (`ExperimentConfig.build_band`), and the model and grid from the band.


def _scan_decoupling(cfg: ExperimentConfig, cache: PropagatorCache, eps: float, times):
    """The family's largest decoupling error at each of `times`, from one `decoupling_error` call."""
    band = cfg.build_band()
    pair = cache.diag(cfg, band.model, band.grid, band, eps)
    fam = cfg.state["family_params"]
    family = standard_state_family(cfg.lift_band(), eps, fam["q_centers"], fam["p_centers"], fam["wkb"])
    return decoupling_error(pair, family, times, energy_cutoff=cfg.energy_cutoff).max(axis=1)


def _scan_effective(cfg: ExperimentConfig, cache: PropagatorCache, eps: float, times):
    band = cfg.lift_band()
    pf = cache.full(cfg, band.model, band.grid, eps)
    pb = cache.bo(cfg, band, eps)
    psi0, _, _ = cfg.make_state(band, eps)
    projected = apply_phase_space_projection(psi0, band, cfg.build_region(), cfg.alpha, eps)
    return effective_dynamics_error(pf, pb, band, projected, times)


def _scan_leakage(cfg: ExperimentConfig, cache: PropagatorCache, eps: float, times):
    band = cfg.lift_band()
    pb = cache.bo(cfg, band, eps)
    _, phi0, _ = cfg.make_state(band, eps)
    return boundary_leakage(pb, band, cfg.build_region(), cfg.alpha, phi0, times)


def _scan_observable_pairing(cfg: ExperimentConfig, cache: PropagatorCache, eps: float, times):
    """The reduced-observable residual at eps; it does not depend on t."""
    band = cfg.lift_band()
    block = _lattice_block(band.grid, eps, cfg.state["params"]["centers"])
    states = [MolecularWave(band.grid, values, eps) for values in block[:, :, None] * band.chi_clamped()]
    return [reduced_observable_residual(_SYMBOLS[cfg.symbol or "p"], band, eps, states)] * len(times)


def _scan_state_observables(cfg: ExperimentConfig, cache: PropagatorCache, eps: float, times):
    band = cfg.lift_band()
    pf = cache.full(cfg, band.model, band.grid, eps)
    psi0, _, rho = cfg.make_state(band, eps)
    return egorov_residual(pf, _OBSERVABLE_SET, psi0, rho, times, cfg._dE(), dt=cfg.flow_dt)


def _scan_egorov(cfg: ExperimentConfig, cache: PropagatorCache, eps: float, times):
    band = cfg.lift_band()
    pb = cache.bo(cfg, band, eps)
    _, phi0, rho = cfg.make_state(band, eps)
    return egorov_residual(pb, [_SYMBOLS[cfg.symbol or "q"]], phi0, rho, times, cfg._dE(), dt=cfg.flow_dt)


# A functional's one entry: its scan row, and what its config reads besides `_READ_BY_ALL`.  `reads`
# are the other config fields, `state_keys` the `state` keys, and `params` the keys of the last state
# key's dict (None, with the default state keys: the family constructor's keyword arguments).  The load
# refuses what the functional does not read, and builds the row's inputs that do not depend on eps by
# what it reads (`ExperimentConfig._check`).
_Functional = namedtuple("_Functional", "row reads state_keys params", defaults=(("family", "params"), None))

FUNCTIONALS = {
    "decoupling": _Functional(_scan_decoupling, {"energy_cutoff"}, ("family", "family_params"),
                              {"q_centers", "p_centers", "wkb"}),
    "effective_dynamics": _Functional(_scan_effective, {"region", "alpha", "include_a_geo", "flow_dt"}),
    "boundary_leakage": _Functional(_scan_leakage, {"region", "alpha", "include_a_geo", "flow_dt"}),
    "observable_pairing": _Functional(_scan_observable_pairing, {"symbol"}, ("params",), {"centers"}),
    "state_observables": _Functional(_scan_state_observables, {"flow_dt"}),
    "egorov": _Functional(_scan_egorov, {"symbol", "include_a_geo", "flow_dt"}),
}


def eps_scan(cfg: ExperimentConfig, cache: PropagatorCache | None = None) -> ScanResult:
    """Run the configured functional over the eps ladder and fit the slope.

    The eps row is the unit of a scan: the functional maps the config, the
    cache, one eps and the sorted times to one error per time.
    Rows run serially in order of decreasing eps, and a row gives its
    points in order of increasing t.  A row's wall clock goes on its first
    point and 0.0 on the rest.  A row that raises is recorded as an error
    at each of its points, without aborting the scan.  The slope is fitted
    to the largest error of each row that did not raise.
    """
    cfg.validate()
    fn = FUNCTIONALS[cfg.functional].row
    cache = PropagatorCache() if cache is None else cache
    times = sorted(cfg.times)
    points, clocks, largest = [], [], {}
    for eps in cfg.eps_ladder:
        t0 = time.perf_counter()
        try:
            errors = [float(e) for e in fn(cfg, cache, eps, times)]
        except Exception as exc:  # recorded, not raised
            message = f"{type(exc).__name__}: {exc}"
            points += [{"eps": eps, "t": t, "error": None, "status": "error", "message": message} for t in times]
        else:
            points += [{"eps": eps, "t": t, "error": e, "status": "ok"} for t, e in zip(times, errors)]
            largest[eps] = max(errors)
        clocks += [round(time.perf_counter() - t0, 6)] + [0.0] * (len(times) - 1)

    slope, intercept, resid, dropped = fit_loglog(list(largest), list(largest.values()), cfg.fit_residual_threshold)
    return ScanResult(
        functional=cfg.functional,
        points=points,
        slope=slope,
        intercept=intercept,
        fit_residual=resid,
        dropped_largest_eps=dropped,
        config=json.loads(cfg.to_json()),
        wall_clock=clocks,
    )


# ---------------------------------------------------------------------------
# acceptance suites

_CONFIG_DIR = Path(__file__).resolve().parent / "configs"


def _config(name, cache: PropagatorCache | None = None, **overrides) -> ExperimentConfig:
    """The acceptance configuration `configs/<name>.json` with fields overridden.

    With a suite's `cache`, the config is loaded once per JSON text and kept
    there, so the criteria of one run that read one content share its
    validation, bands and hitting window.  Without one it is a new config,
    which a caller may change.
    """
    data = json.loads((_CONFIG_DIR / f"{name}.json").read_text())
    data.update(overrides)
    text = json.dumps(data)
    return (cache or PropagatorCache()).get(("config", text), lambda: ExperimentConfig.from_json(text))


@dataclass
class CriterionReport:
    cid: str
    passed: bool
    detail: dict


@dataclass
class SuiteReport:
    suite: str
    criteria: list
    seed: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.criteria)

    def canonical_payload(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "suite": self.suite,
            "seed": self.seed,
            "passed": self.passed,
            "criteria": [
                {"id": c.cid, "passed": c.passed, "detail": c.detail} for c in self.criteria
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.canonical_payload(), sort_keys=True, indent=2) + "\n"

    def lines(self):
        for c in self.criteria:
            mark = "PASS" if c.passed else "FAIL"
            keys = ", ".join(f"{k}={v}" for k, v in sorted(c.detail.items()))
            yield f"[{mark}] {c.cid}: {keys}"


def _crit(cid, passed, **detail):
    """One verdict; the detail's numpy scalars and tuples become plain Python values by one JSON round trip."""
    detail = json.loads(json.dumps(detail, default=lambda v: v.item()))
    return CriterionReport(cid=cid, passed=bool(passed), detail=detail)


def _rate_crit(cid, res, lo, hi=None, **extra):
    """Pass when the fitted slope of `res` lies in [lo, hi] (hi=None: no upper bound)."""
    ok = res.slope is not None and lo <= res.slope and (hi is None or res.slope <= hi)
    return _crit(cid, ok, slope=res.slope, **extra, errors=[p["error"] for p in res.points])


def _rate(cid, config, lo, hi=None, **overrides):
    """The rate criterion `cid`: the fitted slope of the scan of `_config(config, **overrides)` in [lo, hi]."""
    return lambda seed, cache: [_rate_crit(cid, eps_scan(_config(config, cache, **overrides), cache), lo, hi)]


def _decoupling_time_growth(seed, cache):
    e1, e2 = _scan_decoupling(_config("decoupling", cache, energy_cutoff=2.0), cache, 0.05, (1.0, 2.0))
    return [_crit("decoupling-time-growth", e2 / e1 <= 3.0, ratio=e2 / e1, e_t1=e1, e_t2=e2)]


def _effective_hitting_window(seed, cache):
    t_minus, t_plus = _config("effective", cache).hitting_window()
    return [_crit("effective-hitting-window", t_plus >= 1.5, t_plus=t_plus, t_minus=t_minus)]


def _effective_beyond_window_logged(seed, cache):
    # beyond the window the bound is not asserted; the value is only logged
    cfg = _config("effective", cache)
    t_out = 1.2 * cfg.hitting_window()[1]
    (logged,) = _scan_effective(cfg, cache, 0.05, [t_out])
    return [_crit("effective-beyond-window-logged", True, t=t_out, error_logged=logged)]


def _berry_off_floor(seed, cache):
    cfg = _config("berry", cache, include_a_geo=False)
    errs = [_scan_effective(cfg, cache, eps, cfg.times[:1])[0] for eps in cfg.eps_ladder]
    return [_crit("berry-off-floor", min(errs) >= 0.05, infimum=min(errs), errors=errs)]


def _leakage_rate(seed, cache):
    """The leakage rate at 0.8 t_+, with t_+ the hitting time of the configured region."""
    t_plus = _config("leakage", cache).hitting_window()[1]
    cfg = _config("leakage", cache, times=[round(0.8 * t_plus, 6)])
    return [_rate_crit("leakage-rate", eps_scan(cfg, cache), 0.75, t=cfg.times[0], t_plus=t_plus)]


def _observable_q_exact(seed, cache):
    errs = [p["error"] for p in eps_scan(_config("observables", cache, symbol="q"), cache).points]
    return [_crit("observable-q-exact", max(errs) <= 1e-9, worst=max(errs))]


def _suite_identities(seed, cache):
    crits = []
    model = get_model("two_band_complex")
    fine = band_decompose(model, make_grid(-8, 8, 1024), 0)

    worst = 0.0
    for X in (-1.3, 0.0, 0.8, 2.1):
        w, v = np.linalg.eigh(model.h(X))
        spec = np.outer(v[:, 0], v[:, 0].conj())
        P = riesz_projection(model, X, w[0], 0.4 * (w[1] - w[0]))
        worst = max(worst, np.abs(P - spec).max())
    crits.append(_crit("riesz-vs-spectral", worst <= 1e-10, worst=worst))

    dP_fd = grad_projection(fine, "fd")
    dP_an = grad_projection(fine, "analytic")
    g1 = np.abs(dP_fd - dP_an)[32:-32].max()
    crits.append(_crit("projection-gradient-split", g1 <= 1e-8, worst=g1))

    xs = np.linspace(-3.8, 3.8, 50)
    k2 = max(commutator_inverse_residual(model, fine, X) for X in xs)
    crits.append(_crit("commutator-identity", k2 <= 1e-8, worst=k2))

    bt = max(
        np.abs(
            commutator_inverse(model, fine, X, "spectral")
            - commutator_inverse(model, fine, X, "contour")
        ).max()
        for X in (-1.5, 0.0, 0.7, 2.2)
    )
    crits.append(_crit("commutator-inverse-two-routes", bt <= 1e-8, worst=bt))

    grid = make_grid(-8, 8, 256)
    band = band_decompose(model, grid, 0)
    A = berry_connection(band)
    theta = 0.3 * np.sin(2 * np.pi * grid.x / grid.length)
    dtheta = 0.3 * (2 * np.pi / grid.length) * np.cos(2 * np.pi * grid.x / grid.length)
    H1 = assemble_bo(band, 0.1, berry=A + dtheta)
    H0 = assemble_bo(band, 0.1, berry=A)
    ph = np.exp(1j * theta)
    cov = np.abs(H1.matrix - ph.conj()[:, None] * H0.matrix * ph[None, :]).max()
    crits.append(_crit("bo-gauge-covariance", cov <= 1e-9, worst=cov))

    rng = np.random.default_rng(seed)
    iso = 0.0
    for _ in range(20):
        phi = NuclearWave(grid, rng.standard_normal(grid.n_points)
                          + 1j * rng.standard_normal(grid.n_points), eps=0.1)
        lifted = u_star_map(phi, band)
        iso = max(iso, abs(norm(lifted) / norm(phi) - 1))
        back = u_map(lifted, band)
        iso = max(iso, np.abs(back.values - phi.values).max())
    crits.append(_crit("identification-isometry", iso <= 1e-12, worst=iso))

    small = make_grid(-8, 8, 128)
    Hfull = assemble_full(model, small, 0.1)
    prop = diagonalize(Hfull, validate=True)
    wave, _ = coherent_state(small, 0.1, 0.3, 0.4)
    psi = lift_to_band(wave, band_decompose(model, small, 0))
    drift = 0.0
    e0 = np.real(np.vdot(psi.flat(), Hfull.matrix @ psi.flat())) * small.dx
    for t in (0.5, 2.0, 5.0):
        evolved = evolve(prop, psi, t)
        drift = max(drift, abs(norm(evolved) - norm(psi)))
        et = np.real(np.vdot(evolved.flat(), Hfull.matrix @ evolved.flat())) * small.dx
        drift = max(drift, abs(et - e0))
    crits.append(_crit("evolution-unitarity-energy", drift <= 1e-10, worst=drift))
    return crits


def _suite_semiclassics(seed, cache):
    crits = []
    grid = make_grid(-8, 8, 128)
    eps = 0.1
    w1 = np.abs(weyl_quantize(lambda q, p: np.ones_like(q + p), grid, eps) - np.eye(128)).max()
    wq = np.abs(weyl_quantize(lambda q, p: q + 0 * p, grid, eps) - np.diag(grid.x)).max()
    wp = np.abs(
        weyl_quantize(lambda q, p: p + 0 * q, grid, eps) - eps * spectral_derivative_matrix(grid)
    ).max()
    worst = max(w1, wq, wp)
    crits.append(_crit("weyl-exact-symbols", worst <= 1e-10, worst=worst))

    g2 = make_grid(-8, 8, 256)
    worst = 0.0
    for eps in (0.2, 0.05):
        wave, _ = coherent_state(g2, eps, 0.5, 0.7)
        wd = wigner_marginal(wave)
        worst = max(worst, abs(wd.mass() - norm(wave) ** 2))
    crits.append(_crit("wigner-normalization", worst <= 1e-8, worst=worst))

    q, p = classical_flow(lambda q: np.asarray(q), (1.0, 0.0), t=2 * np.pi, dt=1e-3)
    period_err = max(abs(q - 1.0), abs(p))
    crits.append(_crit("verlet-harmonic-period", period_err <= 1e-6, worst=period_err))

    region = PhaseSpaceRegion([(0.0, 0.0, 0.9, 1.1)])
    dt = 1e-3
    t_minus, t_plus = hitting_times(
        region, (-2.4, 2.4), 0.4, lambda q: 0.0 * np.asarray(q), alpha=0.05, dt=dt
    )
    tol = 2 * (0.05 / 4 * (2 / 1.1**2) + dt)
    hit_err = abs(t_plus - 2 / 1.1)
    crits.append(_crit("hitting-time-free-fixture", hit_err <= tol, worst=hit_err, tol=tol))
    return crits


def _suite_determinism(seed, cache):
    cfg = _config(
        "observables",
        grid={"x_min": -8.0, "x_max": 8.0, "n_points": 256},
        eps_ladder=[0.2, 0.1, 0.05],
    )
    a = eps_scan(cfg, PropagatorCache())
    b = eps_scan(cfg, PropagatorCache())
    ja = json.dumps(a.canonical_payload(), sort_keys=True)
    jb = json.dumps(b.canonical_payload(), sort_keys=True)
    all_ok = all(pt["status"] == "ok" for pt in a.points)
    return [
        _crit("scan-reports-byte-identical", ja == jb and all_ok, bytes=len(ja),
              points_ok=all_ok),
    ]


# each suite is its criteria in report order; a criterion maps (seed, cache) to its reports
_SUITES = {
    "decoupling": (
        _rate("decoupling-rate", "decoupling", 0.75, 1.25),
        _rate("decoupling-rate-with-cutoff", "decoupling", 0.75, energy_cutoff=2.0),
        _decoupling_time_growth,
    ),
    "effective": (
        _effective_hitting_window,
        _rate("effective-rate", "effective", 0.75, 1.25),
        _effective_beyond_window_logged,
    ),
    "berry": (_rate("berry-on-rate", "berry", 0.75), _berry_off_floor),
    "leakage": (_leakage_rate,),
    "observables": (
        _rate("observable-p-rate", "observables", 0.75, symbol="p"),
        _rate("observable-windowed_p^2-rate", "observables", 0.75, symbol="windowed_p^2"),
        _observable_q_exact,
    ),
    "state-rates": (
        _rate("packet-rate", "state_rates", 0.35, 0.75),
        _rate("sharp-momentum-rate", "state_rates", 0.75, 1.25, state={
            "family": "sharp_momentum", "params": {"p0": 0.45, "center": 0.2, "width": 0.8, "boost": 1.0}}),
        _rate("wkb-rate", "state_rates", 0.35, state={  # k: the box-periodic phase
            "family": "wkb", "params": {"center": 0.2, "width": 0.7, "amp": 0.4, "k": float(2 * np.pi / 12.8)}}),
    ),
    "identities": (_suite_identities,),
    "semiclassics": (_suite_semiclassics,),
    "determinism": (_suite_determinism,),
}

SUITE_NAMES = tuple(_SUITES) + ("all",)


def run_suite(name: str, seed: int = 0, cache: PropagatorCache | None = None) -> SuiteReport:
    """Run the criteria of the named acceptance suite, or of every suite for "all", in report order."""
    if name not in SUITE_NAMES:
        raise KeyError(f"unknown suite {name!r}; available: {', '.join(SUITE_NAMES)}")
    cache = cache or PropagatorCache()
    criteria = [report for suite, entries in _SUITES.items() if name in (suite, "all")
                for criterion in entries for report in criterion(seed, cache)]
    return SuiteReport(suite=name, criteria=criteria, seed=seed)
