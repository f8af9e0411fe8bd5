"""The window margin lives on the band: no function that takes a band also takes a margin or a window.

`band_decompose` stores the margin as `BandData.delta`, and every function
that takes a band reads the band's grid, window and margin from it, so a
band's lift, phase-space projection, BO operator and classical flow cannot
read different margins.  Only the primitives on a bare window
(`hamiltonians.clamp_field`, `semiclassics.hitting_times` and
`PhaseSpaceRegion.check_inside`) take `window` and `delta`, and none of
them takes a band.  The signatures are read with `inspect.signature`.
"""

import importlib
import inspect
import pkgutil

import adiband
from adiband.electronic import BandData
from adiband.hamiltonians import clamp_field
from adiband.indicators import PhaseSpaceRegion
from adiband.semiclassics import hitting_times

LOOSE = {"delta", "window"}


def _public_functions():
    """Every public function of every adiband module, and every public method of its public classes, by name."""
    found = {}
    for info in pkgutil.iter_modules(adiband.__path__):
        module = importlib.import_module(f"adiband.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                found[f"{info.name}.{name}"] = obj
            elif inspect.isclass(obj):
                for attr, raw in vars(obj).items():
                    fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                    if not attr.startswith("_") and inspect.isfunction(fn):
                        found[f"{info.name}.{name}.{attr}"] = fn
    return found


def _takes_a_band(fn):
    return any(name == "band" or "BandData" in str(p.annotation)
               for name, p in inspect.signature(fn).parameters.items())


def _band_methods():
    return {f"BandData.{attr}": fn for attr, fn in vars(BandData).items()
            if inspect.isfunction(fn) and not attr.startswith("__")}


def test_band_functions_found():
    takers = {name for name, fn in _public_functions().items() if _takes_a_band(fn)}
    assert {"hamiltonians.bo_operator", "hamiltonians.u_map", "states.lift_to_band",
            "semiclassics.boundary_leakage", "semiclassics.band_energy_interpolant",
            "propagation.effective_dynamics_error", "harness.standard_state_family",
            "harness.ExperimentConfig.make_state", "harness.PropagatorCache.bo"} <= takers
    assert set(_band_methods()) == {"BandData.window_slice", "BandData.with_gauge_shift", "BandData.chi_clamped"}


def test_no_function_that_takes_a_band_takes_a_margin_or_a_window():
    checked = {name: fn for name, fn in _public_functions().items() if _takes_a_band(fn)} | _band_methods()
    loose = {name: sorted(LOOSE & set(inspect.signature(fn).parameters)) for name, fn in checked.items()}
    assert not {name: params for name, params in loose.items() if params}


def test_the_bare_window_primitives_take_the_window_and_the_margin():
    for fn in (clamp_field, hitting_times, PhaseSpaceRegion.check_inside):
        assert LOOSE <= set(inspect.signature(fn).parameters) and not _takes_a_band(fn)
