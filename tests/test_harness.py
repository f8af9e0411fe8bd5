import functools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adiband.harness import (
    FUNCTIONALS,
    ExperimentConfig,
    PropagatorCache,
    ScanResult,
    emit_report,
    eps_scan,
    fit_loglog,
    load_result,
    run_suite,
    standard_state_family,
)
from adiband.propagation import decoupling_error
from adiband.states import coherent_state
from oracles import per_state_family, split_eigenbases


ROOT = Path(__file__).resolve().parents[1]


def _config_file(path, **overrides):
    """The config file at `path` (from the repository root) as a dict, with fields overridden."""
    return {**json.loads((ROOT / path).read_text()), **overrides}


def small_config(**over):
    base = dict(
        model={"tag": "two_band_complex", "params": {}},
        grid={"x_min": -8.0, "x_max": 8.0, "n_points": 256},
        band_indices=[0],
        window=[-5.0, 5.0],
        delta=0.5,
        eps_ladder=[0.2, 0.1, 0.05],
        times=[0.0],
        functional="observable_pairing",
        state={"params": {"centers": [[-0.5, 0.4], [0.6, -0.3]]}},
    )
    base.update(over)
    return ExperimentConfig(**base).validate()


# ------------------------------------------------------------- slope fitting


def test_fit_exact_linear_slope():
    eps = [0.2, 0.1, 0.05, 0.025]
    errs = [3.0 * e for e in eps]
    slope, intercept, resid, dropped = fit_loglog(eps, errs)
    assert slope == pytest.approx(1.0, abs=1e-10)
    assert not dropped
    assert resid <= 1e-12


def test_fit_constant_errors_slope_zero():
    slope, _, _, _ = fit_loglog([0.2, 0.1, 0.05], [0.7, 0.7, 0.7])
    assert slope == pytest.approx(0.0, abs=1e-12)


def test_fit_drops_preasymptotic_point():
    eps = [0.2, 0.1, 0.05, 0.025]
    errs = [10.0, 0.1, 0.05, 0.025]  # first point far off the trend
    slope, _, resid, dropped = fit_loglog(eps, errs, residual_threshold=0.2)
    assert dropped
    assert slope == pytest.approx(1.0, abs=1e-10)


def test_fit_rejects_nonpositive():
    slope, _, _, _ = fit_loglog([0.2, 0.1, 0.05], [0.1, 0.0, 0.01])
    assert slope is None
    assert fit_loglog([0.2, 0.1], [0.2, 0.1]) == (None, None, None, False)


# ------------------------------------------------------------- configuration


def test_config_roundtrip():
    cfg = small_config()
    text = cfg.to_json()
    back = ExperimentConfig.from_json(text)
    assert back.to_json() == text


def test_config_rejects_bad_ladders():
    with pytest.raises(ValueError):
        small_config(eps_ladder=[0.2, 0.1])
    with pytest.raises(ValueError):
        small_config(eps_ladder=[0.1, 0.2, 0.05])
    with pytest.raises(ValueError):
        small_config(eps_ladder=[1.2, 0.5, 0.1])


def test_config_rejects_region_outside_window():
    with pytest.raises(ValueError) as err:
        small_config(
            functional="boundary_leakage",
            window=[-2.0, 2.0],
            delta=0.4,
            alpha=0.2,
            region=[[1.0, 1.9, 0.0, 0.5]],
            state={"family": "coherent", "params": {"q0": 1.2, "p0": 0.2}},
        )
    assert "region" in str(err.value)


@pytest.mark.parametrize("name", ["effective", "leakage"])
@pytest.mark.parametrize("missing", ["window", "region"])
def test_config_refuses_effective_and_leakage_without_window_or_region(name, missing):
    # both functionals read the window and the phase-space region at every point
    from adiband.harness import _config

    with pytest.raises(ValueError, match=rf"needs \['{missing}'\]"):
        _config(name, **{missing: None})


@pytest.mark.parametrize("name", ["berry", "decoupling", "effective", "leakage", "observables", "state_rates"])
def test_config_refuses_a_window_with_no_grid_point(name):
    # every functional's bands take the window, so every functional refuses it at load,
    # by band_decompose's own predicate, and not in every row of its scans
    from adiband.harness import _config

    with pytest.raises(ValueError, match=r"window \[9.0, 10.0\] contains no grid points"):
        _config(name, window=[9.0, 10.0])


def test_config_rejects_times_outside_hitting_window():
    with pytest.raises(ValueError) as err:
        ExperimentConfig(
            model={"tag": "rotated_pair", "params": {}},
            grid={"x_min": -6.4, "x_max": 6.4, "n_points": 256},
            band_indices=[0],
            window=[-2.0, 2.0],
            delta=0.4,
            region=[[-0.9, 1.5, -1.05, 0.45]],
            alpha=0.45,
            eps_ladder=[0.2, 0.1, 0.05],
            times=[50.0],
            functional="effective_dynamics",
            state={"family": "coherent", "params": {"q0": 0.3, "p0": -0.35}},
        ).validate()
    msg = str(err.value)
    assert "hitting-time window" in msg and "[" in msg  # quotes computed T+-


def test_hitting_window_computed_once_per_config(monkeypatch):
    from adiband import harness

    calls, real = [], harness.hitting_times

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "hitting_times", counted)
    text = harness._config(
        "effective", grid={"x_min": -6.4, "x_max": 6.4, "n_points": 128}, eps_ladder=[0.2, 0.1, 0.05]
    ).to_json()
    calls.clear()
    cfg = ExperimentConfig.from_json(text)
    assert len(calls) == 1
    res = eps_scan(cfg, PropagatorCache())
    assert all(p["status"] == "ok" for p in res.points)
    assert len(calls) == 1  # the scan does not validate the unchanged config again
    window = cfg.hitting_window()
    assert len(calls) == 1  # a direct call reads the window validation kept
    cfg.times[0] = 50.0  # changed in place: the scan checks it again, on a window of its own, and refuses it
    with pytest.raises(ValueError, match="hitting-time window"):
        eps_scan(cfg, PropagatorCache())
    assert len(calls) == 2
    # a refused config is checked again on every call, and reads the window kept for its content
    with pytest.raises(ValueError, match="hitting-time window"):
        cfg.validate()
    assert len(calls) == 2 and cfg.hitting_window() == window


@pytest.mark.parametrize(
    "key, value",
    [
        # JSON writes neither, so the config's content, the key of its store, cannot be formed
        ("times", [np.float32(0.0)]),
        ("band_indices", {0}),
    ],
)
def test_validate_refuses_by_name_what_json_cannot_write(key, value):
    with pytest.raises(ValueError, match=rf"^{key} must hold only JSON values"):
        small_config(**{key: value})


def test_unknown_functional():
    with pytest.raises(ValueError):
        small_config(functional="nope")


def test_from_json_names_unknown_fields():
    data = json.loads(small_config().to_json())
    data.update(workers=4, seed=11)
    with pytest.raises(ValueError, match=r"unknown config fields \['seed', 'workers'\]"):
        ExperimentConfig.from_json(json.dumps(data))


@pytest.mark.parametrize(
    "key, value, message",
    [
        # keys the builders would drop: the scan would run at n_points 256, and on the default parameters
        ("grid", {"x_min": -8.0, "x_max": 8.0, "n_points": 256, "n_pionts": 4096}, r"unknown grid keys \['n_pionts'\]"),
        ("model", {"tag": "two_band_complex", "parms": {"g_re": 0.3}}, r"unknown model keys \['parms'\]"),
        # a grid or model that cannot be built would fail every scan row
        ("model", {"tag": "two_band_complex", "params": {"g_rx": 0.3}}, "g_rx"),
        ("model", {"tag": "three_band", "params": {}}, "three_band"),
        ("grid", {"x_min": -8.0, "x_max": 8.0, "n_points": 100}, "power of two"),
        ("schema_version", 7, "schema_version 7 is not 1"),
        # a model parameter of the wrong type would build, and fail at the first fiber the model evaluates;
        # each parameter must be a finite real number or a list of them, as state.params are
        ("model", {"tag": "two_band_complex", "params": {"g_re": "0.5"}},
         r"cannot build the model .*: params\['g_re'\] must be a finite real number or a list of them, got '0.5'"),
        # a parameter that makes H_e non-finite would fail every row (no band can be tracked); a
        # non-finite one is refused by name before the fibers are formed
        ("model", {"tag": "rotated_pair", "params": {"theta0": float("nan")}},
         r"cannot build the model .*: params\['theta0'\] must be a finite real number or a list of them, got nan"),
        ("model", {"tag": "two_band_complex", "params": {"g_re": float("inf")}},
         r"cannot build the model .*: params\['g_re'\] must be a finite real number or a list of them, got inf"),
        # no time: the observables scan would crash and the others report no point;
        # a non-finite time would be recorded "ok" with a NaN error, and 10**400 has no float;
        # a string or a bool would be reported as the time; a bare number or a mixed list
        # would crash the scan
        ("times", [], "times must be a non-empty list"),
        ("times", [float("nan")], "finite real numbers"),
        ("times", [float("inf")], "finite real numbers"),
        ("times", [10**400], "finite real numbers"),
        ("times", ["1.0"], "finite real numbers"),
        ("times", [True], "finite real numbers"),
        ("times", 1.0, "finite real numbers"),
        ("times", [1.0, "2.0"], "finite real numbers"),
        # compared with numbers, a string raises a TypeError
        ("eps_ladder", ["0.2", 0.1, 0.05], "eps_ladder must be a list of real numbers"),
        # compared with the grid, a null or a string raises a TypeError; a bare number cannot be unpacked
        ("window", [None, 2.0], "window must be null or a list of two finite real numbers"),
        ("window", ["a", "b"], "window must be null or a list of two finite real numbers"),
        ("window", [-2.0, 0.0, 2.0], "window must be null or a list of two finite real numbers"),
        ("window", 2.0, "window must be null or a list of two finite real numbers"),
        # band indices the scan would misread: -1 wraps to the top band, 0.5 truncates to band 0,
        # True is band 1; the others give an error row at every eps
        ("band_indices", [-1], "band_indices must be strictly ascending integers"),
        ("band_indices", [0.5], "band_indices must be strictly ascending integers"),
        ("band_indices", [True], "band_indices must be strictly ascending integers"),
        ("band_indices", [], "band_indices must be strictly ascending integers"),
        ("band_indices", [0, 0], "band_indices must be strictly ascending integers"),
        ("band_indices", [0, 7], r"band_indices .* in \[0, 2\), got \[0, 7\]"),
        ("lift_band_index", -1, r"lift_band_index must be null or an integer in \[0, 2\), got -1"),
        ("lift_band_index", 5, r"lift_band_index must be null or an integer in \[0, 2\), got 5"),
        # a band group as the lift band: the decoupling family and the state-rates observables lift their
        # states onto one band, and every row would fail with no gauged eigenvector field
        ("lift_band_index", None, r"the lift band must be one band: .* got band_indices \[0, 1\]"),
        ("band_indices", [0, 1], r"the lift band must be one band: .* got band_indices \[0, 1\]"),
        # a region bound that is not finite would load and then crash the hitting-time flow
        # (sample_cloud's lattice size overflows; a NaN position cannot be located on the grid)
        ("region", [[-0.9, 1.5, float("-inf"), 0.45]], "malformed rectangle"),
        ("region", [[-0.9, 1.5, -1.05, float("inf")]], "malformed rectangle"),
        ("region", [[-0.9, 1.5, float("nan"), 0.45]], "malformed rectangle"),
        # a cutoff the decoupling scan would misread: NaN keeps every coefficient of a split block
        # (w > nan is false) and drops every one of a shared block (w <= nan is false); a string
        # fails every row; True would be read as 1.0
        ("energy_cutoff", float("nan"), "energy_cutoff must be null or a finite real number"),
        ("energy_cutoff", "2.0", "energy_cutoff must be null or a finite real number"),
        ("energy_cutoff", True, "energy_cutoff must be null or a finite real number"),
        # a cutoff below H's least fiber eigenvalue annihilates every state at every row
        ("energy_cutoff", -100.0, r"energy_cutoff -100.0 lies below the spectrum of H, which is >= -8 "),
        # a zero time step never ends the hitting-time flow, so the load would not return; a negative
        # one reverses the hitting window, and True would be read as a step of 1
        ("flow_dt", 0.0, "flow_dt must be a positive finite real number"),
        ("flow_dt", -0.001, "flow_dt must be a positive finite real number"),
        ("flow_dt", True, "flow_dt must be a positive finite real number"),
        # alpha 0 divides by zero in the load; a negative alpha, or a margin delta <= 0 on a windowed
        # config, fails every row
        ("alpha", 0.0, "alpha must be a positive finite real number"),
        ("alpha", -0.3, "alpha must be a positive finite real number"),
        ("delta", 0.0, "delta must be a positive finite real number"),
        ("delta", -0.5, "delta must be a positive finite real number"),
        # a NaN threshold turns the fit's residual guard off, and one <= 0 makes every slope None
        ("fit_residual_threshold", float("nan"), "fit_residual_threshold must be a positive finite real number"),
        ("fit_residual_threshold", 0.0, "fit_residual_threshold must be a positive finite real number"),
        ("fit_residual_threshold", -1.0, "fit_residual_threshold must be a positive finite real number"),
        # the string "false" is truthy: the scan would run with the connection
        ("include_a_geo", "false", "include_a_geo must be true or false"),
        ("include_a_geo", 0, "include_a_geo must be true or false"),
        # an unknown symbol fails every row
        ("symbol", 3, "symbol must be null or one of"),
        ("symbol", "q^3", "symbol must be null or one of"),
        # a non-finite launch point or center fails every row with non-finite wavefunction values, a
        # string center with a TypeError, and so does a wkb list of the wrong length
        ("state", {"family": "coherent", "params": {"q0": float("nan"), "p0": -0.35}},
         r"state.params\['q0'\] of the coherent family must be a finite real number"),
        ("state", {"family": "coherent", "params": {"q0": 0.3, "p0": float("inf")}},
         r"state.params\['p0'\] of the coherent family must be a finite real number"),
        ("state", {"family": "coherent", "family_params": {"q_centers": [-1.4, float("nan")], "p_centers": [0.2],
                                                           "wkb": [-0.9, 0.6, 0.3, 0.4]}},
         r"state.family_params\['q_centers'\] must be a list of finite real numbers"),
        ("state", {"family": "coherent", "family_params": {"q_centers": [-1.4], "p_centers": ["0.2"],
                                                           "wkb": [-0.9, 0.6, 0.3, 0.4]}},
         r"state.family_params\['p_centers'\] must be a list of finite real numbers"),
        ("state", {"family": "coherent", "family_params": {"q_centers": [-1.4], "p_centers": [0.2], "wkb": [0.1]}},
         r"state.family_params\['wkb'\] must be 4 finite real numbers"),
        ("state", {"family": "coherent", "family_params": {"q_centers": [-1.4], "p_centers": [0.2],
                                                           "wkb": [-0.9, 0.6, float("nan"), 0.4]}},
         r"state.family_params\['wkb'\] must be 4 finite real numbers"),
        ("state", {"params": {"centers": [[-0.5, 0.4], [float("nan"), -0.3]]}},
         r"state.params\['centers'\] must be a list of \[q0, p0\] pairs of finite real numbers"),
        # grid bounds past finite (JSON's Infinity) or whose squares are not finite (1e308) fail every
        # row: with non-finite fibers, or an OverflowError; a spacing so fine that the momentum
        # lattice is not finite leaves no finite kinetic energy
        ("grid", {"x_min": -8.0, "x_max": float("inf"), "n_points": 256}, "cannot build the grid .* must be finite"),
        ("grid", {"x_min": -4.0, "x_max": 1e308, "n_points": 256}, "cannot build the grid .* must be finite"),
        ("grid", {"x_min": 0.0, "x_max": 1e-310, "n_points": 256}, "cannot build the grid .* momentum lattice"),
        # a coherent center closer to the box edge than its halo at the smallest eps, or too close to
        # the lattice edge in momentum at every eps, fails every row
        ("state", {"family": "coherent", "params": {"q0": 6.35, "p0": -0.35}},
         r"state.params fits no eps of the ladder; .*at eps 0.025: center 6.35 closer than 0.791 to the box edge"),
        ("state", {"family": "coherent", "params": {"q0": 0.3, "p0": 30.0}},
         r"state.params fits no eps of the ladder; .*at eps 0.025: momentum center 30.0 too close to the lattice edge"),
        ("state", {"params": {"centers": [[-0.5, 0.4], [-7.99, -0.3]]}},
         r"state.params fits no eps of the ladder; .*at eps 0.05: center -7.99 closer than 1.118 to the box edge"),
        ("state", {"family": "coherent", "family_params": {"q_centers": [-1.4, 7.9], "p_centers": [0.2],
                                                           "wkb": [-0.9, 0.6, 0.3, 0.4]}},
         r"state.family_params fits no eps of the ladder; .*at eps 0.025: center 7.9 closer than 0.791 to the "
         r"box edge"),
        # a sharp momentum past 0.8 of the lattice edge at every eps, and a WKB phase that winds by no
        # multiple of 2 pi eps across the seam, fail every row; so does the decoupling family's WKB
        # state, whose centers fit (on the box [-4, 4] of the benchmark it jumps by 4.541e-01)
        ("state", {"family": "sharp_momentum", "params": {"p0": 20.0}},
         r"state.params fits no eps of the ladder; .*at eps 0.05: momentum 20.0 too close to the lattice edge 3.142"),
        ("state", {"family": "wkb", "params": {"center": 0.2, "width": 0.7, "amp": 0.4, "k": 1.0}},
         r"state.params fits no eps of the ladder; .*at eps 0.05: phase function jumps by 9.324e-02"),
        ("state", {"family": "coherent", "family_params": {"q_centers": [-1.4, -0.9, -0.4],
                                                           "p_centers": [-0.6, 0.2, 0.8],
                                                           "wkb": [-0.9, 0.6, 0.3, 1.0]}},
         r"state.family_params fits no eps of the ladder; .*at eps 0.025: phase function jumps by 5.936e-01"),
        # a number cannot be an envelope callable, and the sharp-momentum constructor takes none
        ("state", {"family": "sharp_momentum", "params": {"p0": 0.45, "profile": 1.0}},
         r"state.params do not fit the sharp_momentum constructor: .*'profile'"),
        # an envelope width that leaves the state zero (or nan on its center) at every grid point fails
        # every row; the load refuses it without a floating-point warning
        ("state", {"family": "sharp_momentum", "params": {"p0": 0.45, "width": 0.0}},
         r"state.params fits no eps of the ladder; .*at eps 0.05: envelope of center 0.0 and width 0.0 leaves the "
         r"state zero on the grid"),
        ("state", {"family": "sharp_momentum", "params": {"p0": 0.45, "width": 1e-200}},
         r"state.params fits no eps of the ladder; .*at eps 0.05: envelope of center 0.0 and width 1e-200 leaves the "
         r"state zero on the grid"),
        ("state", {"family": "wkb", "params": {"center": 0.2, "width": 0.0, "amp": 0.4, "k": np.pi / 6.4}},
         r"state.params fits no eps of the ladder; .*at eps 0.05: envelope of center 0.2 and width 0.0 leaves the "
         r"state zero on the grid"),
        ("state", {"family": "wkb", "params": {"center": 0.2, "width": 1e-200, "amp": 0.4, "k": np.pi / 6.4}},
         r"state.params fits no eps of the ladder; .*at eps 0.05: envelope of center 0.2 and width 1e-200 leaves the "
         r"state zero on the grid"),
        ("state", {"family": "coherent", "family_params": {"q_centers": [-1.4, -0.9, -0.4],
                                                           "p_centers": [-0.6, 0.2, 0.8],
                                                           "wkb": [-0.9, 0.0, 0.3, np.pi / 8]}},
         r"state.family_params fits no eps of the ladder; .*at eps 0.025: envelope of center -0.9 and width 0.0 "
         r"leaves the state zero"),
        # no centers: the maximum over an empty family reads an exact 0.0 at every point
        ("state", {"params": {"centers": []}}, r"state.params\['centers'\] must be a list of .*, not empty"),
        # a finite parameter that overflows the constructor leaves a non-finite state at every eps; the
        # load refuses it without a floating-point warning
        ("state", {"family": "sharp_momentum", "params": {"p0": 0.45, "boost": 1e308}},
         r"state.params fits no eps of the ladder; .*at eps 0.05: non-finite wavefunction values"),
        ("state", {"family": "wkb", "params": {"center": 0.2, "width": 0.7, "amp": 0.4, "k": 1e308}},
         r"state.params fits no eps of the ladder; .*at eps 0.05: non-finite wavefunction values"),
        ("state", {"family": "coherent", "family_params": {"q_centers": [-1.4, -0.9, -0.4],
                                                           "p_centers": [-0.6, 0.2, 0.8],
                                                           "wkb": [-0.9, 0.6, 0.3, 1e308]}},
         r"state.family_params fits no eps of the ladder; .*at eps 0.025: non-finite wavefunction values"),
        # a model parameter that is not a finite real number: 10**400 has no float, and True would be read as 1
        ("model", {"tag": "crossing_trio", "params": {"g0": 10**400}},
         r"cannot build the model .*: params\['g0'\] must be a finite real number or a list of them, got 1000"),
        ("model", {"tag": "crossing_trio", "params": {"g0": True}},
         r"cannot build the model .*: params\['g0'\] must be a finite real number or a list of them, got True"),
        # whole configs (key None) that fail every row.  The decoupling lattice's one center fits eps
        # 0.2-0.05 only, and its WKB phase jumps by pi/20 = 2 pi 0.025 across the seam, so it fits 0.025 only
        (None, _config_file("perfbench/configs/decoupling.json", state={"family": "coherent", "family_params": {
            "q_centers": [0.0], "p_centers": [2.0], "wkb": [0.0, 0.6, np.pi / 40, np.pi / 8]}}),
         r"state.family_params fits no eps of the ladder; at eps 0.2: phase function jumps by 1.571e-01 .*"
         r"at eps 0.025: momentum center 2.0 too close to the lattice edge 2.513"),
        # one observable center too close to the box edge at eps 0.2, the other to the lattice edge below it
        (None, _config_file("src/adiband/configs/observables.json",
                            state={"params": {"centers": [[0.0, 4.5], [7.2, 0.0]]}}),
         r"state.params fits no eps of the ladder; at eps 0.2: center 7.2 closer than 2.236 to the box edge.*"
         r"at eps 0.1: momentum center 4.5 too close to the lattice edge 5.027"),
        # fibers finite at the grid's first point that overflow at its right end, without a floating-point warning
        (None, _config_file("src/adiband/configs/state_rates.json", window=None,
                            model={"tag": "crossing_trio", "params": {"curvature": 1e307}},
                            grid={"x_min": -1.0, "x_max": 15.0, "n_points": 512}),
         r"cannot build the model .*: crossing_trio: non-finite entries"),
        # a model that is not a JSON object has no parameters to check
        ("model", ["tag", "params"], r"model must be a JSON object, got \['tag', 'params'\]"),
    ],
)
def test_config_load_refuses_what_a_scan_would_ignore_or_fail_on(key, value, message):
    from adiband.harness import _config

    # the region and the fields of the hitting-time flow are read by the effective-dynamics config,
    # the energy cutoff by the decoupling one, the other fields by the small one; a state with a
    # family goes to the config that reads its keys.  A grid goes to the decoupling config, which
    # has no window that a grid of non-finite points would miss first.  A sharp-momentum or WKB
    # state goes to the state-rates config at n = 256 on eps 0.2 ... 0.05
    readers = {"region": "effective", "alpha": "effective", "flow_dt": "effective", "include_a_geo": "effective",
               "energy_cutoff": "decoupling", "grid": "decoupling"}
    overrides = {}
    if key == "state" and "family" in value:
        readers["state"] = "decoupling" if "family_params" in value else "effective"
        if value["family"] in ("sharp_momentum", "wkb") and "params" in value:
            readers["state"] = "state_rates"
            overrides = {"grid": {"x_min": -6.4, "x_max": 6.4, "n_points": 256}, "eps_ladder": [0.2, 0.1, 0.05]}
    # the band group (0, 1) as the lift band: the decoupling config without its lift index, and the
    # state-rates config with both bands
    if (key, value) in (("lift_band_index", None), ("band_indices", [0, 1])):
        readers[key] = "decoupling" if value is None else "state_rates"
    if key is None:
        data = value
    else:
        data = json.loads((_config(readers[key], **overrides) if key in readers else small_config()).to_json())
        data[key] = value
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_json(json.dumps(data))


def test_config_load_keeps_the_acceptance_cutoff():
    # the cutoff 2.0 of decoupling-rate-with-cutoff lies above crossing_trio's least fiber eigenvalue
    from adiband.harness import _config

    assert _config("decoupling", energy_cutoff=2.0).energy_cutoff == 2.0


def test_config_load_keeps_a_center_that_fits_some_eps():
    # the center -6.7 is closer to the edge -8 than the halo 5 sqrt(eps) at eps 0.2 and 0.1, and
    # fits at 0.05: it loads, and only its rows at the larger eps report the refusal
    cfg = small_config(state={"params": {"centers": [[-0.5, 0.4], [-6.7, -0.3]]}})
    statuses = [p["status"] for p in eps_scan(cfg).points]
    assert statuses == ["error", "error", "ok"]
    # so does a decoupling family whose one center, -2.7 on [-4, 4], fits only at eps 0.05, and whose
    # WKB phase does not jump across the seam, so its WKB row fits at every eps
    cfg = ExperimentConfig(**_small_row_config("decoupling", {"family": "coherent", "family_params": {
        "q_centers": [-2.7], "p_centers": [0.2], "wkb": [-0.9, 0.6, 0.3, np.pi / 4]}})).validate()
    statuses = [p["status"] for p in eps_scan(cfg).points]
    assert statuses == ["error", "error", "ok"]


def _small_row_config(functional, state):
    """The fields of a decoupling or observable-pairing config on [-4, 4] at n = 128, on eps 0.2, 0.1, 0.05.

    The lattice edge eps max |k| is 10.05, 5.03 and 2.51 there, and the halo 5 sqrt(eps) of a coherent
    center 2.24, 1.58 and 1.12.
    """
    common = dict(grid={"x_min": -4.0, "x_max": 4.0, "n_points": 128}, eps_ladder=[0.2, 0.1, 0.05], times=[0.5],
                  functional=functional, state=state)
    if functional == "decoupling":
        return dict(common, model={"tag": "crossing_trio", "params": {}}, band_indices=[0, 1], lift_band_index=0)
    return dict(common, model={"tag": "two_band_complex", "params": {}}, symbol="p")


_ROW_CACHE = PropagatorCache()


def _loads_iff_some_row_builds(functional, state, build):
    """The whole-row rule on one state set: if the config loads, some row of its scan is ok; if the load
    refuses the set as fitting no eps, the row's own builder `build(eps)` raises at every eps."""
    data = _small_row_config(functional, state)
    try:
        cfg = ExperimentConfig(**data).validate()
    except ValueError as exc:
        assert "fits no eps of the ladder" in str(exc)
        for eps in data["eps_ladder"]:
            with pytest.raises(ValueError):
                build(eps)
        return
    assert "ok" in [p["status"] for p in eps_scan(cfg, _ROW_CACHE).points]


# centers near and past the box edge (a halo from 2.24 to 1.12) and the lattice edge (10.05 to 2.51)
_Q = st.floats(-4, 4)
_P = st.floats(-9, 9)


@settings(max_examples=40, deadline=None)
@given(centers=st.lists(st.tuples(_Q, _P), min_size=1, max_size=3))
@example(centers=[(0.0, 4.5), (2.2, 0.0)])  # the first fits eps 0.2 only, the second 0.1 and 0.05 only
def test_observable_centers_load_only_when_a_row_builds_them(centers):
    grid = _family_band().grid
    _loads_iff_some_row_builds("observable_pairing", {"params": {"centers": [list(c) for c in centers]}},
                               lambda eps: [coherent_state(grid, eps, q0, p0) for q0, p0 in centers])


@settings(max_examples=40, deadline=None)
@given(
    q_centers=st.lists(_Q, max_size=2),
    p_centers=st.lists(_P, max_size=2),
    # the phase amp sin(k X) jumps by 2 amp sin(4 k) across the seam: by 2 pi 0.05 (amp pi/20), 2 pi 0.1
    # (amp pi/10) or 0.6 (amp 0.3), a whole winding at eps 0.05, at 0.1 and 0.05, or at none, for
    # k = pi/8, and by 0 for k = pi/4
    wkb=st.tuples(st.floats(-2, 2), st.floats(0.3, 1.0), st.sampled_from([0.0, np.pi / 20, np.pi / 10, 0.3]),
                  st.sampled_from([np.pi / 8, np.pi / 4])),
)
@example(q_centers=[0.0], p_centers=[2.0], wkb=(0.0, 0.6, np.pi / 20, np.pi / 8))  # center: 0.2, 0.1; WKB: 0.05
def test_decoupling_family_loads_only_when_a_row_builds_it(q_centers, p_centers, wkb):
    state = {"family": "coherent", "family_params": {"q_centers": q_centers, "p_centers": p_centers, "wkb": list(wkb)}}
    _loads_iff_some_row_builds("decoupling", state,
                               lambda eps: standard_state_family(_family_band(), eps, q_centers, p_centers, wkb))


@pytest.mark.parametrize(
    "functional, state, message",
    [
        # the decoupling family is a coherent lattice plus one WKB state, all from family_params
        ("decoupling", {"family": "coherent", "params": {"q0": -0.9, "p0": 0.2}}, "state keys"),
        ("decoupling", {"family": "wkb", "family_params": {"q_centers": [0.0], "p_centers": [0.0],
                                                           "wkb": [0.0, 0.6, 0.3, 0.4]}}, "coherent"),
        ("decoupling", {"family": "coherent", "family_params": {"q_centers": [0.0], "p_centers": [0.0]}},
         "state.family_params keys"),
        ("observable_pairing", {"family": "coherent", "params": {"centers": [[0.0, 0.4]]}}, "state keys"),
        ("observable_pairing", {"params": {"centers": [[0.0, 0.4]], "q0": 0.0}}, "state.params keys"),
        ("state_observables", {"family": "coherent", "params": {"q0": 0.0, "p0": 0.4}, "seed": 1},
         "state keys"),
        # state.params are the keyword arguments of the family constructor, with no hidden defaults
        ("state_observables", {"family": "coherent", "params": {"q0": 0.3, "p0": 0.4, "profile": "gaussian_skew",
                                                                "widht": 2.0}}, "widht"),
        ("state_observables", {"family": "wkb", "params": {"center": 0.2, "width": 0.7, "amp": 0.4}}, "'k'"),
        ("egorov", {"family": "sharp_momentum", "params": {"p0": 0.45, "bost": 1.0}}, "bost"),
        ("effective_dynamics", {"family": "squeezed", "params": {}}, "unknown state family"),
    ],
)
def test_config_rejects_unread_state_keys(functional, state, message):
    with pytest.raises(ValueError, match=message):
        small_config(functional=functional, band_indices=[0, 1], lift_band_index=0, state=state)


@pytest.mark.parametrize(
    "state, key",
    [
        # the sharp-momentum constructor takes no profile: its envelope is center, width and boost
        ({"family": "sharp_momentum", "params": {"p0": 0.45, "profile": "gaussian"}}, "profile"),
        ({"family": "coherent", "params": {"q0": 0.3, "p0": 0.4, "profile": "lorentzian"}}, "profile"),
        ({"family": "coherent", "params": {"q0": "0.3", "p0": 0.4}}, "q0"),
        ({"family": "wkb", "params": {"center": 0.2, "width": 0.7, "amp": True, "k": 0.5}}, "amp"),
    ],
)
def test_config_refuses_state_params_of_the_wrong_type(state, key):
    from adiband.harness import _config

    message = rf"state.params\['{key}'\]"
    if state["family"] == "sharp_momentum":
        message = r"state.params do not fit the sharp_momentum constructor: .*'profile'"
    with pytest.raises(ValueError, match=message):
        _config("state_rates", state=state)


def test_a_width_whose_square_overflows_is_the_flat_envelope():
    from adiband.harness import _config

    cfg = _config("state_rates", state={"family": "sharp_momentum", "params": {"p0": 0.45, "width": 1e200}})
    _, phi, _ = cfg.make_state(cfg.lift_band(), 0.1)
    assert np.ptp(np.abs(phi.values)) <= 1e-15


def test_leakage_window_reads_flow_dt():
    from adiband.harness import _config
    from adiband.semiclassics import band_energy_interpolant, hitting_times

    cfg = _config("leakage", flow_dt=5e-4)
    _, dE = band_energy_interpolant(cfg.build_band())
    direct = hitting_times(cfg.build_region(), tuple(cfg.window), cfg.delta, dE, alpha=cfg.alpha, dt=5e-4)
    assert cfg.hitting_window() == direct
    assert direct != _config("leakage").hitting_window()


@pytest.mark.parametrize(
    "name, overrides, band_sets",
    [
        # the decoupling band pair and the lift band
        ("decoupling", {"grid": {"x_min": -8.0, "x_max": 8.0, "n_points": 256}}, 2),
        ("effective", {"grid": {"x_min": -6.4, "x_max": 6.4, "n_points": 128}}, 1),
    ],
)
def test_scan_builds_each_band_once(monkeypatch, name, overrides, band_sets):
    from adiband import harness

    # counted from the config's JSON: an effective config's validation builds the lift band
    # for its hitting window, and the scan reuses it
    few = harness._config(name, eps_ladder=[0.2, 0.1, 0.05], times=[1.0], **overrides).to_json()
    many = harness._config(name, eps_ladder=[0.25, 0.2, 0.1, 0.05], times=[0.5, 1.0, 1.5], **overrides).to_json()
    calls, real = [], harness.band_decompose

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "band_decompose", counted)
    cache = PropagatorCache()
    for text in (few, many):
        calls.clear()
        res = eps_scan(ExperimentConfig.from_json(text), cache)
        assert all(p["status"] == "ok" for p in res.points)
        assert len(calls) == band_sets


def test_effective_scan_decomposes_its_lift_band_once(monkeypatch):
    # one from_json + eps_scan of the effective config: validation decomposes the lift band
    # for the hitting window, and the scan takes that band, kept with the content it was built for
    from adiband import harness

    text = harness._config("effective").to_json()
    calls, real = [], harness.band_decompose

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "band_decompose", counted)
    cfg = ExperimentConfig.from_json(text)
    res = eps_scan(cfg, PropagatorCache())
    assert all(p["status"] == "ok" for p in res.points)
    assert len(calls) == 1
    # a config changed since its validation never gets the stale band
    cfg.delta = 0.3
    assert cfg.lift_band().delta == 0.3
    assert len(calls) == 2


def test_decoupling_config_keeps_its_bands_across_scans(monkeypatch):
    # both band sets of a decoupling scan, the pair and the lift band, are kept with the
    # config: a second scan of the same config object decomposes nothing, and a config
    # changed since gets both band sets anew, built for its new content
    from adiband import harness

    cfg = harness._config("decoupling", eps_ladder=[0.4, 0.2, 0.1],
                          grid={"x_min": -8.0, "x_max": 8.0, "n_points": 128})
    built, real = [], harness.band_decompose

    def counted(model, grid, indices, **kwargs):
        built.append((grid.n_points, tuple(indices), kwargs["window"]))
        return real(model, grid, indices, **kwargs)

    monkeypatch.setattr(harness, "band_decompose", counted)
    cache = PropagatorCache()
    first = eps_scan(cfg, cache)
    assert sorted(built) == [(128, (0,), None), (128, (0, 1), None)]
    built.clear()
    assert eps_scan(cfg, cache).canonical_payload() == first.canonical_payload()
    assert built == []
    for change, want in (({"window": [-6.0, 6.0]}, (128, (-6.0, 6.0))),
                         ({"grid": {"x_min": -8.0, "x_max": 8.0, "n_points": 256}}, (256, (-6.0, 6.0)))):
        for name, value in change.items():
            setattr(cfg, name, value)
        built.clear()
        assert all(p["status"] == "ok" for p in eps_scan(cfg, cache).points)
        n, window = want
        assert sorted(built) == [(n, (0,), window), (n, (0, 1), window)]
        assert all(b.grid.n_points == n and b.window == window for b in (cfg.build_band(), cfg.lift_band()))
    # a build that raises is not kept: each row tries it again, and fails
    def failing(model, grid, indices, **kwargs):
        built.append((grid.n_points, tuple(indices), kwargs["window"]))
        raise ValueError("no band here")

    monkeypatch.setattr(harness, "band_decompose", failing)
    cfg.window = [-5.0, 5.0]
    built.clear()
    res = eps_scan(cfg, cache)
    assert all(p["status"] == "error" and "no band here" in p["message"] for p in res.points)
    assert len(built) == len(cfg.eps_ladder)


def test_decoupling_scan_assembles_one_full_h_per_eps(monkeypatch):
    # the decoupling pair of an eps is built from the blocks of H it solves (crossing_trio's
    # -X level is uncoupled: components {0, 2} and {1}, blocks of 256 and 128), and no
    # N x N operator is formed; diagonalize solves the {0, 2} block of H, then the ran P
    # and ran Q parts (128 each) of that block of H_diag in the fiber frame; the -X
    # block, where H_diag equals H, is neither built nor solved, since no cutoff is set.
    # Components are found only on m x m fiber patterns, never by an N x N exact-zero
    # scan, and once for the scan: the parts of H (its fiber stack) are built once, and
    # each eps's block derives from them
    from adiband import electronic, hamiltonians, harness, propagation

    cfg = harness._config("decoupling", eps_ladder=[0.4, 0.2, 0.1],
                          grid={"x_min": -8.0, "x_max": 8.0, "n_points": 128})
    calls = {"molecular_operator": 0, "block": 0, "assemble_full": 0, "assemble_diag": 0}
    dims, formed, blocks, patterns, real_eigh = [], [], [], [], np.linalg.eigh

    def components(pattern):
        patterns.append(pattern.shape)
        return real_components(pattern)

    def eigh(M):
        if M.ndim == 2:
            blocks.append(len(M))
        return real_eigh(M)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def diagonalize(H, *args, **kwargs):
        dims.append(H.dim)
        return real_diagonalize(H, *args, **kwargs)

    def checked(H):
        formed.append(H.dim)
        real_check(H)

    def checked_by_parts(matrix, **meta):
        formed.append(len(matrix))
        return real_checked(matrix, **meta)

    real_diagonalize = propagation.diagonalize
    real_check = hamiltonians.DenseHamiltonian.__post_init__
    real_checked = hamiltonians.DenseHamiltonian._checked
    real_components = electronic._coupled_components
    monkeypatch.setattr(electronic, "_coupled_components", components)
    monkeypatch.setattr(hamiltonians, "_coupled_components", components)
    monkeypatch.setattr(harness, "molecular_operator", counted("molecular_operator", harness.molecular_operator))
    monkeypatch.setattr(hamiltonians.FiberedOperator, "block", counted("block", hamiltonians.FiberedOperator.block))
    monkeypatch.setattr(harness, "assemble_full", counted("assemble_full", harness.assemble_full))
    monkeypatch.setattr(hamiltonians, "assemble_full", counted("assemble_full", hamiltonians.assemble_full))
    monkeypatch.setattr(hamiltonians, "assemble_diag", counted("assemble_diag", hamiltonians.assemble_diag))
    monkeypatch.setattr(harness, "diagonalize", diagonalize)
    monkeypatch.setattr(propagation, "diagonalize", diagonalize)
    monkeypatch.setattr(hamiltonians.DenseHamiltonian, "__post_init__", checked)
    monkeypatch.setattr(hamiltonians.DenseHamiltonian, "_checked", checked_by_parts)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    res = eps_scan(cfg, PropagatorCache())
    assert all(p["status"] == "ok" for p in res.points)
    assert calls == {"molecular_operator": 1, "block": 3, "assemble_full": 0, "assemble_diag": 0}
    # every operator formed is one block: H's {0, 2} block, then the two parts of H_diag's;
    # H's {0, 2} block is solved, then the parts
    assert formed == [256, 128, 128] * 3
    assert dims == [256, 128, 128] * 3
    assert blocks == [256, 128, 128] * 3
    # m x m patterns only: the two band sets' fiber stacks (the pair's and the lift band's), and
    # the operator's components, read once for the three eps
    assert patterns == [(3, 3)] * 3


@pytest.mark.parametrize("energy_cutoff", [None, 2.0])
def test_decoupling_scan_evaluates_each_eps_as_one_row(monkeypatch, energy_cutoff):
    # the four times of an eps come from one decoupling_error call on the eps's pair, in H_diag's
    # eigenbasis: no propagator applies a state, and the shared -X block is solved only for a cutoff
    from adiband import harness
    from adiband.propagation import SpectralPropagator

    cfg = harness._config("decoupling", eps_ladder=[0.4, 0.2, 0.1], times=[0.5, 1.0, 1.5, 2.0],
                          energy_cutoff=energy_cutoff, grid={"x_min": -8.0, "x_max": 8.0, "n_points": 128})
    cache = PropagatorCache()
    calls, real = [], harness.decoupling_error

    def counted(pair, *args, **kwargs):
        calls.append(pair.eps)
        return real(pair, *args, **kwargs)

    monkeypatch.setattr(harness, "decoupling_error", counted)
    monkeypatch.setattr(SpectralPropagator, "apply", None)
    res = eps_scan(cfg, cache)
    assert [p["status"] for p in res.points] == ["ok"] * 12
    assert calls == [0.4, 0.2, 0.1]
    monkeypatch.undo()
    # each point is the family's largest error at its own time, as one call per time gives it.
    # To rounding, not bitwise: crossing_trio's split block here is 256 wide, and OpenBLAS rounds
    # the product with M for 80 columns (the row) differently from 20 (one time)
    band, fam = cfg.build_band(), cfg.state["family_params"]
    for p in res.points:
        pair = cache.diag(cfg, band.model, band.grid, band, p["eps"])
        assert ("shared_solves" in vars(pair)) == (energy_cutoff is not None)
        family = standard_state_family(cfg.lift_band(), p["eps"], fam["q_centers"], fam["p_centers"], fam["wkb"])
        one = decoupling_error(pair, family, [p["t"]], energy_cutoff=energy_cutoff)
        assert p["error"] == pytest.approx(float(one.max()), rel=1e-14)


def test_decoupling_cutoff_at_the_spectral_bound_is_a_row_error():
    # a cutoff below the Weyl bound of H's spectrum is refused at load (-100: see the load refusals);
    # one at the bound itself, the least fiber eigenvalue, loads.  The kinetic term lifts every
    # eigenvalue of H above it, so it annihilates every state, which each row records
    from adiband import harness
    from adiband.grids import make_grid
    from adiband.hamiltonians import molecular_operator
    from adiband.models import get_model

    grid = {"x_min": -8.0, "x_max": 8.0, "n_points": 128}
    floor = molecular_operator(get_model("crossing_trio"), make_grid(**grid)).spectral_bounds(0.4)[0]
    cfg = harness._config("decoupling", eps_ladder=[0.4, 0.2, 0.1], energy_cutoff=floor, grid=grid)
    res = eps_scan(cfg, PropagatorCache())
    assert {(p["status"], p["message"]) for p in res.points} == {
        ("error", "ValueError: energy cutoff annihilated the state")}


def test_decoupling_row_that_raises_fails_every_point_of_its_eps(monkeypatch):
    from adiband import harness

    cfg = harness._config("decoupling", eps_ladder=[0.4, 0.2, 0.1], times=[0.5, 1.0, 1.5],
                          grid={"x_min": -8.0, "x_max": 8.0, "n_points": 128})
    real, calls = harness.decoupling_error, []

    def failing_at_02(pair, *args, **kwargs):
        calls.append(pair.eps)
        if pair.eps == 0.2:
            raise RuntimeError("row failed")
        return real(pair, *args, **kwargs)

    monkeypatch.setattr(harness, "decoupling_error", failing_at_02)
    res = eps_scan(cfg, PropagatorCache())
    for p in res.points:
        assert p["status"] == ("error" if p["eps"] == 0.2 else "ok")
    assert all(p["message"] == "RuntimeError: row failed" for p in res.points if p["eps"] == 0.2)
    # the row is the unit of the scan: each eps is computed once, whether it fails or not
    assert calls == [0.4, 0.2, 0.1]
    # the row's wall clock goes on its first point
    assert [c == 0.0 for c in res.wall_clock] == [False, True, True] * 3
    assert res.slope is None


def test_effective_scan_projects_each_eps_once(monkeypatch):
    # two times inside the hitting window: one phase-space projection per eps,
    # and each point equal to the single-time evaluation of its (eps, t)
    from adiband import harness

    cfg = harness._config("effective", eps_ladder=[0.2, 0.1, 0.05], times=[0.6, 1.2],
                          grid={"x_min": -6.4, "x_max": 6.4, "n_points": 128})
    real, calls = harness.apply_phase_space_projection, []

    def counted(psi, band, region, alpha, eps):
        calls.append(eps)
        return real(psi, band, region, alpha, eps)

    monkeypatch.setattr(harness, "apply_phase_space_projection", counted)
    cache = PropagatorCache()
    res = eps_scan(cfg, cache)
    assert [(p["eps"], p["t"], p["status"]) for p in res.points] == [
        (eps, t, "ok") for eps in (0.2, 0.1, 0.05) for t in (0.6, 1.2)
    ]
    assert calls == [0.2, 0.1, 0.05]
    for p in res.points:
        assert p["error"] == harness._scan_effective(cfg, cache, p["eps"], [p["t"]])[0]


def test_list_valued_model_parameter_scans():
    # the cache keys on the model's parameters; a list value must not make
    # the key unhashable.  A constant fiber commutes with the kinetic term,
    # so the band set decouples exactly and every error is rounding.
    from adiband import harness

    cfg = harness._config("decoupling", eps_ladder=[0.2, 0.1, 0.05],
                          model={"tag": "constant_fiber", "params": {"levels": [1.0, 2.0, 4.0]}},
                          grid={"x_min": -8.0, "x_max": 8.0, "n_points": 256})
    res = eps_scan(cfg, PropagatorCache())
    assert [p["status"] for p in res.points] == ["ok"] * 3
    assert max(p["error"] for p in res.points) <= 1e-12


@pytest.mark.parametrize(
    "override",
    [{"energy_cutoff": 2.0}, {"include_a_geo": False}, {"flow_dt": 0.5}, {"alpha": 0.2},
     {"region": [[-1.0, 1.0, -0.5, 0.5]]}],
)
def test_config_rejects_fields_the_functional_does_not_read(override):
    # observable_pairing reads none of these; at their defaults they pass
    with pytest.raises(ValueError, match=rf"does not read \['{next(iter(override))}'\]"):
        small_config(**override)
    small_config(energy_cutoff=None, include_a_geo=True, flow_dt=1e-3, alpha=0.3, region=None)
    with pytest.raises(ValueError, match=r"does not read \['symbol'\]"):
        small_config(functional="state_observables", symbol="q",
                     state={"family": "coherent", "params": {"q0": 0.0, "p0": 0.4}})


@pytest.mark.parametrize(
    "path",
    sorted(ROOT.glob("perfbench/configs/*.json")) + sorted(ROOT.glob("src/adiband/configs/*.json")),
    ids=lambda p: str(p.relative_to(ROOT)),
)
def test_shipped_configs_load(path):
    # the benchmark and the acceptance suites parse these files; a stricter
    # config must not refuse them
    assert ExperimentConfig.from_json(path.read_text()).functional in FUNCTIONALS


# ------------------------------------------------------------- scans/reports


@pytest.fixture(scope="module")
def scan_result():
    return eps_scan(small_config(), PropagatorCache())


def test_scan_points_sorted_and_ok(scan_result):
    eps_seq = [p["eps"] for p in scan_result.points]
    assert eps_seq == sorted(eps_seq, reverse=True)
    assert all(p["status"] == "ok" for p in scan_result.points)
    assert scan_result.slope is not None


def test_scan_synthetic_error_recorded():
    # a state that some rows cannot hold fails per point without aborting the scan: the sharp
    # momentum 6.0 lies within 0.8 of the lattice edge (10.05, 5.03, 2.51) at eps 0.2 only.  One
    # past it at every eps, 20.0, is refused at load
    def config(p0):
        return small_config(functional="state_observables", state={"family": "sharp_momentum", "params": {"p0": p0}})

    res = eps_scan(config(6.0), PropagatorCache())
    assert [p["status"] for p in res.points] == ["ok", "error", "error"]
    assert all("momentum 6.0 too close to the lattice edge" in p["message"] for p in res.points[1:])
    assert res.slope is None
    with pytest.raises(ValueError, match="state.params fits no eps of the ladder; .*at eps 0.05: momentum 20.0 too "):
        config(20.0)


def _berry_config(**over):
    from adiband.harness import _config

    return _config("berry", grid={"x_min": -6.4, "x_max": 6.4, "n_points": 256},
                   eps_ladder=[0.2, 0.1, 0.05], **over)


@pytest.mark.parametrize("symbol", ["q", "p"])
def test_egorov_scan_first_order(symbol):
    # egorov reads no phase-space region: its region and alpha stay at their defaults
    cfg = _berry_config(functional="egorov", symbol=symbol, region=None, alpha=0.3)
    res = eps_scan(cfg, PropagatorCache())
    assert all(p["status"] == "ok" for p in res.points)
    assert 0.75 <= res.slope <= 1.25


def test_leakage_scan_honours_include_a_geo():
    from adiband.harness import _scan_leakage

    cache = PropagatorCache()
    cfg_on = _berry_config(functional="boundary_leakage")
    cfg_off = _berry_config(functional="boundary_leakage", include_a_geo=False)
    (on,) = _scan_leakage(cfg_on, cache, 0.1, [0.8])
    (off,) = _scan_leakage(cfg_off, cache, 0.1, [0.8])
    assert abs(on - off) > 1e-3 * on


@pytest.mark.parametrize(
    "functional, overrides, per_row",
    [
        # one region indicator; the five standard observables; one named symbol
        ("boundary_leakage", {}, 1),
        ("state_observables", {"region": None, "alpha": 0.3}, 5),
        ("egorov", {"symbol": "q", "region": None, "alpha": 0.3}, 1),
    ],
)
def test_semiclassical_rows_quantize_once_per_row(monkeypatch, functional, overrides, per_row):
    # the Weyl quantizations do not depend on t: a row of three times builds each
    # matrix (or forms each table) once, and gives what three one-time rows give.  To rounding, not
    # bitwise: the row is one apply of three times, and the BLAS rounds a product
    # of three columns differently from one.  The largest gaps measured are 4.4e-16
    # absolute on the Egorov defects, differences of expectations of order one,
    # and 1.4e-14 relative on the others.
    from adiband import harness, semiclassics

    cfg = _berry_config(functional=functional, times=[0.3, 0.55, 0.8], **overrides)
    cache = PropagatorCache()
    fn = harness.FUNCTIONALS[functional]
    # the region indicator's table is formed once, a block of rows at a time, and applied to
    # one state by `_weyl_matvec`, without its matrix
    quantize = "_weyl_table" if functional == "boundary_leakage" else "weyl_quantize"
    counted, real = [], getattr(semiclassics, quantize)

    def counting(*args, **kwargs):
        counted.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(semiclassics, quantize, counting)
    row = fn(cfg, cache, 0.1, cfg.times)
    assert len(counted) == per_row
    assert list(row) == pytest.approx([fn(cfg, cache, 0.1, [t])[0] for t in cfg.times], rel=1e-13, abs=2e-15)
    counted.clear()
    res = eps_scan(cfg, cache)
    assert all(p["status"] == "ok" for p in res.points)
    assert len(counted) == per_row * len(cfg.eps_ladder)


def test_cache_entries_are_keyed_by_the_objects_passed():
    # one cfg, two models (same tag, other parameters): no propagator is shared
    from adiband.electronic import band_decompose
    from adiband.grids import make_grid
    from adiband.models import get_model
    from adiband.propagation import ChebyshevPropagator

    cfg = small_config()
    grid = make_grid(-8, 8, 64)
    models = (get_model("two_band_complex"), get_model("two_band_complex", g_im=0.3))
    bands = [band_decompose(model, grid, 0) for model in models]
    cache = PropagatorCache()
    built = [
        [cache.full(cfg, model, grid, 0.1), cache.diag(cfg, model, grid, band, 0.1),
         cache.diag(cfg, model, grid, band, 0.1), cache.bo(cfg, band, 0.1)]
        for model, band in zip(models, bands)
    ]
    for a, b in zip(*built):
        assert a is not b
    # the decoupling pair is dense: the eigenvalues of its full block differ
    for a, b in zip(built[0][1:3], built[1][1:3]):
        assert not np.array_equal(a.split[0][4], b.split[0][4])
    # the full and the BO propagators are matrix-free: their evolutions differ
    v = np.exp(-grid.x**2) + 0j
    vv = np.repeat(v, 2)
    assert not np.allclose(built[0][0].apply(vv, 1.0), built[1][0].apply(vv, 1.0))
    assert not np.allclose(built[0][3].apply(v, 1.0), built[1][3].apply(v, 1.0))
    # the same objects hit: a second diag call returns the kept pair.  full and bo are built anew on each
    # call and kept nowhere; full's parts are kept, once per model.  The matrix-free full and the
    # pair's full block (one block over every row), lifted to the grid, evolve alike, to the
    # rounding of the Chebyshev sum
    for model, band, props in zip(models, bands, built):
        assert props[1] is props[2]
        assert cache.full(cfg, model, grid, 0.1) is not props[0]
        assert cache.full(cfg, model, grid, 0.1).operator is props[0].operator is props[1].operator
        assert cache.bo(cfg, band, 0.1) is not props[3]
        assert isinstance(props[0], ChebyshevPropagator) and props[1].split
        ((rows, _, _, w_f, E_f),) = split_eigenbases(props[1])
        assert np.array_equal(rows, np.arange(len(vv)))
        want = E_f @ (np.exp(-1j * w_f * 1.0 / 0.1) * (E_f.conj().T @ vv))
        assert np.abs(props[0].apply(vv, 1.0) - want).max() <= 1e-12 * np.abs(want).max()
    # per model: its parts and one pair
    assert sorted(key[0] for key in cache._store) == ["pair", "pair", "parts", "parts"]
    # another grid is other parts as well
    assert cache.full(cfg, models[0], make_grid(-8, 8, 32), 0.1).dim == 64
    assert len(cache._store) == 5


def test_bo_cache_entries_are_keyed_by_the_gauge():
    # a band's gauge-shifted copy gives the conjugate BO operator, and a band that differs
    # only in its window margin delta extends E and A_geo from another shrunk window: each
    # evolves by its own BO operator.  H_diag reads neither the gauge nor the margin, so all
    # three bands share one diag entry.
    from adiband.electronic import band_decompose
    from adiband.grids import make_grid
    from adiband.models import get_model
    from adiband.propagation import diagonalize
    from oracles import assembled_bo

    cfg = small_config()
    grid, model = make_grid(-8, 8, 128), get_model("two_band_complex")
    band = band_decompose(model, grid, 0, window=(-2, 2))
    shifted = band.with_gauge_shift(0.3 * np.sin(2 * np.pi * grid.x / grid.length))
    # delta/5 and delta/2 of 0.5 and 1.0 clamp at other grid points (dx = 0.125)
    narrow = band_decompose(model, grid, 0, window=(-2, 2), delta=1.0)
    assert (shifted.delta, narrow.delta) == (band.delta, 1.0)
    cache = PropagatorCache()
    bands = (band, shifted, narrow)
    bos = [cache.bo(cfg, b, 0.1) for b in bands]
    diags = [cache.diag(cfg, model, grid, b, 0.1) for b in bands]
    assert diags[1] is diags[0] and diags[2] is diags[0]
    # each BO evolves as the dense oracle of its own band's BO operator, at its own margin
    v = np.exp(-grid.x**2) * np.exp(0.5j * grid.x)
    got = [p.apply(v, [0.5, 1.0]) for p in bos]
    for b, g in zip(bands, got):
        want = diagonalize(assembled_bo(b, 0.1, include_a_geo=cfg.include_a_geo)).apply(v, [0.5, 1.0])
        assert np.abs(g - want).max() <= 1e-12 * np.abs(want).max()
    assert not np.allclose(got[1], got[0]) and not np.allclose(got[2], got[0])
    # the BO propagators are kept nowhere: the parts and one pair
    assert sorted(key[0] for key in cache._store) == ["pair", "parts"]


@pytest.mark.parametrize(
    "name, pair_entries",
    [
        # the matrix-free scans keep only the molecular parts (effective: for its full propagator)
        ("effective", 0),
        ("state_rates", 0),
        # a decoupling scan keeps the parts and its dense pair, one entry per eps
        ("decoupling", 1),
    ],
)
def test_scans_keep_only_the_parts_and_the_decoupling_pair(name, pair_entries):
    from adiband import harness

    # the box of each config, at n = 128 and a ladder its rows resolve there
    box, ladder = ((-8.0, 8.0), [0.4, 0.2, 0.1]) if name == "decoupling" else ((-6.4, 6.4), [0.2, 0.1, 0.05])
    cfg = harness._config(name, eps_ladder=ladder, grid={"x_min": box[0], "x_max": box[1], "n_points": 128})
    cache = PropagatorCache()
    res = eps_scan(cfg, cache)
    assert all(p["status"] == "ok" for p in res.points)
    kinds = [key[0] for key in cache._store]
    assert kinds.count("parts") == 1
    assert sorted(kinds) == sorted(["parts"] + ["pair"] * pair_entries * len(cfg.eps_ladder))


def test_emit_json_roundtrip(tmp_path, scan_result):
    path = tmp_path / "out.json"
    emit_report(scan_result, path, fmt="json")
    back = load_result(path)
    assert back.canonical_payload() == scan_result.canonical_payload()


def test_load_result_refuses_another_schema_version(tmp_path, scan_result):
    path = emit_report(scan_result, tmp_path / "out.json")
    data = json.loads(path.read_text())
    data["schema_version"] = 7
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="schema_version 7 is not 1"):
        load_result(path)


@pytest.mark.parametrize("text", ["[1, 2]", "3", "null", '"config"'])
def test_a_document_that_is_not_an_object_is_refused(tmp_path, text):
    # neither a config nor a result: refused by the schema check, not by a TypeError or AttributeError
    path = tmp_path / "doc.json"
    path.write_text(text)
    for load in (lambda: ExperimentConfig.from_json(text), lambda: load_result(path)):
        with pytest.raises(ValueError, match=r"^the document must be a JSON object, got "):
            load()


def test_emit_json_byte_identical(tmp_path):
    cfg = small_config()
    r1 = eps_scan(cfg, PropagatorCache())
    r2 = eps_scan(cfg, PropagatorCache())
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    emit_report(r1, p1)
    emit_report(r2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_emit_csv_columns(tmp_path, scan_result):
    path = tmp_path / "out.csv"
    emit_report(scan_result, path, fmt="csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "epsilon,t,error,slope_so_far"
    assert len(lines) == 1 + len([p for p in scan_result.points if p["status"] == "ok"])
    # last cumulative slope approximates the scan slope
    last = float(lines[-1].split(",")[-1])
    assert last == pytest.approx(scan_result.slope, abs=0.2)


def test_emit_csv_empty_result(tmp_path):
    empty = ScanResult(functional="x", points=[], slope=None, intercept=None,
                       fit_residual=None, dropped_largest_eps=False, config={})
    path = tmp_path / "empty.csv"
    emit_report(empty, path, fmt="csv")
    assert path.read_text() == "epsilon,t,error,slope_so_far\n"


def test_timing_excluded_by_default(tmp_path, scan_result):
    path = tmp_path / "o.json"
    emit_report(scan_result, path)
    assert "wall_clock" not in json.loads(path.read_text())
    emit_report(scan_result, path, include_timing=True)
    assert "wall_clock" in json.loads(path.read_text())


# ------------------------------------------------------------- suites


def test_unknown_suite_lists_names():
    with pytest.raises(KeyError) as err:
        run_suite("unknown-suite")
    assert "identities" in str(err.value)


def test_identities_suite_passes():
    rep = run_suite("identities")
    assert rep.passed
    ids = [c.cid for c in rep.criteria]
    assert "riesz-vs-spectral" in ids and "bo-gauge-covariance" in ids


def test_suite_report_serializes():
    rep = run_suite("semiclassics")
    payload = json.loads(rep.to_json())
    assert payload["suite"] == "semiclassics"
    assert payload["passed"] is True
    assert all("detail" in c for c in payload["criteria"])


def test_criterion_detail_is_plain_python_values():
    # numpy scalars would print as np.float64(0.5) in the report lines, and np.bool_ / np.int64 do not serialize
    from adiband import harness

    crit = harness._crit("c", np.bool_(True), x=np.float64(0.5), flag=np.bool_(False), n=np.int64(3),
                         xs=(np.float64(0.25), np.float64(1.5)), none=None, bad=np.float64("nan"))
    assert {k: type(v) for k, v in crit.detail.items()} == {
        "x": float, "flag": bool, "n": int, "xs": list, "none": type(None), "bad": float}
    assert [type(v) for v in crit.detail["xs"]] == [float, float]
    rep = harness.SuiteReport(suite="s", criteria=[crit], seed=0)
    assert list(rep.lines()) == ["[PASS] c: bad=nan, flag=False, n=3, none=None, x=0.5, xs=[0.25, 1.5]"]
    (payload,) = json.loads(rep.to_json())["criteria"]
    assert payload["passed"] is True
    assert payload["detail"]["flag"] is False and payload["detail"]["n"] == 3 and payload["detail"]["xs"] == [0.25, 1.5]
    assert '"x": 0.5' in rep.to_json() and '"bad": NaN' in rep.to_json()


def test_standard_family_size_and_normalization():
    # ten states, left unnormalized: the decoupling error of each is relative to a norm of that
    # state, with and without an energy cutoff, so rescaling a state does not change its error.
    # By powers of two the rescaling is exact, and so is the error; by other factors, to rounding
    from adiband.electronic import band_decompose
    from adiband.grids import MolecularWave, make_grid
    from adiband.hamiltonians import molecular_operator
    from adiband.models import get_model
    from adiband.propagation import decoupling_error, diagonalize_pair

    grid = make_grid(-8, 8, 128)
    band = band_decompose(get_model("two_band_complex"), grid, 0)
    fam = standard_state_family(band, 0.1, (-1.0, 0.0, 1.0), (-0.4, 0.0, 0.4), (0.0, 0.6, 0.3, np.pi / 8))
    assert len(fam) == 10
    pair = diagonalize_pair(molecular_operator(band.model, grid), band, 0.1)
    cutoff = float(np.median(pair.split[0][4]))
    times = [0.5, 2.0]
    for energy_cutoff in (None, cutoff):
        want = decoupling_error(pair, fam, times, energy_cutoff=energy_cutoff)
        assert np.all(want > 1e-6)
        for scales, rel in ((2.0 ** np.arange(-5, 5), 0.0), (np.geomspace(1e-3, 1e3, 10), 1e-13)):
            scaled = [MolecularWave(grid, c * psi.values, eps=0.1) for c, psi in zip(scales, fam)]
            got = decoupling_error(pair, scaled, times, energy_cutoff=energy_cutoff)
            assert np.all(np.abs(got - want) <= rel * want)


def _same_states(got, want):
    """The same molecular waves, bit for bit, on the same grid and eps."""
    return len(got) == len(want) and all(
        a.grid is b.grid and a.eps == b.eps and a.values.tobytes() == b.values.tobytes() for a, b in zip(got, want))


@pytest.mark.parametrize(
    "path", sorted(ROOT.glob("src/adiband/configs/decoupling*.json")) + sorted(ROOT.glob("perfbench/configs/decoupling*.json")),
    ids=lambda p: f"{p.parts[-3]}-{p.stem}")
def test_state_family_is_the_per_state_construction_on_the_decoupling_configs(path):
    # the block-built family of each shipped decoupling config, at each eps of its ladder, is
    # the per-state construction bit for bit
    cfg = ExperimentConfig.from_json(path.read_text())
    fam, band = cfg.state["family_params"], cfg.lift_band()
    for eps in cfg.eps_ladder:
        args = (band, eps, fam["q_centers"], fam["p_centers"], fam["wkb"])
        got = standard_state_family(*args)
        assert len(got) == 10 and _same_states(got, per_state_family(*args))


@functools.cache
def _family_band():
    from adiband.electronic import band_decompose
    from adiband.grids import make_grid
    from adiband.models import get_model

    return band_decompose(get_model("crossing_trio"), make_grid(-4, 4, 128), 0)


@settings(max_examples=120, deadline=None)
@given(
    eps=st.sampled_from([0.2, 0.1, 0.05, 0.025]),
    q_centers=st.lists(st.floats(-4.5, 4.5), max_size=3),
    p_centers=st.lists(st.floats(-4, 4), max_size=3),
    wkb=st.tuples(st.floats(-2, 2), st.floats(0.3, 1.0), st.floats(0, 0.5),
                  st.sampled_from([np.pi / 4, np.pi / 2, 1.0])),
)
def test_state_family_matches_the_per_state_construction(eps, q_centers, p_centers, wkb):
    # random lattices, among them centers near or past the box edge and momenta past the lattice
    # edge, and WKB phases that do not wind across the seam: the same states, or the same refusal
    args = (_family_band(), eps, q_centers, p_centers, wkb)
    try:
        want = per_state_family(*args)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            standard_state_family(*args)
        assert str(got.value) == str(exc)
        return
    assert _same_states(standard_state_family(*args), want)


def test_acceptance_configs_are_canonical():
    from adiband.harness import _CONFIG_DIR, _config

    names = sorted(p.stem for p in _CONFIG_DIR.glob("*.json"))
    assert names == ["berry", "decoupling", "effective", "leakage", "observables", "state_rates"]
    for name in names:
        assert _config(name).to_json() + "\n" == (_CONFIG_DIR / f"{name}.json").read_text()
    assert _config("decoupling", energy_cutoff=2.0).energy_cutoff == 2.0
    assert _config("decoupling").energy_cutoff is None


def test_named_symbols_are_built_once():
    # the rows read each symbol from one table built at import, keyed by its name; the load refuses
    # a name outside it (the ("symbol", "q^3") case of the load test)
    from adiband.harness import _OBSERVABLE_SET, _SYMBOLS

    assert all(_SYMBOLS[s.name] is s for s in _OBSERVABLE_SET)
    assert sorted(_SYMBOLS) == sorted([s.name for s in _OBSERVABLE_SET] + ["windowed_p^2"])
    assert all(sym.name == name for name, sym in _SYMBOLS.items())
