import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from adiband.cli import main


@pytest.fixture()
def config_file(tmp_path):
    cfg = {
        "model": {"tag": "two_band_complex", "params": {}},
        "grid": {"x_min": -8.0, "x_max": 8.0, "n_points": 256},
        "band_indices": [0],
        "window": [-5.0, 5.0],
        "delta": 0.5,
        "eps_ladder": [0.2, 0.1, 0.05],
        "times": [0.0],
        "functional": "observable_pairing",
        "symbol": "p",
        "state": {"params": {"centers": [[-0.5, 0.4], [0.6, -0.3]]}},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_list_models(capsys):
    assert main(["list-models"]) == 0
    out = capsys.readouterr().out
    assert "two_band_complex" in out and "rotated_pair" in out


def test_run_writes_report(tmp_path, config_file, capsys):
    out = tmp_path / "result.json"
    assert main(["run", str(config_file), "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["functional"] == "observable_pairing"
    assert payload["slope"] is not None
    text = capsys.readouterr().out
    assert "fitted slope" in text


def test_run_csv_format(tmp_path, config_file):
    out = tmp_path / "result.csv"
    assert main(["run", str(config_file), "--output", str(out), "--format", "csv"]) == 0
    assert out.read_text().startswith("epsilon,t,error,slope_so_far")


def test_report_roundtrip(tmp_path, config_file):
    res = tmp_path / "r.json"
    main(["run", str(config_file), "--output", str(res)])
    out = tmp_path / "r.csv"
    assert main(["report", str(res), "--format", "csv", "--output", str(out)]) == 0
    assert out.read_text().startswith("epsilon,")


def test_run_default_output_takes_the_format(tmp_path, config_file, monkeypatch, capsys):
    # with no --output, CSV goes to scan_result.csv, not into scan_result.json
    monkeypatch.chdir(tmp_path)
    assert main(["run", str(config_file), "--format", "csv"]) == 0
    assert (tmp_path / "scan_result.csv").read_text().startswith("epsilon,t,error,slope_so_far")
    assert not (tmp_path / "scan_result.json").exists()
    assert "report written to scan_result.csv" in capsys.readouterr().out


def test_report_default_output_stays_in_the_result_directory(tmp_path, config_file):
    # a dot in a directory name is not the result's suffix: run.v2/result gives run.v2/result.csv
    folder = tmp_path / "run.v2"
    folder.mkdir()
    res = folder / "result"
    assert main(["run", str(config_file), "--output", str(res)]) == 0
    assert main(["report", str(res), "--format", "csv"]) == 0
    assert (folder / "result.csv").read_text().startswith("epsilon,")
    assert not (tmp_path / "run.csv").exists()


def test_report_refuses_to_overwrite_its_input(tmp_path, config_file, capsys):
    res = tmp_path / "r.json"
    assert main(["run", str(config_file), "--output", str(res), "--timing"]) == 0
    before = res.read_text()
    # the default output of --format json is <stem>.json, the input itself
    assert main(["report", str(res), "--format", "json"]) == 2
    assert main(["report", str(res), "--format", "csv", "--output", str(tmp_path / "." / "r.json")]) == 2
    assert "is the input result" in capsys.readouterr().err
    assert res.read_text() == before
    assert "wall_clock" in json.loads(before)


def test_suite_pass_exit_code(tmp_path, capsys):
    out = tmp_path / "suite.json"
    assert main(["suite", "semiclassics", "--output", str(out)]) == 0
    text = capsys.readouterr().out
    assert "[PASS]" in text and "suite semiclassics: PASS" in text
    assert json.loads(out.read_text())["passed"] is True


def test_suite_unknown_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["suite", "not-a-suite"])


def test_hitting_times_command(tmp_path, capsys):
    cfg = {
        "model": {"tag": "rotated_pair", "params": {}},
        "grid": {"x_min": -6.4, "x_max": 6.4, "n_points": 256},
        "band_indices": [0],
        "window": [-2.0, 2.0],
        "delta": 0.4,
        "region": [[-0.9, 1.5, -1.05, 0.45]],
        "alpha": 0.45,
        "eps_ladder": [0.2, 0.1, 0.05],
        "times": [1.0],
        "functional": "effective_dynamics",
        "state": {"family": "coherent", "params": {"q0": 0.3, "p0": -0.35}},
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["hitting-times", str(path)]) == 0
    out = capsys.readouterr().out
    assert "T+" in out and "T-" in out
    t_plus = float(out.strip().splitlines()[-1].split("=")[1])
    assert 1.4 <= t_plus <= 1.9


def test_suite_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["suite", "semiclassics", "--output", str(a)])
    main(["suite", "semiclassics", "--output", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_suite_determinism_report_keeps_booleans(tmp_path):
    # a boolean detail value stays a JSON boolean, not an integer
    path = tmp_path / "determinism.json"
    assert main(["suite", "determinism", "--output", str(path)]) == 0
    (crit,) = json.loads(path.read_text())["criteria"]
    assert crit["detail"]["points_ok"] is True
    assert type(crit["detail"]["bytes"]) is int


def test_import_loads_numpy_but_no_scipy():
    # a fresh interpreter: the package's runtime dependency is numpy alone
    code = ("import sys, adiband, adiband.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _refused_config(tmp_path):
    # the acceptance config of the effective rate with a time past its hitting-time window
    root = Path(__file__).resolve().parents[1]
    data = json.loads((root / "src/adiband/configs/effective.json").read_text())
    data["times"] = [50.0]
    path = tmp_path / "late.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("verb", ["run", "hitting-times"])
def test_a_refused_config_exits_2_with_one_line(tmp_path, capsys, verb):
    path = _refused_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([verb, str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"adiband: cannot load {path}: times [50.0] outside the hitting-time window")
    assert err.count("\n") == 1


def _acceptance_config(tmp_path, name, **overrides):
    """The acceptance config `name` with fields overridden, as a file; a field overridden by None is left out."""
    root = Path(__file__).resolve().parents[1]
    data = {**json.loads((root / f"src/adiband/configs/{name}.json").read_text()), **overrides}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({key: value for key, value in data.items() if overrides.get(key, 0) is not None}))
    return path


# rotated_pair at theta0 2.0: the lower band's frame component 0 vanishes at X = 1.06, inside the window
_THETA0_2 = {"tag": "rotated_pair", "params": {"theta0": 2.0}}


@pytest.mark.parametrize(
    "verb, name, overrides, message",
    [
        # the load refuses what every row would fail on, so no all-error report is written
        ("run", "state_rates", {"window": [-0.1, 0.1]}, "cannot build the band-energy interpolant: window"),
        # the gauge refusal of band_decompose was a RuntimeError that escaped the load with a traceback
        ("run", "effective", {"model": _THETA0_2}, "cannot build the band set: reference component 0 vanishes"),
        ("hitting-times", "leakage", {"model": _THETA0_2}, "cannot build the band set: reference component 0"),
        # a config without a required field, which the constructor refused with a TypeError
        ("run", "effective", {"functional": None}, r"missing config fields \['functional'\]"),
    ],
)
def test_a_config_no_row_can_build_exits_2_with_one_line(tmp_path, capsys, monkeypatch, verb, name, overrides,
                                                          message):
    path = _acceptance_config(tmp_path, name, **overrides)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([verb, str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"adiband: cannot load {path}: ") and err.count("\n") == 1
    assert re.search(message, err)
    assert not list(tmp_path.glob("scan_result.*"))


def test_a_result_with_an_unknown_field_exits_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"functional": "x", "points": [], "bogus": 1}))
    with pytest.raises(SystemExit) as exc:
        main(["report", str(path), "--output", str(tmp_path / "r.csv")])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"adiband: cannot load {path}: unknown result fields ['bogus']\n"
    assert not (tmp_path / "r.csv").exists()


def test_a_refused_result_exits_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"schema_version": 7}))
    with pytest.raises(SystemExit) as exc:
        main(["report", str(path), "--output", str(tmp_path / "r.csv")])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"adiband: cannot load {path}: schema_version 7 is not 1\n"
    assert not (tmp_path / "r.csv").exists()


def test_a_refused_config_prints_no_traceback(tmp_path):
    # the installed entry point's process: exit status 2 and the one line, no traceback
    path = _refused_config(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "adiband.cli", "run", str(path)], env=env, capture_output=True,
                          text=True, cwd=tmp_path)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("adiband: cannot load") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_an_error_after_the_load_keeps_its_traceback(config_file, monkeypatch):
    # only the load's refusal is caught: a ValueError raised inside the scan reaches the caller
    from adiband import cli

    def failing(cfg):
        raise ValueError("inside the scan")

    monkeypatch.setattr(cli, "eps_scan", failing)
    with pytest.raises(ValueError, match="inside the scan"):
        main(["run", str(config_file)])
