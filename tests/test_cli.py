"""Config-driven command line: schema, exit codes, and output files."""

import copy
import inspect
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GROWING_DRIFT, PROPERTY_SETTINGS, SHARP_PAIR_VALUE
from steerctl import (
    BipartiteState,
    ControlHamiltonian,
    DriftGenerator,
    OptimizeResult,
    PulseSequence,
    SteeringScenario,
    cli,
    landscape,
    lindblad,
    sharp_effect,
    steering_robustness,
    time_sweep,
)
from steerctl.cli import COMMANDS, CONFIG_SCHEMA, main

DATA = Path(__file__).parent / "data"

XZ_MEASUREMENTS = {
    "kind": "bloch_axes",
    "axes": [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
}

AD_SCENARIO = {
    "state": {"kind": "max_entangled"},
    "measurements": XZ_MEASUREMENTS,
    "drift": {"kind": "amplitude_damping", "gamma": 0.1},
    "control": [0.0, 1.0, 1.0],
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(command, config, out):
    return main([command, "--config", config, "--out", str(out)])


def test_check_command(tmp_path, capsys):
    config = write_config(tmp_path, {"scenario": {"measurements": XZ_MEASUREMENTS}})
    out = tmp_path / "result"
    assert run_cli("check", config, out) == 0
    payload = json.loads((tmp_path / "result.json").read_text())
    assert payload["command"] == "check"
    assert not payload["jointly_measurable"]
    assert payload["robustness"] == pytest.approx(SHARP_PAIR_VALUE, abs=1e-12)
    assert payload["c_functional"] == pytest.approx(-2.0, abs=1e-12)
    assert "incompatible" in capsys.readouterr().out


def test_check_command_compatible_pair(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {
            "scenario": {
                "measurements": {
                    "kind": "four_vectors",
                    "x1": [1.0, 0.4, 0.0, 0.0],
                    "x2": [1.0, 0.0, 0.0, 0.4],
                }
            }
        },
    )
    assert run_cli("check", config, tmp_path / "r") == 0
    payload = json.loads((tmp_path / "r.json").read_text())
    assert payload["jointly_measurable"]
    assert payload["robustness"] == 0.0
    assert "jointly measurable" in capsys.readouterr().out


def test_robustness_command_with_pulse(tmp_path):
    config = write_config(
        tmp_path,
        {
            "scenario": AD_SCENARIO,
            "pulse": {"dt": 0.14, "amplitudes": [0.0] * 20},
        },
    )
    assert run_cli("robustness", config, tmp_path / "r") == 0
    payload = json.loads((tmp_path / "r.json").read_text())
    assert 0.0 < payload["robustness"] < SHARP_PAIR_VALUE


def test_evolve_command_reports_the_transfer_matrix(tmp_path):
    config = write_config(
        tmp_path,
        {
            "scenario": AD_SCENARIO,
            "pulse": {"dt": 0.5, "amplitudes": [0.0, 0.0]},
        },
    )
    assert run_cli("evolve", config, tmp_path / "r") == 0
    payload = json.loads((tmp_path / "r.json").read_text())
    channel = np.array(payload["transfer_matrix"])
    e1 = np.exp(-0.1)
    assert channel[1, 1] == pytest.approx(e1, abs=1e-12)
    y1 = payload["evolved_x1"]
    assert y1[0] == pytest.approx(1.0 + (np.exp(-0.2) - 1.0) * 0.0, abs=1e-12)
    assert y1[1] == pytest.approx(e1, abs=1e-12)


def test_optimize_command_and_seed_override(tmp_path):
    base = {
        "scenario": AD_SCENARIO,
        "optimize": {"T": 1.0, "m": 4, "n_starts": 2, "seed": 0, "max_iters": 40},
    }
    config = write_config(tmp_path, base)
    assert run_cli("optimize", config, tmp_path / "a") == 0
    first = json.loads((tmp_path / "a.json").read_text())
    assert first["best_value"] >= first["baseline_value"] - 1e-12
    assert len(first["best_pulse"]["amplitudes"]) == 4
    assert len(first["start_values"]) == 3

    # identical rerun is byte-identical
    assert run_cli("optimize", config, tmp_path / "b") == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    # --seed overrides the configured seed
    assert main(["optimize", "--config", config, "--out", str(tmp_path / "c"), "--seed", "9"]) == 0
    third = json.loads((tmp_path / "c.json").read_text())
    assert third["start_values"] != first["start_values"]


def test_optimize_json_reports_each_starts_lbfgsb_status(tmp_path):
    block = {"T": 1.0, "m": 4, "n_starts": 2, "seed": 0, "max_iters": 1}
    config = write_config(tmp_path, {"scenario": AD_SCENARIO, "optimize": block})
    assert run_cli("optimize", config, tmp_path / "capped") == 0
    payload = json.loads((tmp_path / "capped.json").read_text())
    # scipy's status 1: each random start's descent stopped at its iteration
    # limit.  The zero start meets the gradient tolerance before its first
    # iteration, so it reports convergence (status 0).
    assert payload["status_per_start"] == [0, 1, 1]
    assert payload["iterations_per_start"] == [0, 1, 1]


@pytest.mark.parametrize("config_seed, flag", [(-1, []), (0, ["--seed", "-1"])])
def test_negative_seed_is_a_usage_error_before_any_run(
    tmp_path, monkeypatch, capsys, config_seed, flag
):
    def no_run(*args, **kwargs):
        raise AssertionError("the optimizer ran")

    monkeypatch.setattr(cli, "optimize", no_run)
    config = write_config(
        tmp_path,
        {
            "scenario": AD_SCENARIO,
            "optimize": {"T": 1.0, "m": 4, "n_starts": 2, "seed": config_seed, "max_iters": 40},
        },
    )
    assert main(["optimize", "--config", config, "--out", str(tmp_path / "r"), *flag]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_invalid_thread_count_is_a_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("STEERCTL_THREADS", "abc")
    config = write_config(
        tmp_path,
        {
            "scenario": AD_SCENARIO,
            "optimize": {"T": 1.0, "m": 4, "n_starts": 2, "seed": 0, "max_iters": 40},
        },
    )
    assert run_cli("optimize", config, tmp_path / "r") == 2
    assert "STEERCTL_THREADS" in capsys.readouterr().err


def test_naive_command(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {
            "scenario": AD_SCENARIO,
            "optimize": {"T": 1.0, "m": 4, "n_starts": 2, "seed": 0, "max_iters": 40},
        },
    )
    assert run_cli("naive", config, tmp_path / "r") == 0
    payload = json.loads((tmp_path / "r.json").read_text())
    assert payload["command"] == "naive"
    assert "naive-control" in capsys.readouterr().out


def test_naive_report_is_the_optimize_result_and_values_its_pulse(tmp_path):
    raw = {
        "scenario": {**AD_SCENARIO, "bias": 0.25},
        "optimize": {"T": 1.0, "m": 4, "n_starts": 2, "seed": 0, "max_iters": 40},
    }
    assert run_cli("naive", write_config(tmp_path, raw), tmp_path / "r") == 0
    payload = json.loads((tmp_path / "r.json").read_text())
    assert set(payload) == {"command"} | {f.name for f in fields(OptimizeResult)}
    # The naive baseline's best_value is the robustness of the pulse it
    # reports, through the same evaluator, so the two agree bit for bit.
    scenario = cli._scenario(cli._build_run_config(raw, "naive", None, None))
    pulse = PulseSequence(**payload["best_pulse"])
    assert payload["best_value"] == steering_robustness(scenario, pulse)


def test_landscape_command_csv(tmp_path):
    config = write_config(
        tmp_path,
        {
            "scenario": AD_SCENARIO,
            "landscape": {
                "t_drift": 2.6,
                "T": 2.8,
                "c1": {"min": -1.0, "max": 1.0, "step": 1.0},
                "c2": {"min": -1.0, "max": 1.0, "step": 1.0},
            },
        },
    )
    assert run_cli("landscape", config, tmp_path / "grid") == 0
    lines = (tmp_path / "grid.csv").read_text().strip().split("\n")
    assert lines[0] == "c1,c2,robustness"
    assert len(lines) == 1 + 9
    first = lines[1].split(",")
    assert float(first[0]) == -1.0 and float(first[1]) == -1.0


def test_landscape_csv_on_an_offset_grid_is_formatted_cell_by_cell(tmp_path):
    # Sub-step axis origins, as the benchmark's landscape workload draws
    # them, make the axis values 17-digit strings.  Unequal axes catch a
    # swap or a transpose; the file must be exactly the grid's cells in
    # row-major order, each value through _fmt.
    lo1, lo2 = np.random.default_rng(7).uniform(0.0, 0.5, 2) - (2.0, 3.0)
    c1 = {"min": lo1, "max": lo1 + 3.0, "step": 0.5}
    c2 = {"min": lo2, "max": lo2 + 5.5, "step": 0.5}
    payload = {
        "scenario": AD_SCENARIO,
        "landscape": {"t_drift": 2.6, "T": 2.8, "c1": c1, "c2": c2},
    }
    config = write_config(tmp_path, payload)
    assert run_cli("landscape", config, tmp_path / "grid") == 0
    rc = cli._build_run_config(json.loads(Path(config).read_text()), "landscape", None, None)
    grid = landscape(cli._scenario(rc), *rc.landscape_params)
    assert grid.values.shape == (7, 12) and grid.values.max() > 0.0
    assert len(cli._fmt(grid.c1_axis[1]).lstrip("-").replace(".", "").lstrip("0")) == 17
    expected = "c1,c2,robustness\n" + "".join(
        f"{cli._fmt(grid.c1_axis[i])},{cli._fmt(grid.c2_axis[j])},{cli._fmt(grid.values[i, j])}\n"
        for i in range(grid.c1_axis.size)
        for j in range(grid.c2_axis.size)
    )
    assert (tmp_path / "grid.csv").read_bytes() == expected.encode("utf-8")


def test_landscape_csv_is_streamed(tmp_path):
    # The rows go to the file one at a time, so the Python heap never holds
    # the whole table.  Built as one list of numpy scalars first, this
    # 61 x 61 run peaked at about 0.68 MB; streamed, at about 0.13 MB.
    axis = {"min": -7.5, "max": 7.5, "step": 0.25}
    land = {"t_drift": 2.6, "T": 2.8, "c1": axis, "c2": axis}
    config = write_config(tmp_path, {"scenario": AD_SCENARIO, "landscape": land})
    assert run_cli("landscape", config, tmp_path / "warm") == 0  # first-use caches
    tracemalloc.start()
    try:
        assert run_cli("landscape", config, tmp_path / "grid") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.34e6
    written = (tmp_path / "grid.csv").read_bytes()
    assert written == (tmp_path / "warm.csv").read_bytes()
    assert written.count(b"\n") == 1 + 61 * 61


def test_sweep_command_csv(tmp_path):
    config = write_config(
        tmp_path,
        {
            "scenario": AD_SCENARIO,
            "optimize": {"T": 1.0, "m": 4, "n_starts": 1, "seed": 0, "max_iters": 30},
            "sweep": {"t_grid": [0.5, 1.0]},
        },
    )
    assert run_cli("sweep", config, tmp_path / "s") == 0
    lines = (tmp_path / "s.csv").read_text().strip().split("\n")
    assert lines[0] == "T,uncontrolled,naive,optimized"
    assert len(lines) == 3
    row = [float(v) for v in lines[1].split(",")]
    assert row[0] == 0.5
    assert row[3] >= row[1] - 1e-12
    # Each column holds its own field of the sweep, through _fmt.
    rc = cli._build_run_config(json.loads(Path(config).read_text()), "sweep", None, None)
    points = time_sweep(cli._scenario(rc), rc.opt, rc.sweep_params[0])
    assert lines[1:] == [
        ",".join(map(cli._fmt, (p.T, p.uncontrolled, p.naive, p.optimized))) for p in points
    ]


def test_sweep_command_zero_pulse_only(tmp_path):
    config = write_config(
        tmp_path,
        {
            "scenario": AD_SCENARIO,
            "sweep": {"t_grid": [0.5, 1.0, 1.5], "include_control": False},
        },
    )
    assert run_cli("sweep", config, tmp_path / "s") == 0
    lines = (tmp_path / "s.csv").read_text().strip().split("\n")
    assert lines[0] == "T,uncontrolled"
    assert len(lines) == 4
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values[0] > values[1] > values[2]


TINY_OPTIMIZE = {"T": 1.0, "m": 3, "n_starts": 1, "seed": 0, "max_iters": 10}

#: One config section set per command; sweep runs in both of its modes.
EVALUATOR_RUNS = {
    "robustness": {"pulse": {"dt": 0.14, "amplitudes": [0.0, 1.0]}},
    "optimize": {"optimize": TINY_OPTIMIZE},
    "naive": {"optimize": TINY_OPTIMIZE},
    "landscape": {
        "landscape": {
            "t_drift": 2.6,
            "T": 2.8,
            "c1": {"min": -1.0, "max": 1.0, "step": 1.0},
            "c2": {"min": -1.0, "max": 1.0, "step": 1.0},
        }
    },
    "sweep": {"optimize": TINY_OPTIMIZE, "sweep": {"t_grid": [0.5, 1.0]}},
    "sweep-zero-pulse": {"sweep": {"t_grid": [0.5, 1.0], "include_control": False}},
}


@pytest.mark.parametrize("name", sorted(EVALUATOR_RUNS))
def test_every_command_builds_one_evaluator(tmp_path, resource_map_calls, name):
    # The scenario builds its evaluator, and with it the resource map, once;
    # every start, cell and sweep point of the command reuses it.
    config = write_config(tmp_path, {"scenario": AD_SCENARIO, **EVALUATOR_RUNS[name]})
    assert run_cli(name.split("-")[0], config, tmp_path / "r") == 0
    assert len(resource_map_calls) == 1


def test_unexpected_errors_propagate(tmp_path, monkeypatch):
    # only ValueError means a bad config; any other exception is a bug and
    # must not be reported as exit 2
    def broken(rc):
        raise TypeError("bug in a command handler")

    monkeypatch.setattr(cli, "_cmd_check", broken)
    config = write_config(tmp_path, {"scenario": {"measurements": XZ_MEASUREMENTS}})
    with pytest.raises(TypeError, match="bug in a command handler"):
        cli.run(config, command="check", out=str(tmp_path / "r"))


def test_command_can_come_from_the_config(tmp_path):
    payload = {"command": "check", "scenario": {"measurements": XZ_MEASUREMENTS}}
    config = write_config(tmp_path, payload)
    assert main(["check", "--config", config, "--out", str(tmp_path / "r")]) == 0


def test_command_mismatch_is_a_usage_error(tmp_path):
    payload = {"command": "check", "scenario": {"measurements": XZ_MEASUREMENTS}}
    config = write_config(tmp_path, payload)
    assert main(["evolve", "--config", config, "--out", str(tmp_path / "r")]) == 2


def test_unknown_command_is_a_usage_error(tmp_path, capsys):
    # A name outside COMMANDS runs nothing, not even the last command's
    # handler, and writes no output.
    payload = {"scenario": AD_SCENARIO, "sweep": {"t_grid": [0.5], "include_control": False}}
    config = write_config(tmp_path, payload)
    assert cli.run(config, command="bogus", out=str(tmp_path / "bogus")) == 2
    err = capsys.readouterr().err
    assert err == f"error: unknown command 'bogus'; expected one of {', '.join(COMMANDS)}\n"
    assert list(tmp_path.iterdir()) == [Path(config)]


def test_missing_config_file_is_a_usage_error(tmp_path):
    assert main(["check", "--config", str(tmp_path / "absent.json")]) == 2


def test_malformed_json_is_a_usage_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["check", "--config", str(path)]) == 2


INF, NAN = float("inf"), float("nan")


UNIT_AXIS = {"min": 0.0, "max": 1.0, "step": 1.0}


def landscape_block(c1_max=1.0, step=1.0, horizon=2.8):
    return {
        "t_drift": 2.6,
        "T": horizon,
        "c1": {"min": -1.0, "max": c1_max, "step": step},
        "c2": {"min": -1.0, "max": 1.0, "step": 1.0},
    }


#: json.dumps writes inf and nan as the literals Infinity and NaN.
NON_FINITE_CONFIGS = {
    "optimize-T": ("optimize", {"scenario": AD_SCENARIO, "optimize": {"T": INF}}),
    "amp_bounds": (
        "optimize",
        {"scenario": AD_SCENARIO, "optimize": {"T": 1.0, "amp_bounds": [-INF, INF]}},
    ),
    "landscape-T": ("landscape", {"scenario": AD_SCENARIO, "landscape": landscape_block(horizon=INF)}),
    "c1-max": ("landscape", {"scenario": AD_SCENARIO, "landscape": landscape_block(c1_max=INF)}),
    "c1-step": ("landscape", {"scenario": AD_SCENARIO, "landscape": landscape_block(step=INF)}),
    "t_grid": (
        "sweep",
        {"scenario": AD_SCENARIO, "sweep": {"t_grid": [INF], "include_control": False}},
    ),
    "four_vectors": (
        "check",
        {
            "scenario": {
                "measurements": {
                    "kind": "four_vectors",
                    "x1": [NAN, 0.4, 0.0, 0.0],
                    "x2": [1.0, 0.0, 0.0, 0.4],
                }
            }
        },
    ),
}

UNREADABLE_CONFIGS = {
    name: (command, json.dumps(payload).encode())
    for name, (command, payload) in NON_FINITE_CONFIGS.items()
}
# a finite literal that overflows to inf when parsed
UNREADABLE_CONFIGS["c1-max-1e400"] = (
    "landscape",
    UNREADABLE_CONFIGS["c1-max"][1].replace(b"Infinity", b"1e400"),
)
UNREADABLE_CONFIGS["non-utf8"] = ("check", b'{"scenario": {"measurements": "\xff"}}')
# nested far deeper than the recursion limit: the JSON decoder raises
# RecursionError
UNREADABLE_CONFIGS["nested-100000-deep"] = (
    "check",
    b'{"scenario": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
)


@pytest.mark.parametrize("name", sorted(UNREADABLE_CONFIGS))
def test_unreadable_configs_are_usage_errors(tmp_path, capsys, name):
    command, text = UNREADABLE_CONFIGS[name]
    path = tmp_path / "config.json"
    path.write_bytes(text)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "r")]) == 2
    assert "cannot read config" in capsys.readouterr().err


#: An integer literal beyond the double range: the schema's "number" accepts
#: it and the JSON read keeps it as a Python int.
HUGE = 10**400

OVERFLOWING_CONFIGS = {
    "optimize/T": ("optimize", {"scenario": AD_SCENARIO, "optimize": {"T": HUGE}}),
    "scenario/drift/gamma": (
        "check",
        {
            "scenario": {
                "measurements": XZ_MEASUREMENTS,
                "drift": {"kind": "amplitude_damping", "gamma": HUGE},
            }
        },
    ),
    "landscape/t_drift": (
        "landscape",
        {"scenario": AD_SCENARIO, "landscape": {**landscape_block(), "t_drift": HUGE}},
    ),
    "landscape/c1/max": (
        "landscape",
        {"scenario": AD_SCENARIO, "landscape": landscape_block(c1_max=HUGE)},
    ),
    "sweep/t_grid/1": (
        "sweep",
        {"scenario": AD_SCENARIO, "sweep": {"t_grid": [1.0, HUGE], "include_control": False}},
    ),
}


@pytest.mark.parametrize("field", sorted(OVERFLOWING_CONFIGS))
def test_integer_too_large_for_a_float_is_a_usage_error(tmp_path, capsys, field):
    command, payload = OVERFLOWING_CONFIGS[field]
    assert run_cli(command, write_config(tmp_path, payload), tmp_path / "r") == 2
    err = capsys.readouterr().err
    assert err == f"error: config schema violation at {field}: too large for a float\n"


def test_integer_fields_keep_values_beyond_the_double_range(tmp_path):
    # seed is used as an int and never becomes a float, so a huge seed runs
    # as it did before the overflow check.
    optimize = {"T": 1.0, "m": 2, "n_starts": 1, "seed": HUGE, "max_iters": 2}
    config = write_config(tmp_path, {"scenario": AD_SCENARIO, "optimize": optimize})
    assert run_cli("optimize", config, tmp_path / "r") == 0


@pytest.mark.parametrize("field", ["m", "n_starts"])
def test_size_fields_beyond_an_index_are_usage_errors(tmp_path, capsys, field):
    # Rejected when the config is built, before anything of that size exists.
    optimize = {"T": 1.0, "m": 2, "n_starts": 1, field: 10**30}
    config = write_config(tmp_path, {"scenario": AD_SCENARIO, "optimize": optimize})
    assert run_cli("optimize", config, tmp_path / "r") == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err and field in err


OVERFLOWING_AXES = {
    "tiny-step": {"min": 0.0, "max": 1.0, "step": 1e-320},
    "huge-span": {"min": -1e308, "max": 1e308, "step": 1.0},
    "huge-integer-span": {"min": -10**308, "max": 10**308, "step": 1},
}


@pytest.mark.parametrize("name", sorted(OVERFLOWING_AXES))
def test_axis_with_an_overflowing_cell_count_is_a_usage_error(tmp_path, capsys, name):
    land = {**landscape_block(), "c1": OVERFLOWING_AXES[name]}
    config = write_config(tmp_path, {"scenario": AD_SCENARIO, "landscape": land})
    assert run_cli("landscape", config, tmp_path / "r") == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err and "landscape/c1" in err


def test_axis_with_too_many_cells_is_a_usage_error(tmp_path, capsys):
    # 10**18 cells: finite, so only the cell limit stops the allocation.
    land = {**landscape_block(), "c1": {"min": 0, "max": 1, "step": 1e-18}}
    config = write_config(tmp_path, {"scenario": AD_SCENARIO, "landscape": land})
    assert run_cli("landscape", config, tmp_path / "r") == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err and "landscape/c1" in err


def test_grid_with_too_many_cells_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # Each 3-cell axis is within the limit; the 9-cell grid is not.
    monkeypatch.setattr(cli, "_MAX_GRID_CELLS", 8)
    config = write_config(tmp_path, {"scenario": AD_SCENARIO, "landscape": landscape_block()})
    assert run_cli("landscape", config, tmp_path / "r") == 2
    err = capsys.readouterr().err
    assert "invalid configuration: landscape: 9 cells" in err
    assert not (tmp_path / "r.csv").exists()


#: Configs the schema accepts that building the run rejects, each with the
#: command asked for (None: none on the command line) and the error line.
BUILD_ERRORS = {
    "drift-window": (
        "check",
        {
            "scenario": {"measurements": XZ_MEASUREMENTS},
            "landscape": {**landscape_block(), "t_drift": 2.8},
        },
        "error: invalid configuration: need 0 <= t_drift < T < inf, got t_drift=2.8, T=2.8",
    ),
    "axis-max-below-min": (
        "landscape",
        {
            "scenario": AD_SCENARIO,
            "landscape": {**landscape_block(), "c2": {"min": 1.0, "max": -1.0, "step": 1.0}},
        },
        "error: invalid configuration: landscape/c2: axis max -1.0 below min 1.0",
    ),
    "no-command": (
        None,
        {"scenario": {"measurements": XZ_MEASUREMENTS}},
        "error: no command given on the command line or in the config",
    ),
}


@pytest.mark.parametrize("name", sorted(BUILD_ERRORS))
def test_config_errors_past_the_schema_exit_two_before_any_command_runs(tmp_path, capsys, name):
    # A bad landscape block stops even a check, which does not read it.
    command, payload, message = BUILD_ERRORS[name]
    config = write_config(tmp_path, payload)
    assert cli.run(config, command, out=str(tmp_path / "r")) == 2
    assert capsys.readouterr().err == message + "\n"
    assert list(tmp_path.iterdir()) == [Path(config)]


def test_unknown_keys_are_rejected_by_the_schema(tmp_path):
    payload = {"scenario": {"measurements": XZ_MEASUREMENTS}, "extra": 1}
    assert main(["check", "--config", write_config(tmp_path, payload)]) == 2
    payload = {"scenario": {"measurements": XZ_MEASUREMENTS, "mystery": True}}
    assert main(["check", "--config", write_config(tmp_path, payload, "c2.json")]) == 2
    # the zero start always runs; no config key turns it off
    payload = {"scenario": AD_SCENARIO, "optimize": {"T": 1.0, "include_zero_start": True}}
    assert main(["optimize", "--config", write_config(tmp_path, payload, "c3.json")]) == 2
    # the optimizer's gradient tolerance is fixed
    payload = {"scenario": AD_SCENARIO, "optimize": {"T": 1.0, "grad_tol": 1e-6}}
    assert main(["optimize", "--config", write_config(tmp_path, payload, "c4.json")]) == 2


def test_config_schema_matches_its_golden():
    # Any change to what a config may contain shows up as a diff of this file.
    text = json.dumps(CONFIG_SCHEMA, indent=2, sort_keys=True) + "\n"
    assert text == (DATA / "config_schema.golden.json").read_text(encoding="utf-8")


def schema_nodes(node):
    if isinstance(node, dict):
        yield node
        children = node.values()
    elif isinstance(node, list):
        children = node
    else:
        return
    for child in children:
        yield from schema_nodes(child)


def test_every_schema_object_is_strict():
    jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)
    objects = [node for node in schema_nodes(CONFIG_SCHEMA) if "properties" in node]
    assert objects
    for node in objects:
        assert node["type"] == "object"
        assert node["additionalProperties"] is False
        assert set(node["required"]) <= set(node["properties"])


#: Invalid configs, each with the location and the reason its schema
#: violation names.  Where no alternative of a tagged section holds, the
#: fault is the one inside the alternative of the config's kind.
SCHEMA_VIOLATIONS = {
    "unknown-drift-key": (
        "scenario/drift: unexpected key 'rate'",
        {
            "scenario": {
                "measurements": XZ_MEASUREMENTS,
                "drift": {"kind": "dephasing", "gamma": 0.1, "rate": 1.0},
            }
        },
    ),
    "custom-drift-without-matrix": (
        "scenario/drift: missing required key 'matrix'",
        {"scenario": {"measurements": XZ_MEASUREMENTS, "drift": {"kind": "custom"}}},
    ),
    "missing-measurements": (
        "scenario: missing required key 'measurements'",
        {"scenario": {"state": {"kind": "max_entangled"}}},
    ),
    "bias-one": (
        "scenario/bias: must be < 1",
        {"scenario": {"measurements": XZ_MEASUREMENTS, "bias": 1}},
    ),
    "fractional-m": (
        "optimize/m: expected integer",
        {"scenario": {"measurements": XZ_MEASUREMENTS}, "optimize": {"T": 1.0, "m": 1.5}},
    ),
    "unknown-top-level-key": (
        "<root>: unexpected key 'extra'",
        {"scenario": {"measurements": XZ_MEASUREMENTS}, "extra": 1},
    ),
    "bool-gamma": (
        "scenario/drift/gamma: expected number",
        {
            "scenario": {
                "measurements": XZ_MEASUREMENTS,
                "drift": {"kind": "dephasing", "gamma": True},
            }
        },
    ),
    "bias-one-float": (
        "scenario/bias: must be < 1",
        {"scenario": {"measurements": XZ_MEASUREMENTS, "bias": 1.0}},
    ),
    "bias-minus-one": (
        "scenario/bias: must be > -1",
        {"scenario": {"measurements": XZ_MEASUREMENTS, "bias": -1}},
    ),
    "zero-step": (
        "landscape/c1/step: must be > 0",
        {
            "scenario": {"measurements": XZ_MEASUREMENTS},
            "landscape": {**landscape_block(), "c1": {"min": -1.0, "max": 1.0, "step": 0}},
        },
    ),
    "short-axis": (
        "scenario/measurements/axes/0: fewer than 3 items",
        {"scenario": {"measurements": {**XZ_MEASUREMENTS, "axes": [[1.0, 0.0], [0.0, 0.0, 1.0]]}}},
    ),
    "no-state-alternative": (
        "scenario/state: matches none of the alternatives",
        {"scenario": {"measurements": XZ_MEASUREMENTS, "state": {"kind": "ghz"}}},
    ),
}


@pytest.mark.parametrize("name", sorted(SCHEMA_VIOLATIONS))
def test_schema_violation_reports_what_jsonschema_validate_raises(tmp_path, capsys, name):
    # The CLI words the fault itself, at a location where the error that
    # jsonschema.validate raises, or one of its alternatives' errors, has one.
    violation, payload = SCHEMA_VIOLATIONS[name]
    with pytest.raises(jsonschema.ValidationError) as info:
        jsonschema.validate(payload, CONFIG_SCHEMA)
    top = info.value
    while top.parent is not None:
        top = top.parent
    locations = {
        "/".join(map(str, error.absolute_path)) or "<root>"
        for error in [top, *top.context]
    }
    assert violation.split(": ")[0] in locations
    assert run_cli("check", write_config(tmp_path, payload), tmp_path / "r") == 2
    assert capsys.readouterr().err == f"error: config schema violation at {violation}\n"


def test_a_violation_is_reported_where_jsonschema_cannot_be_imported(tmp_path):
    # The runtime needs no jsonschema: a process that cannot import it runs
    # a valid config and names a violation.
    src = Path(cli.__file__).parents[1]
    valid = write_config(tmp_path, {"scenario": {"measurements": XZ_MEASUREMENTS}}, "valid.json")
    invalid = write_config(
        tmp_path, {"scenario": {"measurements": XZ_MEASUREMENTS, "bias": 1}}, "invalid.json"
    )
    out_prefix = str(tmp_path / "r")
    probe = (
        "import sys; sys.modules['jsonschema'] = None; from steerctl import cli; "
        f"print(cli.run({valid!r}, 'check', {out_prefix!r}), cli.run({invalid!r}, 'check'))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines()[-1] == "0 2"
    assert out.stderr == "error: config schema violation at scenario/bias: must be < 1\n"


# --- The in-repo config check against jsonschema ------------------------------

#: The JSON Schema keywords cli._violation implements.
CHECKED_KEYWORDS = {
    "type",
    "properties",
    "required",
    "additionalProperties",
    "const",
    "enum",
    "oneOf",
    "items",
    "minItems",
    "maxItems",
    "minimum",
    "exclusiveMinimum",
    "exclusiveMaximum",
}


def subschemas(schema):
    yield schema
    children = [*schema.get("properties", {}).values(), *schema.get("oneOf", ())]
    if "items" in schema:
        children.append(schema["items"])
    for child in children:
        yield from subschemas(child)


def test_config_schema_uses_only_what_the_check_implements():
    # A schema edit beyond the in-repo check must fail here, not let configs
    # through unchecked.
    nodes = list(subschemas(CONFIG_SCHEMA))
    assert set().union(*nodes) - {"$schema"} <= CHECKED_KEYWORDS
    assert all("$schema" not in node for node in nodes[1:])
    for node in nodes:
        assert node.get("type", "integer") in {*cli._JSON_TYPES, "integer"}
        assert node.get("additionalProperties", False) is False
        # The check compares const and enum entries with ==, which agrees
        # with JSON equality for strings only (True == 1 in Python).
        entries = [*node.get("enum", ()), node.get("const", "")]
        assert all(isinstance(entry, str) for entry in entries)


VALIDATOR = jsonschema.Draft202012Validator(CONFIG_SCHEMA)

#: Valid configs: one per command and, between them, every alternative of
#: every tagged section and both forms of a complex matrix entry.
VALID_CONFIGS = [
    {"command": "check", "scenario": {"measurements": XZ_MEASUREMENTS}},
    {
        "command": "check",
        "scenario": {
            "measurements": {
                "kind": "four_vectors",
                "x1": [1.0, 0.4, 0, 0],
                "x2": [1, 0, 0, 0.4],
            },
            "bias": -0.5,
        },
        "output": "results/check",
    },
    {
        "command": "robustness",
        "scenario": AD_SCENARIO,
        "pulse": {"dt": 0.14, "amplitudes": [0.0, 1]},
    },
    {
        "command": "evolve",
        "scenario": {
            "state": {"kind": "werner", "v": 0.9},
            "measurements": XZ_MEASUREMENTS,
            "drift": {"kind": "dephasing", "gamma": 0},
            "control": [0, 1.0, 1.0],
            "bias": 0.25,
        },
        "pulse": {"dt": 0.5, "amplitudes": [0.0]},
    },
    {
        "command": "optimize",
        "scenario": {
            "state": {
                "kind": "explicit",
                "matrix": [
                    [0.5, 0, 0, [0.5, 0]],
                    [0, 0, 0, 0],
                    [0, 0, 0, 0],
                    [[0.5, 0.0], 0, 0, 0.5],
                ],
            },
            "measurements": XZ_MEASUREMENTS,
            "drift": {
                "kind": "custom",
                "matrix": [[0, 0, 0, 0], [0, -0.1, 0, 0], [0, 0, -0.1, 0], [0.2, 0, 0, -0.2]],
            },
            "control": [0.0, 1.0, 1.0],
        },
        "optimize": {**TINY_OPTIMIZE, "amp_bounds": [-1, 1.5]},
    },
    {"command": "naive", "scenario": AD_SCENARIO, "optimize": {"T": 2}},
    {"command": "landscape", "scenario": AD_SCENARIO, "landscape": landscape_block()},
    {
        "command": "sweep",
        "scenario": AD_SCENARIO,
        "optimize": TINY_OPTIMIZE,
        "sweep": {"t_grid": [0.5, 1], "include_control": False},
    },
]

#: Each bound in the schema (-1, 0 and 1), as an int, as a float and as the
#: floats on either side of it.
BOUND_VALUES = [
    value
    for bound in (-1, 0, 1)
    for value in (bound, float(bound), math.nextafter(bound, -1.5), math.nextafter(bound, 1.5))
]

#: One of each JSON type, an integral float and names the schema knows.
REPLACEMENTS = [None, True, False, 2, 2.0, 0.5, "dephasing", [], [1.0, 0.0], {}, {"kind": "custom"}]


def node_paths(node, path=()):
    """The path of node and of every value nested in it."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from node_paths(child, path + (key,))


@st.composite
def mutated_configs(draw):
    """A valid config after one or two edits anywhere in it."""
    box = [copy.deepcopy(draw(st.sampled_from(VALID_CONFIGS)))]
    for _ in range(draw(st.integers(1, 2))):
        paths = [(path, get_path(box, path)) for path in node_paths(box[0], (0,))]
        targets = {
            edit: [path for path, value in paths if applies(path, value)]
            for edit, applies in EDITS.items()
        }
        edit = draw(st.sampled_from([edit for edit in EDITS if targets[edit]]))
        *parents, key = draw(st.sampled_from(targets[edit]))
        parent = get_path(box, parents)
        value = parent[key]
        if edit == "replace":
            parent[key] = copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))
        elif edit == "bound":
            parent[key] = draw(st.sampled_from(BOUND_VALUES))
        elif edit == "delete":
            del value[draw(st.sampled_from(sorted(value)))]
        elif edit == "add":
            value[draw(st.sampled_from(["mystery", "kind", "gamma", "T"]))] = 1.0
        elif edit == "grow":
            value.append(copy.deepcopy(value[-1]) if value else 0.0)
        elif edit == "shrink":
            value.pop()
        else:
            parent[key] = value[0] if isinstance(value, list) else [value, 0.0]
    return box[0]


def get_path(node, path):
    for key in path:
        node = node[key]
    return node


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: Each edit, with the (path, value) pairs it applies to.  Bounds go on named
#: fields, where the schema puts them.  Every path has a parent in the box,
#: so the root itself can be replaced.
EDITS = {
    "replace": lambda path, value: True,
    "bound": lambda path, value: is_number(value) and isinstance(path[-1], str),
    "delete": lambda path, value: isinstance(value, dict) and bool(value),
    "add": lambda path, value: isinstance(value, dict),
    "grow": lambda path, value: isinstance(value, list),
    "shrink": lambda path, value: isinstance(value, list) and bool(value),
    "complex-form": lambda path, value: (
        is_number(value) or isinstance(value, list) and len(value) == 2
    ),
}


def conforms(value, schema):
    return cli._violation(value, schema) is None


def agree_on_mutated_configs(check):
    @settings(**{**PROPERTY_SETTINGS, "max_examples": 600})
    @given(mutated_configs())
    def agree(config):
        assert check(config, CONFIG_SCHEMA) == VALIDATOR.is_valid(config)

    agree()


#: CONFIG_SCHEMA's alternatives exclude each other, so telling oneOf from
#: anyOf needs alternatives that overlap.
OVERLAPPING = {
    "oneOf": [
        {"type": "number", "minimum": 0},
        {"type": "integer", "exclusiveMaximum": 2},
        {"type": "array", "items": {"type": "number"}, "maxItems": 1},
        {"type": "array", "minItems": 1},
    ]
}


def agree_on_overlapping_alternatives(check):
    validator = jsonschema.Draft202012Validator(OVERLAPPING)
    values = st.sampled_from(BOUND_VALUES + REPLACEMENTS)

    @settings(**PROPERTY_SETTINGS)
    @given(st.one_of(values, st.lists(values, max_size=2)))
    def agree(value):
        assert check(value, OVERLAPPING) == validator.is_valid(value)

    agree()


AGREEMENT_PROPERTIES = {
    "mutated-configs": agree_on_mutated_configs,
    "overlapping-alternatives": agree_on_overlapping_alternatives,
}


def test_valid_configs_are_valid():
    assert all(VALIDATOR.is_valid(config) for config in VALID_CONFIGS)
    assert {config["command"] for config in VALID_CONFIGS} == set(COMMANDS)


@pytest.mark.parametrize("name", sorted(AGREEMENT_PROPERTIES))
def test_config_check_agrees_with_jsonschema(name):
    AGREEMENT_PROPERTIES[name](conforms)


def mutated_check(function, old, new):
    """conforms over cli._violation with the text old in function's source replaced by new."""
    namespace = dict(vars(cli))
    for name in ("_has_type", "_violation"):
        source = inspect.getsource(getattr(cli, name))
        if name == function:
            assert source.count(old) == 1
            source = source.replace(old, new)
        exec(source, namespace)
    return lambda value, schema: namespace["_violation"](value, schema) is None


#: Plausible slips in the check, each with the property that must catch it.
MUTANTS = {
    "bools-as-numbers": (
        "_has_type",
        "if isinstance(value, bool):",
        'if isinstance(value, bool) and name != "number":',
        "mutated-configs",
    ),
    "oneOf-as-anyOf": (
        "_violation",
        "count(None) > 1",
        "count(None) > len(faults)",
        "overlapping-alternatives",
    ),
    "exclusiveMinimum-as-minimum": (
        "_violation",
        'value <= schema["exclusiveMinimum"]',
        'value < schema["exclusiveMinimum"]',
        "mutated-configs",
    ),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_a_slip_in_the_config_check_fails_the_agreement(mutant):
    function, old, new, prop = MUTANTS[mutant]
    check = mutated_check(function, old, new)
    with pytest.raises(AssertionError):
        AGREEMENT_PROPERTIES[prop](check)


def test_missing_required_section_is_a_usage_error(tmp_path):
    # robustness needs a pulse section
    config = write_config(tmp_path, {"scenario": AD_SCENARIO})
    assert run_cli("robustness", config, tmp_path / "r") == 2


def test_domain_failures_exit_three(tmp_path):
    # an explicit product state with a pure Bob marginal is permanently
    # unsteerable, which the library reports as a domain error
    matrix = np.kron(np.eye(2) / 2.0, np.diag([1.0, 0.0])).tolist()
    payload = {
        "scenario": {
            "state": {"kind": "explicit", "matrix": matrix},
            "measurements": XZ_MEASUREMENTS,
            "drift": {"kind": "amplitude_damping", "gamma": 0.1},
            "control": [0.0, 1.0, 1.0],
        },
        "pulse": {"dt": 0.1, "amplitudes": [0.0]},
    }
    config = write_config(tmp_path, payload)
    assert run_cli("robustness", config, tmp_path / "r") == 3


@pytest.mark.parametrize("command", ["robustness", "landscape"])
def test_huge_amplitude_exits_three(tmp_path, command, capsys):
    # A pulse amplitude and a landscape axis amplitude of 1e200 are beyond
    # what the one slot kernel resolves, so both leave a NaN channel, and
    # neither warns before the typed error.
    huge = {"min": 1e200, "max": 1e200, "step": 1.0}
    zero = {"min": 0.0, "max": 0.0, "step": 1.0}
    payload = {
        "scenario": AD_SCENARIO,
        "pulse": {"dt": 0.1, "amplitudes": [1e200]},
        "landscape": {"t_drift": 2.6, "T": 2.8, "c1": huge, "c2": zero},
    }
    config = write_config(tmp_path, payload)
    assert run_cli(command, config, tmp_path / "r") == 3
    assert "non-finite" in capsys.readouterr().err


#: A drift that is not completely positive overflows the channel products of
#: a 100-slot pulse and of a landscape with a drift window of 50.
GROWING = {
    "scenario": {**AD_SCENARIO, "drift": {"kind": "custom", "matrix": GROWING_DRIFT}},
    "pulse": {"dt": 1.0, "amplitudes": [0.0] * 100},
    "landscape": {"t_drift": 50.0, "T": 100.0, "c1": UNIT_AXIS, "c2": UNIT_AXIS},
}

#: A slot of length 1e308 overflows ||dt*K||_1 when its tables are sized.
HUGE_SLOT = {
    "scenario": AD_SCENARIO,
    "pulse": {"dt": 1e308, "amplitudes": [1e308]},
    "optimize": {"T": 1e308, "m": 1},
    "landscape": {"t_drift": 0.0, "T": 1e308, "c1": UNIT_AXIS, "c2": UNIT_AXIS},
    "sweep": {"t_grid": [1e308]},
}

#: Runs that overflow, each with its command and config.  The huge slot
#: fails quietly; the growing drift's channel products still warn under the
#: default filter before the typed error.
OVERFLOWING_RUNS = {
    **{command: (command, GROWING) for command in ("robustness", "evolve", "landscape")},
    **{
        f"{command}-huge-slot": (command, HUGE_SLOT)
        for command in ("robustness", "evolve", "optimize", "naive", "sweep", "landscape")
    },
}


@pytest.mark.parametrize("action", ["error", "default"])
@pytest.mark.parametrize("name", sorted(OVERFLOWING_RUNS))
def test_growing_drift_exits_three_under_any_warning_filter(tmp_path, capsys, name, action):
    # Where numpy's warnings are errors, its report becomes the typed error;
    # elsewhere the NaN it leaves does.
    command, payload = OVERFLOWING_RUNS[name]
    config = write_config(tmp_path, payload)
    # Each run sizes its slot tables afresh, as a new process would.
    lindblad._slot_tables.cache_clear()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action, RuntimeWarning)
        assert cli.run(config, command, out=str(tmp_path / "r")) == 3
    assert "non-finite" in capsys.readouterr().err
    if payload is HUGE_SLOT:
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


#: Pure state (|00> + i|11>)/sqrt(2), whose coherences are imaginary, and
#: its matrix as a config gives it, every entry an [re, im] pair.
PHASED_BELL = np.outer([1.0, 0.0, 0.0, 1.0j], [1.0, 0.0, 0.0, -1.0j]) / 2.0
PHASED_BELL_ENTRIES = np.stack([PHASED_BELL.real, PHASED_BELL.imag], axis=-1).tolist()

#: Scenario sections other than AD_SCENARIO's, each with the library object
#: the CLI must build from it.
SCENARIO_VARIANTS = {
    "complex-entries": (
        {"state": {"kind": "explicit", "matrix": PHASED_BELL_ENTRIES}},
        BipartiteState(PHASED_BELL),
    ),
    "werner": ({"state": {"kind": "werner", "v": 0.9}}, BipartiteState.werner(0.9)),
    "custom-drift": (
        {"drift": {"kind": "custom", "matrix": DriftGenerator.dephasing(0.2).matrix.tolist()}},
        DriftGenerator.dephasing(0.2),
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIO_VARIANTS))
def test_scenario_variants_run_through_the_cli_as_their_library_objects(tmp_path, name):
    section, built = SCENARIO_VARIANTS[name]
    pulse = PulseSequence(0.14, (0.5, -1.0, 2.0))
    payload = {"scenario": {**AD_SCENARIO, **section}, "pulse": asdict(pulse)}
    assert cli.run(write_config(tmp_path, payload), "robustness", out=str(tmp_path / "r")) == 0
    parts = dict(
        rho=BipartiteState.max_entangled(),
        x1=sharp_effect([1.0, 0.0, 0.0]),
        x2=sharp_effect([0.0, 0.0, 1.0]),
        drift=DriftGenerator.amplitude_damping(0.1),
        control=ControlHamiltonian((0.0, 1.0, 1.0)),
    )
    parts["drift" if isinstance(built, DriftGenerator) else "rho"] = built
    expected = steering_robustness(SteeringScenario(**parts), pulse)
    assert 0.0 < expected == json.loads((tmp_path / "r.json").read_text())["robustness"]


def test_invalid_effect_in_config_exits_three(tmp_path):
    payload = {
        "scenario": {
            "measurements": {
                "kind": "four_vectors",
                "x1": [1.0, 2.0, 0.0, 0.0],
                "x2": [1.0, 0.0, 0.0, 1.0],
            }
        }
    }
    config = write_config(tmp_path, payload)
    assert run_cli("check", config, tmp_path / "r") == 3


def test_outputs_for_all_float_values_roundtrip(tmp_path):
    # .17g serialization preserves doubles exactly
    config = write_config(tmp_path, {"scenario": {"measurements": XZ_MEASUREMENTS}})
    assert run_cli("check", config, tmp_path / "r") == 0
    payload = json.loads((tmp_path / "r.json").read_text())
    from steerctl import robustness, sharp_effect

    exact = robustness(sharp_effect([1, 0, 0]), sharp_effect([0, 0, 1]))
    assert payload["robustness"] == exact
