"""Config-driven command line: schema, exit codes, and output files."""

import json
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from conftest import SHARP_PAIR_VALUE
from steerctl import cli, landscape, time_sweep
from steerctl.cli import CONFIG_SCHEMA, main

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


def test_missing_config_file_is_a_usage_error(tmp_path):
    assert main(["check", "--config", str(tmp_path / "absent.json")]) == 2


def test_malformed_json_is_a_usage_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["check", "--config", str(path)]) == 2


INF, NAN = float("inf"), float("nan")


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
    assert "invalid configuration" in err and field in err and "too large for a float" in err


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


#: Invalid configs, each with the location its schema violation names.
SCHEMA_VIOLATIONS = {
    "unknown-drift-key": (
        "scenario/drift/kind",
        {
            "scenario": {
                "measurements": XZ_MEASUREMENTS,
                "drift": {"kind": "dephasing", "gamma": 0.1, "rate": 1.0},
            }
        },
    ),
    "custom-drift-without-matrix": (
        "scenario/drift/kind",
        {"scenario": {"measurements": XZ_MEASUREMENTS, "drift": {"kind": "custom"}}},
    ),
    "missing-measurements": ("scenario", {"scenario": {"state": {"kind": "max_entangled"}}}),
    "bias-one": ("scenario/bias", {"scenario": {"measurements": XZ_MEASUREMENTS, "bias": 1}}),
    "fractional-m": (
        "optimize/m",
        {"scenario": {"measurements": XZ_MEASUREMENTS}, "optimize": {"T": 1.0, "m": 1.5}},
    ),
    "unknown-top-level-key": (
        "<root>",
        {"scenario": {"measurements": XZ_MEASUREMENTS}, "extra": 1},
    ),
}


@pytest.mark.parametrize("name", sorted(SCHEMA_VIOLATIONS))
def test_schema_violation_reports_what_jsonschema_validate_raises(tmp_path, capsys, name):
    location, payload = SCHEMA_VIOLATIONS[name]
    with pytest.raises(jsonschema.ValidationError) as info:
        jsonschema.validate(payload, CONFIG_SCHEMA)
    path = "/".join(str(p) for p in info.value.absolute_path) or "<root>"
    assert path == location
    assert run_cli("check", write_config(tmp_path, payload), tmp_path / "r") == 2
    err = capsys.readouterr().err
    assert err == f"error: config schema violation at {location}: {info.value.message}\n"


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
    # A pulse amplitude and a landscape axis amplitude of 1e200 overflow the
    # same slot kernel, so both leave non-finite transported effects.  The
    # overflow warning comes before the typed error.
    huge = {"min": 1e200, "max": 1e200, "step": 1.0}
    zero = {"min": 0.0, "max": 0.0, "step": 1.0}
    payload = {
        "scenario": AD_SCENARIO,
        "pulse": {"dt": 0.1, "amplitudes": [1e200]},
        "landscape": {"t_drift": 2.6, "T": 2.8, "c1": huge, "c2": zero},
    }
    config = write_config(tmp_path, payload)
    with np.errstate(over="ignore", invalid="ignore"):
        assert run_cli(command, config, tmp_path / "r") == 3
    assert "non-finite" in capsys.readouterr().err


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
