"""Batch command-line driver.

    steerctl <command> --config <path> [--out <prefix>] [--seed <int>]

Commands: check, robustness, evolve, optimize, naive, landscape, sweep.
The JSON config is validated against CONFIG_SCHEMA (unknown keys rejected)
before anything runs.  Tabular commands (landscape, sweep) write CSV with
fixed headers; the others write a JSON summary; every command prints its
headline number to stdout.  Floats in CSV files carry 17 significant digits
and outputs are byte-identical across reruns of the same config.

Exit status: 0 on success, 2 on config problems (unreadable file, invalid
JSON or UTF-8, NaN, Infinity or an overflowing number, schema or semantic
violations), 3 on numerical errors raised by the library.  Any
other exception is a bug and propagates.

The environment variable STEERCTL_THREADS (a positive integer) selects how
many parallel worker processes the multi-start optimizer may use; it
defaults to 1 and does not affect results.  Any other value makes the
commands that optimize exit 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from typing import Any, Iterable, Sequence

import jsonschema
import numpy as np

from . import compat
from .control import LandscapeGrid, OptimizeConfig, landscape, naive_optimize, optimize, time_sweep
from .errors import SteerctlError
from .lindblad import (
    ControlHamiltonian,
    DriftGenerator,
    PulseSequence,
    propagate,
)
from .qubit_algebra import BipartiteState, FourVector, sharp_effect
from .steering import SteeringScenario, steering_robustness

COMMANDS = ("check", "robustness", "evolve", "optimize", "naive", "landscape", "sweep")

_NUMBER = {"type": "number"}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_COUNT = {"type": "integer", "minimum": 1}


def _tuple(items: dict[str, Any], n: int) -> dict[str, Any]:
    """A JSON array of exactly n entries, each matching items."""
    return {"type": "array", "items": items, "minItems": n, "maxItems": n}


def _object(required: dict[str, Any], optional: dict[str, Any] | None = None) -> dict[str, Any]:
    """A JSON object with the required fields, the optional ones and no others."""
    return {
        "type": "object",
        "properties": {**required, **(optional or {})},
        "required": list(required),
        "additionalProperties": False,
    }


def _kind(name: str, **fields: Any) -> dict[str, Any]:
    """One alternative of a tagged section: "kind" equal to name, plus fields."""
    return _object({"kind": {"const": name}, **fields})


_VEC3 = _tuple(_NUMBER, 3)
_VEC4 = _tuple(_NUMBER, 4)
_COMPLEX_ENTRY = {"oneOf": [_NUMBER, _tuple(_NUMBER, 2)]}
_AXIS = _object({"min": _NUMBER, "max": _NUMBER, "step": _POSITIVE})

_SCENARIO = _object(
    {
        "measurements": {
            "oneOf": [
                _kind("bloch_axes", axes=_tuple(_VEC3, 2)),
                _kind("four_vectors", x1=_VEC4, x2=_VEC4),
            ]
        }
    },
    {
        "state": {
            "oneOf": [
                _kind("max_entangled"),
                _kind("werner", v=_NUMBER),
                _kind("explicit", matrix=_tuple(_tuple(_COMPLEX_ENTRY, 4), 4)),
            ]
        },
        "drift": {
            "oneOf": [
                _object(
                    {
                        "kind": {"enum": ["amplitude_damping", "dephasing"]},
                        "gamma": {"type": "number", "minimum": 0},
                    }
                ),
                _kind("custom", matrix=_tuple(_VEC4, 4)),
            ]
        },
        "control": _VEC3,
        "bias": {"type": "number", "exclusiveMinimum": -1, "exclusiveMaximum": 1},
    },
)

CONFIG_SCHEMA: dict[str, Any] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    **_object(
        {"scenario": _SCENARIO},
        {
            "command": {"enum": list(COMMANDS)},
            "pulse": _object(
                {"dt": _POSITIVE, "amplitudes": {"type": "array", "items": _NUMBER, "minItems": 1}}
            ),
            "optimize": _object(
                {"T": _POSITIVE},
                {
                    "m": _COUNT,
                    "amp_bounds": _tuple(_NUMBER, 2),
                    "n_starts": _COUNT,
                    "seed": {"type": "integer"},
                    "max_iters": _COUNT,
                },
            ),
            "landscape": _object(
                {
                    "t_drift": {"type": "number", "minimum": 0},
                    "T": _POSITIVE,
                    "c1": _AXIS,
                    "c2": _AXIS,
                }
            ),
            "sweep": _object(
                {"t_grid": {"type": "array", "items": _POSITIVE, "minItems": 1}},
                {"include_control": {"type": "boolean"}},
            ),
            "output": {"type": "string"},
        },
    ),
}

#: Built once: jsonschema.validate would check the schema itself on every run.
_VALIDATOR = jsonschema.Draft202012Validator(CONFIG_SCHEMA)


@dataclass
class RunConfig:
    """Parsed and partially built run: domain objects appear on demand."""

    command: str
    x1: FourVector
    x2: FourVector
    bias: float
    state: BipartiteState | None
    drift: DriftGenerator | None
    control: ControlHamiltonian | None
    pulse: PulseSequence | None
    opt: OptimizeConfig | None
    landscape_params: tuple[float, float, np.ndarray, np.ndarray] | None
    sweep_params: tuple[list[float], bool] | None
    out_prefix: str


def _parse_complex(entry: Any) -> complex:
    if isinstance(entry, (int, float)):
        return complex(entry)
    return complex(entry[0], entry[1])


def _parse_state(block: dict[str, Any] | None) -> BipartiteState | None:
    if block is None:
        return None
    kind = block["kind"]
    if kind == "max_entangled":
        return BipartiteState.max_entangled()
    if kind == "werner":
        return BipartiteState.werner(block["v"])
    matrix = np.array(
        [[_parse_complex(e) for e in row] for row in block["matrix"]], dtype=complex
    )
    return BipartiteState(matrix)


def _parse_measurements(block: dict[str, Any]) -> tuple[FourVector, FourVector]:
    if block["kind"] == "bloch_axes":
        ax1, ax2 = block["axes"]
        return sharp_effect(ax1), sharp_effect(ax2)
    return FourVector.from_array(block["x1"]), FourVector.from_array(block["x2"])


def _parse_drift(block: dict[str, Any] | None) -> DriftGenerator | None:
    if block is None:
        return None
    kind = block["kind"]
    if kind == "amplitude_damping":
        return DriftGenerator.amplitude_damping(block["gamma"])
    if kind == "dephasing":
        return DriftGenerator.dephasing(block["gamma"])
    return DriftGenerator(block["matrix"])


#: Cells allowed per landscape axis and per grid; the grid's values array
#: then stays within 80 MB.
_MAX_GRID_CELLS = 10**7


def _check_cell_count(n: int, path: str) -> None:
    if n > _MAX_GRID_CELLS:
        raise ValueError(f"{path}: {n} cells exceed the limit of {_MAX_GRID_CELLS}")


def _parse_axis(block: dict[str, Any], path: str) -> np.ndarray:
    # Floats, so that an overflowing span reads inf instead of raising.
    lo, hi, step = (float(block[key]) for key in ("min", "max", "step"))
    if hi < lo:
        raise ValueError(f"{path}: axis max {hi} below min {lo}")
    span = (hi - lo) / step
    if not np.isfinite(span):
        raise ValueError(f"{path}: the cell count (max - min) / step is not finite")
    n = int(np.floor(span + 1e-9)) + 1
    _check_cell_count(n, path)
    return lo + step * np.arange(n)


#: Config fields the schema types as integers; they stay Python ints.  Every
#: other number becomes a float (or a complex) when the run is built.
_INTEGER_FIELDS = frozenset(
    ("optimize", name)
    for name, spec in CONFIG_SCHEMA["properties"]["optimize"]["properties"].items()
    if spec.get("type") == "integer"
)


def _check_float_range(node: Any, path: tuple[str, ...] = ()) -> None:
    """Raise ValueError naming the first number field too large for a float.

    JSON integer literals load as Python ints of any size, and float() of
    one beyond the double range raises OverflowError instead.
    """
    if isinstance(node, dict):
        for key, value in node.items():
            if path + (key,) not in _INTEGER_FIELDS:
                _check_float_range(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            _check_float_range(value, path + (str(index),))
    elif isinstance(node, int) and not isinstance(node, bool):
        try:
            float(node)
        except OverflowError:
            raise ValueError(
                f"number at {'/'.join(path)} is too large for a float"
            ) from None


def _build_run_config(
    raw: dict[str, Any],
    command: str,
    out_override: str | None,
    seed_override: int | None,
) -> RunConfig:
    _check_float_range(raw)
    configured = raw.get("command")
    if configured is not None and configured != command:
        raise ValueError(
            f"config names command {configured!r} but {command!r} was requested"
        )
    scenario = raw["scenario"]
    x1, x2 = _parse_measurements(scenario["measurements"])
    bias = float(scenario.get("bias", 0.0))
    state = _parse_state(scenario.get("state"))
    drift = _parse_drift(scenario.get("drift"))
    control_block = scenario.get("control")
    control = None if control_block is None else ControlHamiltonian(tuple(control_block))

    pulse_block = raw.get("pulse")
    pulse = (
        None
        if pulse_block is None
        else PulseSequence(pulse_block["dt"], tuple(pulse_block["amplitudes"]))
    )

    opt_block = raw.get("optimize")
    opt = None
    if opt_block is not None:
        kwargs = dict(opt_block)
        if "amp_bounds" in kwargs:
            kwargs["amp_bounds"] = tuple(kwargs["amp_bounds"])
        opt = OptimizeConfig(**kwargs)
        if seed_override is not None:
            opt = replace(opt, seed=int(seed_override))

    land_block = raw.get("landscape")
    landscape_params = None
    if land_block is not None:
        t_drift = float(land_block["t_drift"])
        horizon = float(land_block["T"])
        if not t_drift < horizon:
            raise ValueError(f"landscape needs t_drift < T, got {t_drift} >= {horizon}")
        c1_axis = _parse_axis(land_block["c1"], "landscape/c1")
        c2_axis = _parse_axis(land_block["c2"], "landscape/c2")
        _check_cell_count(c1_axis.size * c2_axis.size, "landscape")
        landscape_params = (t_drift, horizon, c1_axis, c2_axis)

    sweep_block = raw.get("sweep")
    sweep_params = None
    if sweep_block is not None:
        sweep_params = (
            [float(t) for t in sweep_block["t_grid"]],
            bool(sweep_block.get("include_control", True)),
        )

    out_prefix = out_override or raw.get("output") or command
    return RunConfig(
        command=command,
        x1=x1,
        x2=x2,
        bias=bias,
        state=state,
        drift=drift,
        control=control,
        pulse=pulse,
        opt=opt,
        landscape_params=landscape_params,
        sweep_params=sweep_params,
        out_prefix=out_prefix,
    )


def _require(value: Any, what: str, command: str) -> Any:
    if value is None:
        raise ValueError(f"command {command!r} requires the config section {what!r}")
    return value


def _scenario(rc: RunConfig) -> SteeringScenario:
    return SteeringScenario(
        rho=_require(rc.state, "scenario.state", rc.command),
        x1=rc.x1,
        x2=rc.x2,
        drift=_require(rc.drift, "scenario.drift", rc.command),
        control=_require(rc.control, "scenario.control", rc.command),
        b=rc.bias,
    )


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)


def _write_json(path: str, payload: dict[str, Any]) -> None:
    _ensure_parent(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True))
        fh.write("\n")


def _write_csv(path: str, header: str, lines: Iterable[str]) -> None:
    """The header, then each preformatted chunk of newline-ended lines as it comes."""
    _ensure_parent(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        fh.writelines(lines)


def _csv_line(values: Iterable[float]) -> str:
    return ",".join(map(_fmt, values)) + "\n"


def _pulse_payload(p: PulseSequence) -> dict[str, Any]:
    return {"dt": p.dt, "amplitudes": list(p.amplitudes)}


def _cmd_check(rc: RunConfig) -> None:
    c = compat.c_functional(rc.x1, rc.x2)
    compatible = compat.is_jointly_measurable(rc.x1, rc.x2)
    value = compat.robustness(rc.x1, rc.x2, rc.bias)
    _write_json(
        rc.out_prefix + ".json",
        {
            "command": "check",
            "bias": rc.bias,
            "c_functional": c,
            "jointly_measurable": compatible,
            "robustness": value,
        },
    )
    label = "jointly measurable" if compatible else "incompatible"
    print(f"measurement pair {label}: robustness = {_fmt(value)}")


def _cmd_robustness(rc: RunConfig) -> None:
    pulse = _require(rc.pulse, "pulse", rc.command)
    value = steering_robustness(_scenario(rc), pulse)
    _write_json(
        rc.out_prefix + ".json",
        {
            "command": "robustness",
            "bias": rc.bias,
            "pulse": _pulse_payload(pulse),
            "robustness": value,
        },
    )
    print(f"steering robustness = {_fmt(value)}")


def _cmd_evolve(rc: RunConfig) -> None:
    pulse = _require(rc.pulse, "pulse", rc.command)
    drift = _require(rc.drift, "scenario.drift", rc.command)
    control = _require(rc.control, "scenario.control", rc.command)
    channel = propagate(drift, control, pulse)
    y1 = FourVector.from_array(channel @ rc.x1.as_array())
    y2 = FourVector.from_array(channel @ rc.x2.as_array())
    value = compat.robustness(y1, y2, rc.bias)
    _write_json(
        rc.out_prefix + ".json",
        {
            "command": "evolve",
            "bias": rc.bias,
            "pulse": _pulse_payload(pulse),
            "transfer_matrix": channel.tolist(),
            "evolved_x1": list(y1.as_tuple()),
            "evolved_x2": list(y2.as_tuple()),
            "robustness": value,
        },
    )
    print(f"evolved-pair robustness = {_fmt(value)}")


def _cmd_optimize(rc: RunConfig, naive: bool) -> None:
    cfg = _require(rc.opt, "optimize", rc.command)
    runner = naive_optimize if naive else optimize
    result = runner(_scenario(rc), cfg)
    _write_json(
        rc.out_prefix + ".json",
        {
            "command": rc.command,
            "best_value": result.best_value,
            "baseline_value": result.baseline_value,
            "best_pulse": _pulse_payload(result.best_pulse),
            "start_values": list(result.start_values),
            "iterations_per_start": list(result.iterations_per_start),
        },
    )
    label = "naive-control" if naive else "optimized"
    print(
        f"{label} robustness = {_fmt(result.best_value)} "
        f"(zero-pulse baseline {_fmt(result.baseline_value)})"
    )


def _cmd_landscape(rc: RunConfig) -> None:
    t_drift, horizon, c1_axis, c2_axis = _require(
        rc.landscape_params, "landscape", rc.command
    )
    grid: LandscapeGrid = landscape(_scenario(rc), t_drift, horizon, c1_axis, c2_axis)
    # Each axis value is formatted once; a grid row goes out as one string.
    c2s = [f",{_fmt(c2)}," for c2 in grid.c2_axis.tolist()]
    rows = (
        "".join([f"{c1}{c2}{_fmt(value)}\n" for c2, value in zip(c2s, row.tolist())])
        for c1, row in zip(map(_fmt, grid.c1_axis.tolist()), grid.values)
    )
    _write_csv(rc.out_prefix + ".csv", "c1,c2,robustness", rows)
    peak_c1, peak_c2 = grid.argmax
    print(
        f"landscape maximum = {_fmt(grid.max_value)} "
        f"at (c1, c2) = ({_fmt(peak_c1)}, {_fmt(peak_c2)})"
    )


def _cmd_sweep(rc: RunConfig) -> None:
    t_grid, include_control = _require(rc.sweep_params, "sweep", rc.command)
    scenario = _scenario(rc)
    if include_control:
        cfg = _require(rc.opt, "optimize", rc.command)
        rows = time_sweep(scenario, cfg, t_grid)
        _write_csv(
            rc.out_prefix + ".csv",
            "T,uncontrolled,naive,optimized",
            [_csv_line((r.T, r.uncontrolled, r.naive, r.optimized)) for r in rows],
        )
        best = max(r.optimized for r in rows)
        print(f"sweep best optimized robustness = {_fmt(best)}")
    else:
        # Zero-pulse-only mode: just the uncontrolled column, so the CSV
        # carries only the columns that were actually computed.
        m = rc.opt.m if rc.opt is not None else OptimizeConfig.m
        rows = [[t, steering_robustness(scenario, PulseSequence.zero(m, t))] for t in t_grid]
        _write_csv(rc.out_prefix + ".csv", "T,uncontrolled", map(_csv_line, rows))
        best = max(r[1] for r in rows)
        print(f"sweep best uncontrolled robustness = {_fmt(best)}")


def _finite_float(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"non-finite number {text} in config")
    return value


def run(
    config_path: str,
    command: str | None = None,
    out: str | None = None,
    seed: int | None = None,
) -> int:
    """Execute one config file; returns the process exit status (0, 2, or 3)."""
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_float=_finite_float, parse_constant=_finite_float)
    except (OSError, ValueError) as exc:
        # ValueError covers invalid JSON, invalid UTF-8 and non-finite numbers.
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    # best_match picks the error jsonschema.validate would raise.
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(raw))
    if error is not None:
        location = "/".join(str(p) for p in error.absolute_path) or "<root>"
        print(f"error: config schema violation at {location}: {error.message}", file=sys.stderr)
        return 2
    if command is None:
        command = raw.get("command")
        if command is None:
            print("error: no command given on the command line or in the config", file=sys.stderr)
            return 2
    try:
        rc = _build_run_config(raw, command, out, seed)
        if rc.command == "check":
            _cmd_check(rc)
        elif rc.command == "robustness":
            _cmd_robustness(rc)
        elif rc.command == "evolve":
            _cmd_evolve(rc)
        elif rc.command == "optimize":
            _cmd_optimize(rc, naive=False)
        elif rc.command == "naive":
            _cmd_optimize(rc, naive=True)
        elif rc.command == "landscape":
            _cmd_landscape(rc)
        else:
            _cmd_sweep(rc)
    except SteerctlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="steerctl",
        description="Steering-robustness computations from a JSON config.",
        epilog=(
            "Set STEERCTL_THREADS to run optimizer starts in parallel worker "
            "processes; results do not depend on it."
        ),
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--out", default=None, help="output path prefix")
    parser.add_argument("--seed", type=int, default=None, help="override the optimizer seed")
    args = parser.parse_args(argv)
    return run(args.config, command=args.command, out=args.out, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
