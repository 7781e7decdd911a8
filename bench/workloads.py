"""The benchmark's workloads: one config per (seed, job), work units, output checks.

Every workload uses sharp x/z effects, the maximally entangled state and the
control Hamiltonian (0, 1, 1).  The benchmark turns its seed into config
inputs; the program sees only the config file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from steerctl import (
    BipartiteState,
    ControlHamiltonian,
    DriftGenerator,
    PulseSequence,
    SteeringScenario,
    sharp_effect,
    steering_robustness,
)

#: Sharp effects along these Bloch axes, as in the acceptance tests.
AXES = [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
CONTROL = [0.0, 1.0, 1.0]
GAMMA = 0.1

#: Landscape grid: c1 and c2 over [-15, 15] in steps of 0.25 (121 x 121 cells).
GRID_HALF_WIDTH = 15.0
GRID_STEP = 0.25
GRID_CELLS = 121 * 121

#: Peak band of acceptance criterion 04 (dephasing landscape).
PEAK_BAND = (0.110, 0.140)

#: Slack for comparisons between independently computed robustness values.
VALUE_TOL = 1e-12


class CheckFailed(Exception):
    """A job's output broke the workload's correctness check."""


def _scenario_block(drift_kind: str) -> dict[str, Any]:
    return {
        "state": {"kind": "max_entangled"},
        "measurements": {"kind": "bloch_axes", "axes": AXES},
        "drift": {"kind": drift_kind, "gamma": GAMMA},
        "control": CONTROL,
    }


def _ad_scenario() -> SteeringScenario:
    """optimize-ad's scenario, built through the public API."""
    return SteeringScenario(
        rho=BipartiteState.max_entangled(),
        x1=sharp_effect(AXES[0]),
        x2=sharp_effect(AXES[1]),
        drift=DriftGenerator.amplitude_damping(GAMMA),
        control=ControlHamiltonian(tuple(CONTROL)),
    )


def _in_range(value: float) -> bool:
    return 0.0 <= value < 0.5


def _read_csv(path: Path, header: str) -> list[list[float]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != header:
        raise CheckFailed(f"{path.name}: header is not {header!r}")
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


# --- optimize-ad -----------------------------------------------------------


def optimize_config(seed: int, job: int, n_starts: int = 20, m: int = 20) -> dict[str, Any]:
    # Job j of a run uses optimizer seed 1000*seed + j, so one run averages
    # over many optimizer seeds; seed 0, job 0 is optimizer seed 0.
    return {
        "command": "optimize",
        "scenario": _scenario_block("amplitude_damping"),
        "optimize": {"T": 2.8, "m": m, "n_starts": n_starts, "seed": 1000 * seed + job},
    }


def check_optimize(out_prefix: Path, config: dict[str, Any]) -> float:
    """best_pulse reproduces best_value, beats the zero pulse, starts in [0, 1/2)."""
    result = json.loads(out_prefix.with_suffix(".json").read_text(encoding="utf-8"))
    best = result["best_value"]
    pulse = PulseSequence(result["best_pulse"]["dt"], tuple(result["best_pulse"]["amplitudes"]))
    again = steering_robustness(_ad_scenario(), pulse)
    if abs(again - best) > VALUE_TOL:
        raise CheckFailed(f"best_pulse evaluates to {again!r}, best_value is {best!r}")
    if best < result["baseline_value"]:
        raise CheckFailed(f"best_value {best!r} below baseline {result['baseline_value']!r}")
    n_expected = config["optimize"]["n_starts"] + 1
    starts = result["start_values"]
    if len(starts) != n_expected or not all(_in_range(v) for v in starts):
        raise CheckFailed(f"expected {n_expected} start values in [0, 1/2), got {starts}")
    return best


# --- landscape-dp ----------------------------------------------------------


def landscape_offset(seed: int) -> float:
    """Sub-step shift of both axis origins; seed 0 means no shift."""
    if seed == 0:
        return 0.0
    return float(np.random.default_rng(seed).uniform(0.0, GRID_STEP))


def landscape_config(
    seed: int, job: int, half_width: float = GRID_HALF_WIDTH, step: float = GRID_STEP
) -> dict[str, Any]:
    off = landscape_offset(seed)
    axis = {"min": -half_width + off, "max": half_width + off, "step": step}
    return {
        "command": "landscape",
        "scenario": _scenario_block("dephasing"),
        "landscape": {"t_drift": 2.6, "T": 2.8, "c1": axis, "c2": axis},
    }


def check_landscape(out_prefix: Path, config: dict[str, Any], cells: int = GRID_CELLS) -> float:
    """All grid cells present, values in [0, 1/2), peak in criterion 04's band."""
    rows = _read_csv(out_prefix.with_suffix(".csv"), "c1,c2,robustness")
    if len(rows) != cells:
        raise CheckFailed(f"expected {cells} landscape rows, got {len(rows)}")
    values = [row[2] for row in rows]
    if not all(_in_range(v) for v in values):
        raise CheckFailed("a landscape value lies outside [0, 1/2)")
    peak = max(values)
    if cells == GRID_CELLS and not PEAK_BAND[0] <= peak <= PEAK_BAND[1]:
        raise CheckFailed(f"landscape peak {peak!r} outside {PEAK_BAND}")
    return peak


# --- sweep-par -------------------------------------------------------------


def sweep_config(
    seed: int,
    job: int,
    t_grid: tuple[float, ...] = (0.8, 1.6, 2.4),
    n_starts: int = 6,
    m: int = 20,
) -> dict[str, Any]:
    # Every job of a run uses the same config, so one untimed serial run
    # gives the reference bytes for all of them.
    return {
        "command": "sweep",
        "scenario": _scenario_block("amplitude_damping"),
        "sweep": {"t_grid": list(t_grid)},
        "optimize": {"T": 2.8, "m": m, "n_starts": n_starts, "seed": seed},
    }


def check_sweep(out_prefix: Path, config: dict[str, Any]) -> float:
    """One row per horizon; optimized never below naive or uncontrolled."""
    rows = _read_csv(out_prefix.with_suffix(".csv"), "T,uncontrolled,naive,optimized")
    if len(rows) != len(config["sweep"]["t_grid"]):
        raise CheckFailed(f"expected {len(config['sweep']['t_grid'])} sweep rows, got {len(rows)}")
    for t, uncontrolled, naive, optimized in rows:
        if optimized < naive - VALUE_TOL or optimized < uncontrolled - VALUE_TOL:
            raise CheckFailed(f"T={t}: optimized {optimized!r} below naive or uncontrolled")
    return max(row[3] for row in rows)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    threads is the STEERCTL_THREADS value the timed jobs run with (None:
    unset, serial).  A parallel workload's outputs must be byte-identical to
    an untimed serial run of the same config.  min_jobs timed jobs always
    run, so result_value (the mean headline over them) repeats exactly.
    """

    name: str
    unit: str
    units_per_job: Callable[[dict[str, Any]], int]
    config: Callable[[int, int], dict[str, Any]]
    check: Callable[[Path, dict[str, Any]], float]
    output_suffix: str
    min_jobs: int
    threads: str | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="optimize-ad",
            unit="optimizer starts",
            units_per_job=lambda c: c["optimize"]["n_starts"] + 1,
            config=optimize_config,
            check=check_optimize,
            output_suffix=".json",
            min_jobs=11,
        ),
        Workload(
            name="landscape-dp",
            unit="grid cells",
            units_per_job=lambda c: GRID_CELLS,
            config=landscape_config,
            check=check_landscape,
            output_suffix=".csv",
            min_jobs=11,
        ),
        Workload(
            name="sweep-par",
            unit="horizon points",
            units_per_job=lambda c: len(c["sweep"]["t_grid"]),
            config=sweep_config,
            check=check_sweep,
            output_suffix=".csv",
            min_jobs=1,
            threads="2",
        ),
    )
}
