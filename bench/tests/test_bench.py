"""Tests of the benchmark harness itself, on shrunken versions of its workloads.

    python3 -m pytest bench/tests -q

They live outside the package's testpaths, so the package's own suite does
not run them.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from functools import partial
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SMALL = {
    "optimize-ad": wl.Workload(
        name="optimize-ad",
        unit="optimizer starts",
        units_per_job=lambda c: c["optimize"]["n_starts"] + 1,
        config=partial(wl.optimize_config, n_starts=2, m=4),
        check=wl.check_optimize,
        output_suffix=".json",
        min_jobs=1,
    ),
    "landscape-dp": wl.Workload(
        name="landscape-dp",
        unit="grid cells",
        units_per_job=lambda c: 81,
        config=partial(wl.landscape_config, half_width=14.0, step=3.5),
        check=partial(wl.check_landscape, cells=81),
        output_suffix=".csv",
        min_jobs=1,
    ),
    "sweep-par": wl.Workload(
        name="sweep-par",
        unit="horizon points",
        units_per_job=lambda c: len(c["sweep"]["t_grid"]),
        config=partial(wl.sweep_config, t_grid=(0.8,), n_starts=1, m=4),
        check=wl.check_sweep,
        output_suffix=".csv",
        min_jobs=1,
        threads="2",
    ),
}

#: Per-layer metrics that are legitimately zero on a workload: layers or
#: call kinds it never reaches in the traced process, and counts of events
#: (plateaus, fallbacks, compatible pairs) its inputs need not produce.
ZERO_ALLOWED = {
    "control.wait_ms",
    "steering.plateau_frac",
    "steering.grad_fallbacks",
    "compat.compatible_frac",
    "trace.overhead_frac",
}
NOT_REACHED = {
    "optimize-ad": set(),
    "landscape-dp": {
        "control.starts",
        "control.lbfgs_iters",
        "control.evals_per_start",
        "steering.value_grad_calls",
        "steering.value_calls",
        "steering.value_grad_us",
        "lindblad.jacobian_us",
        "lindblad.propagate_us",
        "lindblad.slot_expms",
    },
    # Value+gradient calls run in pool workers, which are not traced.
    "sweep-par": {
        "control.evals_per_start",
        "steering.value_grad_calls",
        "steering.value_grad_us",
    },
}


@pytest.fixture
def workdir():
    path = run.WORK / f"tests-{id(object())}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def traced_job(name: str, workdir: Path) -> tuple[run.Session, run.JobResult, tracing.Tracer]:
    session = run.Session(SMALL[name], 1, workdir)
    tracer = tracing.Tracer()
    result = session.job(0, "traced", SMALL[name].threads, tracer)
    return session, result, tracer


@pytest.mark.parametrize("name", ["optimize-ad", "landscape-dp"])
def test_child_spans_fit_inside_their_parent(name, workdir):
    _, result, tracer = traced_job(name, workdir)
    assert result.ok
    children = {}
    for span in tracer.spans:
        if span.parent is not None:
            parent = tracer.spans[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end
            children[span.parent] = children.get(span.parent, 0.0) + span.duration
    assert children, "the traced job recorded no nested spans"
    for index, self_s in enumerate(tracer.self_times()):
        assert 0.0 <= self_s <= tracer.spans[index].duration
        assert children.get(index, 0.0) <= tracer.spans[index].duration


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_outputs_are_byte_identical_to_untraced(name, workdir):
    session, traced, _ = traced_job(name, workdir)
    plain = session.job(0, "plain", SMALL[name].threads)
    assert traced.ok and plain.ok
    assert traced.output == plain.output
    assert session.failed == 0


def test_parallel_output_mismatch_counts_as_failure(workdir):
    session = run.Session(SMALL["sweep-par"], 1, workdir)
    key_config = SMALL["sweep-par"].config(1, 0)
    session.references[json.dumps(key_config, sort_keys=True)] = b"not the serial bytes"
    result = session.job(0, "par", "2")
    assert not result.ok
    assert session.failed == 1


@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_layer_metric_reported_where_its_layer_runs(name, workdir):
    session = run.Session(SMALL[name], 1, workdir)
    metrics, samples = run.measure_layers(session, seconds=0.0)
    assert session.failed == 0
    assert samples["pairs"] == run.TRACE_MIN_PAIRS
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    for key, value in metrics.items():
        assert math.isfinite(value), key
        if key in NOT_REACHED[name]:
            assert value == 0.0, key
        elif key not in ZERO_ALLOWED:
            assert value > 0.0, key
    if SMALL[name].threads:
        assert metrics["control.wait_ms"] > 0.0


def test_end_to_end_metrics_are_all_reported(workdir):
    session = run.Session(SMALL["landscape-dp"], 1, workdir)
    metrics, samples = run.measure_end_to_end(session, seconds=0.0)
    assert set(metrics) == set(run.END_TO_END_UNITS) | set(run.WALL_UNITS)
    assert all(value > 0.0 for value in metrics.values())
    assert metrics["ok_frac"] == 1.0
    assert samples["jobs"] == 1


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(1, 21)]
    assert run.tail(values) == (10.0, 50.0)
    assert run.tail(values[:10]) == (10.0, 100.0)


def test_offsets_are_seeded_and_seed_zero_is_unshifted():
    assert wl.landscape_offset(0) == 0.0
    assert wl.landscape_offset(5) == wl.landscape_offset(5)
    assert 0.0 < wl.landscape_offset(5) < wl.GRID_STEP
