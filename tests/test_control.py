"""Multi-start pulse optimization, landscape scans, and time sweeps."""

import concurrent.futures
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import PROPERTY_SETTINGS, SHARP_PAIR_VALUE, controls, drifts, pulses, xz_scenario
from steerctl import (
    LandscapeGrid,
    OptimizeConfig,
    PulseSequence,
    ScenarioEvaluator,
    control_matrix,
    landscape,
    naive_optimize,
    optimize,
    propagate_with_jacobian,
    steering_robustness,
    time_sweep,
)
from steerctl import control, lindblad
from steerctl.errors import InvalidEffectError

SMALL = OptimizeConfig(T=1.0, m=6, n_starts=4, seed=3, max_iters=60)


def test_optimize_config_validation():
    with pytest.raises(ValueError):
        OptimizeConfig(T=0.0)
    with pytest.raises(ValueError):
        OptimizeConfig(T=1.0, m=0)
    with pytest.raises(ValueError):
        OptimizeConfig(T=1.0, amp_bounds=(2.0, -2.0))
    with pytest.raises(ValueError):
        OptimizeConfig(T=1.0, n_starts=0)
    with pytest.raises(ValueError):
        OptimizeConfig(T=float("inf"))
    # an infinite width would overflow rng.uniform at the first random start
    with pytest.raises(ValueError):
        OptimizeConfig(T=1.0, amp_bounds=(-1e308, 1e308))
    with pytest.raises(ValueError):
        OptimizeConfig(T=1.0, amp_bounds=(-float("inf"), 1.0))
    # a negative seed fails here, not at the first random start
    with pytest.raises(ValueError, match="^seed must be >= 0$"):
        OptimizeConfig(T=1.0, seed=-1)
    cfg = OptimizeConfig(T=2.8, m=20)
    assert cfg.dt == pytest.approx(0.14)
    # counts are never truncated: a fractional one raises and names its field
    counts = dict(m=2, n_starts=1, seed=3, max_iters=10)
    for name in counts:
        for bad in (counts[name] + 0.7, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"^{name} must be an integer"):
                OptimizeConfig(T=1.0, **{**counts, name: bad})
    # integral floats are integers to JSON Schema, so they keep working
    cfg = OptimizeConfig(T=1.0, **{name: float(v) for name, v in counts.items()})
    assert cfg == OptimizeConfig(T=1.0, **counts)
    assert all(type(getattr(cfg, name)) is int for name in counts)


@pytest.mark.blas_kernel_independent
def test_result_shape_and_invariants():
    s = xz_scenario("ad")
    res = optimize(s, SMALL)
    assert res.best_pulse.m == SMALL.m
    assert res.best_pulse.dt == pytest.approx(SMALL.dt)
    # zero start first, then one entry per random start
    assert len(res.start_values) == SMALL.n_starts + 1
    assert len(res.iterations_per_start) == SMALL.n_starts + 1
    assert all(it >= 0 for it in res.iterations_per_start)
    assert res.best_value == pytest.approx(max(res.start_values), abs=0.0)
    assert res.best_value >= res.baseline_value - 1e-12
    # reported best value is the value of the reported pulse, bit for bit
    assert steering_robustness(s, res.best_pulse) == res.best_value


def test_baseline_is_the_zero_pulse_value():
    s = xz_scenario("ad")
    res = optimize(s, SMALL)
    zero = steering_robustness(s, PulseSequence.zero(SMALL.m, SMALL.T))
    assert res.baseline_value == pytest.approx(zero, abs=0.0)
    assert res.start_values[0] >= zero - 1e-12


def test_optimizer_is_deterministic():
    s = xz_scenario("ad")
    first = optimize(s, SMALL)
    second = optimize(s, SMALL)
    assert first.best_value == second.best_value
    assert first.best_pulse.amplitudes == second.best_pulse.amplitudes
    assert first.start_values == second.start_values
    assert first.iterations_per_start == second.iterations_per_start
    shifted = optimize(s, OptimizeConfig(T=1.0, m=6, n_starts=4, seed=4, max_iters=60))
    assert shifted.start_values != first.start_values


def test_parallel_starts_match_serial(monkeypatch):
    s = xz_scenario("ad")
    serial = optimize(s, SMALL)
    monkeypatch.setenv("STEERCTL_THREADS", "2")
    parallel = optimize(s, SMALL)
    assert parallel.best_value == serial.best_value
    assert parallel.best_pulse.amplitudes == serial.best_pulse.amplitudes
    assert parallel.start_values == serial.start_values


@pytest.mark.parametrize("raw", ["abc", "0"])
def test_invalid_thread_count_fails_loud(monkeypatch, raw):
    monkeypatch.setenv("STEERCTL_THREADS", raw)
    with pytest.raises(ValueError, match=f"STEERCTL_THREADS.*'{raw}'"):
        optimize(xz_scenario("ad"), SMALL)


@pytest.mark.parametrize("raw", [None, "1"])
def test_unset_or_single_thread_count_runs_serially(monkeypatch, raw):
    if raw is None:
        monkeypatch.delenv("STEERCTL_THREADS", raising=False)
    else:
        monkeypatch.setenv("STEERCTL_THREADS", raw)

    def no_pool(*args, **kwargs):
        raise AssertionError("a serial run started a process pool")

    # _multi_start imports the pool class on first use, from here.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    res = optimize(xz_scenario("ad"), SMALL)
    assert len(res.start_values) == SMALL.n_starts + 1


def test_bounds_are_respected():
    s = xz_scenario("ad")
    cfg = OptimizeConfig(T=1.0, m=6, n_starts=6, seed=1, amp_bounds=(-0.5, 0.5))
    res = optimize(s, cfg)
    for c in res.best_pulse.amplitudes:
        assert -0.5 - 1e-12 <= c <= 0.5 + 1e-12


@pytest.mark.blas_kernel_independent
@pytest.mark.parametrize(
    "kind, cfg, on_edge",
    [
        ("ad", OptimizeConfig(T=1.0, m=1, n_starts=4, seed=5, max_iters=60), False),
        # a box this narrow holds no interior maximum: the descents end on
        # its edge
        ("dp", OptimizeConfig(T=1.0, m=6, n_starts=4, seed=5, amp_bounds=(-0.05, 0.05)), True),
    ],
    ids=["m1", "box-edge"],
)
def test_optimizer_edge_cases_report_the_value_of_their_pulse(kind, cfg, on_edge):
    s = xz_scenario(kind)
    res = optimize(s, cfg)
    assert all(0.0 <= v < 0.5 for v in res.start_values)
    assert res.best_value >= res.baseline_value
    assert steering_robustness(s, res.best_pulse) == res.best_value
    if on_edge:
        assert all(c in cfg.amp_bounds for c in res.best_pulse.amplitudes)


def test_noiseless_scenario_has_a_flat_optimum():
    # gamma = 0 evolution is a rotation, which the monotone ignores
    s = xz_scenario("ad", gamma=0.0)
    res = optimize(s, OptimizeConfig(T=1.0, m=4, n_starts=3, seed=0, max_iters=40))
    assert res.baseline_value == pytest.approx(SHARP_PAIR_VALUE, abs=1e-12)
    assert res.best_value == pytest.approx(SHARP_PAIR_VALUE, abs=1e-9)


def test_flat_starts_escape_the_plateau():
    # uncontrolled dephasing at T = 2.8 is non-steerable, yet control recovers
    s = xz_scenario("dp")
    cfg = OptimizeConfig(T=2.8, m=10, n_starts=6, seed=0, max_iters=80)
    res = optimize(s, cfg)
    assert res.baseline_value == 0.0
    assert res.start_values[0] == 0.0  # the zero start cannot move
    # most of the box is non-steerable here, yet some start must escape
    assert res.best_value > 0.02


def test_improvement_is_monotone_in_start_count():
    s = xz_scenario("ad")
    few = optimize(s, OptimizeConfig(T=2.0, m=8, n_starts=2, seed=7))
    many = optimize(s, OptimizeConfig(T=2.0, m=8, n_starts=8, seed=7))
    # identical seeds make the first starts coincide, so more starts can only help
    assert many.best_value >= few.best_value - 1e-15


def test_naive_optimize_contracts():
    s = xz_scenario("ad")
    res = naive_optimize(s, SMALL)
    assert len(res.start_values) == SMALL.n_starts + 1
    # the reported value belongs to the reported pulse
    replay = steering_robustness(s, res.best_pulse)
    assert replay == pytest.approx(res.best_value, abs=1e-12)
    zero = steering_robustness(s, PulseSequence.zero(SMALL.m, SMALL.T))
    assert res.baseline_value == pytest.approx(zero, abs=0.0)


def test_naive_optimize_without_drift_recovers_the_identity():
    # with no dissipation the identity is reachable, so the naive target
    # reproduces the undamaged sharp-pair value
    s = xz_scenario("ad", gamma=0.0)
    res = naive_optimize(s, OptimizeConfig(T=0.6, m=4, n_starts=3, seed=2, max_iters=60))
    assert res.best_value == pytest.approx(SHARP_PAIR_VALUE, abs=1e-9)


def test_landscape_grid_geometry_and_values():
    s = xz_scenario("ad")
    axis = np.arange(-3.0, 3.0 + 1e-9, 1.5)
    grid = landscape(s, t_drift=2.6, T=2.8, c1_axis=axis, c2_axis=axis)
    assert grid.values.shape == (5, 5)
    assert np.array_equal(grid.c1_axis, axis)
    assert grid.t_drift == 2.6 and grid.T == 2.8
    # spot-check one cell against a direct channel evaluation
    import scipy.linalg

    evaluator = ScenarioEvaluator(s)
    dt = 0.5 * (2.8 - 2.6)
    l0, k = evaluator.drift_generator, evaluator.control_generator
    channel = (
        scipy.linalg.expm(2.6 * l0)
        @ scipy.linalg.expm(dt * (l0 + axis[1] * k))
        @ scipy.linalg.expm(dt * (l0 + axis[3] * k))
    )
    assert grid.values[1, 3] == pytest.approx(evaluator.channel_value(channel), abs=1e-12)
    assert grid.max_value == grid.values.max()
    assert grid.argmax in grid.maximizers
    for c1, c2 in grid.maximizers:
        i = int(np.where(axis == c1)[0][0])
        j = int(np.where(axis == c2)[0][0])
        assert grid.values[i, j] == grid.max_value


def test_landscape_mirror_degeneracy_is_exact():
    # negating both amplitudes conjugates the channel by a Bloch x-flip,
    # which the unbiased monotone cannot see.  In floats the mirrored
    # effects differ only in the sign of their overlap: every dephasing slot
    # exponential has an exact unit first row and column, so the identity
    # coefficients are exactly 1.  But C adds its two overlap terms in a
    # fixed order, so it is not exactly even in the overlap: this small grid
    # is bit-for-bit symmetric, but not every grid is (see the 121x121 test
    # below)
    s = xz_scenario("dp")
    axis = np.arange(-3.0, 3.0 + 1e-9, 0.75)
    grid = landscape(s, t_drift=2.6, T=2.8, c1_axis=axis, c2_axis=axis)
    assert np.array_equal(grid.values, grid.values[::-1, ::-1])


def test_landscape_mirror_asymmetry_stays_at_rounding_level():
    # The benchmark's 121x121 dephasing grid: 22 cells differ from their
    # mirror cell, by up to 7.25e-15.
    s = xz_scenario("dp")
    axis = np.linspace(-15.0, 15.0, 121)
    values = landscape(s, t_drift=2.6, T=2.8, c1_axis=axis, c2_axis=axis).values
    assert np.max(np.abs(values - values[::-1, ::-1])) <= 1e-14


def test_landscape_rejects_bad_drift_window():
    s = xz_scenario("ad")
    with pytest.raises(ValueError):
        landscape(s, t_drift=3.0, T=2.8, c1_axis=[0.0], c2_axis=[0.0])
    with pytest.raises(ValueError):
        landscape(s, t_drift=-0.1, T=2.8, c1_axis=[0.0], c2_axis=[0.0])
    with pytest.raises(ValueError):
        landscape(s, t_drift=0.0, T=float("inf"), c1_axis=[0.0], c2_axis=[0.0])


@pytest.mark.parametrize("name", ["c1_axis", "c2_axis"])
@pytest.mark.parametrize(
    "bad",
    [[], [[0.0, 1.0]], [0.0, float("nan")], [float("inf")]],
    ids=["empty", "2-D", "nan", "inf"],
)
def test_landscape_rejects_a_bad_axis_before_any_exponential(monkeypatch, name, bad):
    def no_expm(*args, **kwargs):
        raise AssertionError("an exponential was taken")

    monkeypatch.setattr(control, "_slot_blocks", no_expm)
    axes = {"c1_axis": [0.0], "c2_axis": [0.0], name: bad}
    with pytest.raises(ValueError, match=f"^{name} must be"):
        landscape(xz_scenario("ad"), t_drift=2.6, T=2.8, **axes)


@pytest.mark.blas_kernel_independent
@pytest.mark.parametrize("kind", ["ad", "dp"])
def test_landscape_without_drift_is_the_two_slot_pulse_bit_for_bit(kind):
    # One way to build a channel: every landscape factor is a slot block of
    # the pulse kernel, so at t_drift = 0 each cell is the robustness of the
    # two-slot pulse (c1, c2).
    s = xz_scenario(kind)
    T = 2.8
    axis = np.linspace(-15.0, 15.0, 31)
    grid = landscape(s, t_drift=0.0, T=T, c1_axis=axis, c2_axis=axis)
    two_slot = [
        [steering_robustness(s, PulseSequence(T / 2, (c1, c2))) for c2 in axis] for c1 in axis
    ]
    assert np.array_equal(grid.values, np.array(two_slot))


def test_landscape_builds_a_center_both_axes_share_once(monkeypatch):
    # With the center cache bounded, a c2 axis served after the c1 axis
    # missed every center but those of c1's last batch and built them
    # again.  Served together, each center is built once, with the same bits.
    s = xz_scenario("ad")
    c1 = np.arange(-15.0, 15.0)
    c2 = np.concatenate([c1[::-1], [-0.0, 0.5]])
    reference = landscape(s, t_drift=0.0, T=2.8, c1_axis=c1, c2_axis=c2).values
    built = []
    build = lindblad._SlotTables._tables

    def counted(self, centers):
        built.extend((self._dt, j) for j in centers.tolist())
        return build(self, centers)

    monkeypatch.setattr(lindblad._SlotTables, "_tables", counted)
    monkeypatch.setattr(lindblad, "_MAX_CENTERS", 10)
    lindblad._slot_tables.cache_clear()
    grid = landscape(s, t_drift=0.0, T=2.8, c1_axis=c1, c2_axis=c2)
    assert grid.values.tobytes() == reference.tobytes()
    assert len(built) == len(set(built)) > 30


@pytest.mark.parametrize("where", ["pulse", "c1_axis", "c2_axis"])
def test_huge_amplitude_is_an_invalid_effect_in_a_pulse_and_a_landscape(where):
    # The slot exponential at amplitude 1e200 would need more squarings than
    # a double has bits, so its block is NaN and so is the channel.  The
    # typed error comes without a floating-point warning.
    s = xz_scenario("ad")
    with pytest.raises(InvalidEffectError):
        if where == "pulse":
            steering_robustness(s, PulseSequence(0.1, (1e200,)))
        else:
            axes = {"c1_axis": [0.0], "c2_axis": [0.0], where: [1e200]}
            landscape(s, t_drift=2.6, T=2.8, **axes)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_landscape_grid_rejects_non_finite_values(bad):
    # NaN passes every range comparison, so it needs its own check.
    with pytest.raises(ValueError, match="^landscape values must be finite$"):
        LandscapeGrid(0.0, 1.0, [0.0], [0.0, 0.0], [[0.1, bad]])


def test_time_sweep_rows():
    s = xz_scenario("ad")
    cfg = OptimizeConfig(T=1.0, m=5, n_starts=2, seed=0, max_iters=40)
    rows = time_sweep(s, cfg, [0.5, 1.0])
    assert [r.T for r in rows] == [0.5, 1.0]
    evaluator = ScenarioEvaluator(s)
    for r in rows:
        assert r.uncontrolled == pytest.approx(
            evaluator.pulse_value(r.T / cfg.m, (0.0,) * cfg.m), abs=0.0
        )
        assert r.optimized >= r.uncontrolled - 1e-12
        assert r.optimized >= r.naive - 1e-12
        assert r.naive >= 0.0


def test_time_sweep_builds_one_evaluator(resource_map_calls):
    # Every point runs both optimizers on the scenario's own evaluator, so
    # the one resource map is the one the scenario built.
    cfg = OptimizeConfig(T=1.0, m=3, n_starts=1, seed=0, max_iters=10)
    assert len(time_sweep(xz_scenario("ad"), cfg, [0.5, 1.0, 1.5])) == 3
    assert len(resource_map_calls) == 1


@settings(**PROPERTY_SETTINGS)
@given(drift=drifts, ctrl=controls, pulse=pulses)
def test_naive_cost_gradient_is_the_explicit_jacobian_contraction(drift, ctrl, pulse):
    cost, grad = control._identity_distance(
        drift.matrix, control_matrix(ctrl), pulse.dt, pulse.amplitudes
    )
    total, jac = propagate_with_jacobian(drift, ctrl, pulse)
    diff = total.T - np.eye(4)
    assert cost == np.sum(diff * diff)
    explicit = np.array([2.0 * np.sum(diff * dm.T) for dm in jac])
    # tolerance relative to the size of the summed terms, as for the steering cost
    size = np.array([2.0 * np.sum(abs(diff) * abs(dm.T)) for dm in jac])
    assert np.linalg.norm(grad - explicit) <= 1e-12 * np.linalg.norm(size)


def test_importing_the_cli_leaves_scipy_optimize_unloaded():
    # Only the optimizers need scipy.optimize (about 50 MB resident), so
    # check, robustness, evolve and landscape runs never load it; only
    # parallel starts need the process pool (about 1.6 MB).
    src = os.path.dirname(os.path.dirname(os.path.abspath(control.__file__)))
    lazy = ("scipy.optimize", "concurrent.futures.process", "multiprocessing")
    probe = f"import sys, steerctl.cli; print([m for m in {lazy!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
