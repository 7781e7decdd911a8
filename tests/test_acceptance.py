"""End-to-end acceptance checks with one printed verdict line per criterion.

Each test prints its pass/fail line through capsys.disabled() so the verdicts
appear in the live pytest output, then asserts.  Tolerances are part of the
contract and are stated inline.
"""

import numpy as np
import pytest

from conftest import (
    SHARP_PAIR_VALUE,
    SQRT2,
    ad_transfer,
    central_difference,
    dp_decay_value,
    dp_transfer,
    xz_scenario,
    random_cptp_heisenberg,
    random_incompatible_pair,
    random_state,
    random_unitary_heisenberg,
    relative_gradient_error,
)
from steerctl import (
    BipartiteState,
    ControlHamiltonian,
    DriftGenerator,
    FourVector,
    OptimizeConfig,
    PulseSequence,
    ScenarioEvaluator,
    SteeringScenario,
    UnsupportedStateError,
    landscape,
    optimize,
    propagate,
    propagate_schrodinger,
    resource_map,
    robustness,
    robustness_gradient,
    sharp_effect,
    steering_robustness,
    steering_value_and_gradient,
    time_sweep,
)

X = sharp_effect([1.0, 0.0, 0.0])
Z = sharp_effect([0.0, 0.0, 1.0])
GRID_STEP = 0.25


@pytest.fixture
def report(capsys):
    def _report(number: int, description: str, ok: bool, detail: str) -> None:
        status = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"[{status}] criterion {number:2d}: {description} ({detail})")
        assert ok, f"criterion {number} failed: {detail}"

    return _report


def full_axis() -> np.ndarray:
    return np.arange(-15.0, 15.0 + 1e-9, GRID_STEP)


def test_01_sharp_pair_value(report):
    got = robustness(X, Z)
    err = abs(got - SHARP_PAIR_VALUE)
    report(1, "sharp orthogonal pair robustness is 1 - 1/sqrt(2)", err < 1e-9,
           f"value {got:.12f}, error {err:.2e}, tol 1e-9")


def test_02_dephasing_decay_curve(report):
    s = xz_scenario("dp", gamma=0.1)
    evaluator = ScenarioEvaluator(s)
    worst = 0.0
    for t in np.arange(0.0, 3.0 + 1e-9, 0.1):
        if t == 0.0:
            got = evaluator.channel_value(np.eye(4))
        else:
            got = evaluator.pulse_value(t / 4.0, (0.0,) * 4)
        worst = max(worst, abs(got - dp_decay_value(0.1, float(t))))
    late = evaluator.pulse_value(2.8 / 4.0, (0.0,) * 4)
    ok = worst < 1e-8 and late == 0.0
    report(2, "uncontrolled dephasing decay matches the closed form", ok,
           f"worst error {worst:.2e} on t in [0, 3], tol 1e-8; value at T=2.8 is {late}")


def test_03_amplitude_damping_landscape(report):
    axis = full_axis()
    grid = landscape(xz_scenario("ad"), t_drift=2.6, T=2.8, c1_axis=axis, c2_axis=axis)
    peak = grid.max_value
    in_band = 0.055 <= peak <= 0.069
    target = (-1.42, 12.32)
    near = min(
        max(abs(c1 - target[0]), abs(c2 - target[1])) for c1, c2 in grid.maximizers
    )
    local = near <= GRID_STEP + 1e-9
    report(3, "two-pulse damping landscape peak location and height", in_band and local,
           f"max {peak:.6f} in [0.055, 0.069]; maximizer within {near:.3f} of {target}, "
           f"allowed {GRID_STEP}")


def test_04_dephasing_landscape(report):
    axis = full_axis()
    grid = landscape(xz_scenario("dp"), t_drift=2.6, T=2.8, c1_axis=axis, c2_axis=axis)
    peak = grid.max_value
    in_band = 0.110 <= peak <= 0.140
    target = (1.80, -12.88)
    near = min(
        max(abs(c1 - target[0]), abs(c2 - target[1])) for c1, c2 in grid.maximizers
    )
    local = near <= GRID_STEP + 1e-9
    i0 = int(np.where(axis == 0.0)[0][0])
    origin = grid.values[i0, i0]
    ok = in_band and local and origin == 0.0
    report(4, "two-pulse dephasing landscape peak and dead origin", ok,
           f"max {peak:.6f} in [0.110, 0.140]; maximizer within {near:.3f} of {target}; "
           f"origin value {origin}")


def test_05_factor_two_improvement(report):
    cfg = OptimizeConfig(T=2.8, m=20, amp_bounds=(-15.0, 15.0), n_starts=100, seed=0)
    res = optimize(xz_scenario("ad"), cfg)
    ratio = res.best_value / res.baseline_value
    report(5, "optimized pulses at least double the uncontrolled value", ratio >= 2.0,
           f"best {res.best_value:.6f} vs baseline {res.baseline_value:.6f}, "
           f"ratio {ratio:.3f} >= 2 required")


def test_06_sweep_ordering(report):
    cfg = OptimizeConfig(T=1.0, m=20, n_starts=12, seed=0)
    rows = time_sweep(xz_scenario("ad"), cfg, [0.4, 0.8, 1.2, 1.6, 2.0, 2.4, 2.8])
    ok = all(
        r.optimized >= r.naive - 1e-12
        and r.naive >= 0.0
        and r.optimized >= r.uncontrolled - 1e-12
        for r in rows
    )
    margin = min(
        min(r.optimized - r.naive, r.naive, r.optimized - r.uncontrolled) for r in rows
    )
    report(6, "optimized >= naive >= 0 and optimized >= uncontrolled across the sweep",
           ok, f"7 horizon points, worst margin {margin:.3e}")


def _random_steering_config(rng):
    states = [
        BipartiteState.max_entangled,
        lambda: BipartiteState.werner(rng.uniform(0.78, 0.98)),
        lambda: random_state(rng),
    ]
    while True:
        try:
            s = SteeringScenario(
                rho=states[rng.integers(3)](),
                x1=X,
                x2=Z,
                drift=(
                    DriftGenerator.amplitude_damping(rng.uniform(0.0, 0.3))
                    if rng.random() < 0.5
                    else DriftGenerator.dephasing(rng.uniform(0.0, 0.3))
                ),
                control=ControlHamiltonian(tuple(rng.uniform(-1.0, 1.0, 3))),
            )
        except UnsupportedStateError:
            continue
        m = int(rng.integers(4, 9))
        t_total = rng.uniform(0.3, 1.5)
        pulse = PulseSequence(t_total / m, tuple(rng.uniform(-3.0, 3.0, m)))
        value = steering_robustness(s, pulse)
        if 1e-3 < value < 0.5 - 1e-3:
            return s, pulse


def test_07_gradient_suite(report):
    # The FD reference at step 1e-6 carries ~5e-9 absolute noise per
    # component from the root-finder resolution, so gradients smaller than
    # the 2e-3 floor are compared absolutely (their mismatch stays ~1e-8);
    # everything above it must agree to 1e-5 in relative norm.
    floor = 2e-3
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        x1, x2 = random_incompatible_pair(rng)
        b = float(rng.uniform(-0.7, 0.7))
        g1, g2 = robustness_gradient(x1, x2, b)
        analytic = np.concatenate([g1.as_array(), g2.as_array()])

        def value_at(z: np.ndarray) -> float:
            return robustness(FourVector.from_array(z[:4]), FourVector.from_array(z[4:]), b)

        numeric = central_difference(
            value_at, np.concatenate([x1.as_array(), x2.as_array()]), step=1e-6
        )
        worst = max(worst, relative_gradient_error(analytic, numeric, floor=floor))
    for _ in range(100):
        s, pulse = _random_steering_config(rng)
        analytic = np.asarray(steering_value_and_gradient(s, pulse)[1])
        evaluator = ScenarioEvaluator(s)
        numeric = central_difference(
            lambda c: evaluator.pulse_value(pulse.dt, tuple(c)),
            np.asarray(pulse.amplitudes),
            step=1e-6,
        )
        worst = max(worst, relative_gradient_error(analytic, numeric, floor=floor))
    report(7, "analytic gradients match central differences on 200 configurations",
           worst < 1e-5, f"worst relative error {worst:.3e}, tol 1e-5, step 1e-6")


def test_08_monotonicity_suite(report):
    # A random non-unitary channel alone leaves almost no pair steerable
    # (4 of 750), where the bound reads 0 <= 0.  Mixing it with the identity
    # at weight 1 - w, again a unital channel, keeps many pairs steerable.
    rng = np.random.default_rng(77)
    worst = -np.inf
    steerable = 0
    for trial in range(1000):
        x1, x2 = random_incompatible_pair(rng, min_gap=1e-4)
        if trial % 4 == 0:
            channel = random_unitary_heisenberg(rng)
        else:
            drawn = random_cptp_heisenberg(rng, env_dim=2 + trial % 2)
            w = rng.uniform(0.0, 0.3)
            channel = (1.0 - w) * np.eye(4) + w * drawn
        before = robustness(x1, x2)
        after = robustness(
            FourVector.from_array(channel @ x1.as_array()),
            FourVector.from_array(channel @ x2.as_array()),
        )
        if trial % 4 and after > 0.0:
            steerable += 1
        worst = max(worst, after - before)
    report(8, "1000 random channels never increase the incompatibility monotone",
           worst <= 1e-9 and steerable >= 100,
           f"worst increase {worst:.3e}, allowed 1e-9; {steerable} of 750 "
           f"non-unitary draws steerable after the channel, need 100")


def test_09_dynamics_oracles(report):
    h = ControlHamiltonian((0.0, 1.0, 1.0))
    worst = 0.0
    for gamma in (0.05, 0.1, 0.3):
        for t in (0.5, 1.7, 2.8):
            pulse = PulseSequence.zero(5, t)
            got_ad = propagate(DriftGenerator.amplitude_damping(gamma), h, pulse)
            worst = max(worst, float(np.max(np.abs(got_ad - ad_transfer(gamma, t)))))
            got_dp = propagate(DriftGenerator.dephasing(gamma), h, pulse)
            worst = max(worst, float(np.max(np.abs(got_dp - dp_transfer(gamma, t)))))
    rng = np.random.default_rng(99)
    dual = 0.0
    for _ in range(50):
        gamma = rng.uniform(0.0, 0.5)
        g = (
            DriftGenerator.amplitude_damping(gamma)
            if rng.random() < 0.5
            else DriftGenerator.dephasing(gamma)
        )
        hc = ControlHamiltonian(tuple(rng.uniform(-1.5, 1.5, 3)))
        p = PulseSequence(rng.uniform(0.05, 0.4), tuple(rng.uniform(-3, 3, 4)))
        heis = propagate(g, hc, p)
        schr = propagate_schrodinger(g, hc, p)
        dual = max(dual, float(np.max(np.abs(schr - heis.T))))
    ok = worst < 1e-10 and dual < 1e-10
    report(9, "closed-form dissipators and picture duality", ok,
           f"closed-form error {worst:.2e}, duality error {dual:.2e}, tol 1e-10")


def test_10_werner_resource_oracle(report):
    v = 0.85
    got_map = resource_map(BipartiteState.werner(v))
    map_err = float(np.max(np.abs(got_map - np.diag([1.0, v, v, v]))))
    s = SteeringScenario(
        rho=BipartiteState.werner(v),
        x1=X,
        x2=Z,
        drift=DriftGenerator.amplitude_damping(0.0),
        control=ControlHamiltonian((0.0, 1.0, 1.0)),
    )
    got_value = steering_robustness(s, PulseSequence.zero(3, 0.5))
    expected = 1.0 - 1.0 / (v * SQRT2)
    value_err = abs(got_value - expected)
    ok = map_err < 1e-9 and value_err < 1e-9
    report(10, "Werner state resource map and steering value", ok,
           f"map error {map_err:.2e}; value {got_value:.12f} vs 1 - 1/(v*sqrt(2)), "
           f"error {value_err:.2e}, tol 1e-9")
