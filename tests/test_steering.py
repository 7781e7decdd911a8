"""The state resource map and the pulsed steering monotone."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    PROPERTY_SETTINGS,
    SHARP_PAIR_VALUE,
    SQRT2,
    central_difference,
    complement,
    conditional_states,
    controls,
    dp_decay_value,
    drifts,
    effect_to_matrix,
    effects,
    is_unital,
    pulses,
    random_cptp_heisenberg,
    xz_scenario,
    random_effect,
    random_state,
    relative_gradient_error,
)
from steerctl import (
    BipartiteState,
    ControlHamiltonian,
    DegenerateRootError,
    DriftGenerator,
    FourVector,
    InternalConsistencyError,
    InvalidEffectError,
    NotDifferentiableError,
    PulseSequence,
    ScenarioEvaluator,
    SteeringScenario,
    UnsupportedStateError,
    bob_marginal,
    propagate,
    propagate_with_jacobian,
    resource_map,
    robustness,
    robustness_gradient,
    sharp_effect,
    steering_robustness,
    steering_value_and_gradient,
)
from steerctl import lindblad
from steerctl.qubit_algebra import PAULI_BASIS
from test_compat import noisy_dc_dlam, noisy_norms

X = sharp_effect([1.0, 0.0, 0.0])
Z = sharp_effect([0.0, 0.0, 1.0])


def test_bob_marginal():
    rho_a = np.array([[0.8, 0.1j], [-0.1j, 0.2]], dtype=complex)
    rho_b = np.array([[0.4, 0.2], [0.2, 0.6]], dtype=complex)
    state = BipartiteState.product(rho_a, rho_b)
    assert np.allclose(bob_marginal(state), rho_b, atol=1e-14)
    assert np.allclose(bob_marginal(BipartiteState.max_entangled()), np.eye(2) / 2, atol=1e-14)


def test_assemblage_on_the_max_entangled_state_transposes():
    x = FourVector(0.9, 0.3, -0.2, 0.4)
    sig = conditional_states(BipartiteState.max_entangled(), x, Z)
    assert np.allclose(sig[0, 0], effect_to_matrix(x).T / 2.0, atol=1e-14)
    assert np.allclose(sig[0, 1], effect_to_matrix(complement(x)).T / 2.0, atol=1e-14)
    assert np.allclose(sig[0].sum(axis=0), np.eye(2) / 2.0, atol=1e-14)


def test_assemblage_outcomes_sum_to_the_shared_marginal():
    rng = np.random.default_rng(41)
    for _ in range(15):
        state = random_state(rng)
        sig = conditional_states(state, random_effect(rng), random_effect(rng))
        marg = bob_marginal(state)
        for i in range(2):
            total = sig[i, 0] + sig[i, 1]
            assert np.allclose(total, marg, atol=1e-12)
        for i in range(2):
            for a in range(2):
                assert np.linalg.eigvalsh(sig[i, a])[0] > -1e-12


def test_resource_map_oracles():
    assert np.allclose(resource_map(BipartiteState.max_entangled()), np.eye(4), atol=1e-12)
    for v in (0.2, 0.6, 0.85, 1.0):
        got = resource_map(BipartiteState.werner(v))
        assert np.allclose(got, np.diag([1.0, v, v, v]), atol=1e-12)


def test_resource_map_is_unital_on_random_states():
    rng = np.random.default_rng(42)
    for _ in range(200):
        assert is_unital(resource_map(random_state(rng)), tol=1e-10)


def test_resource_map_reproduces_the_assemblage():
    # sqrt(rho_B) R(A^T) sqrt(rho_B) rebuilds tr_A[rho (A x Id)]; transposing
    # an effect flips the sign of its sigma_y coefficient
    rng = np.random.default_rng(43)
    for _ in range(15):
        state = random_state(rng)
        x = random_effect(rng)
        r = resource_map(state)
        marg = bob_marginal(state)
        w, vecs = np.linalg.eigh(marg)
        sqrt_marg = (vecs * np.sqrt(w)) @ vecs.conj().T
        flipped = np.array([x.x0, x.x1, -x.x2, x.x3])
        image = effect_to_matrix(FourVector.from_array(r @ flipped))
        rebuilt = sqrt_marg @ image @ sqrt_marg
        direct = conditional_states(state, x, x)[0, 0]
        assert np.allclose(rebuilt, direct, atol=1e-12)


def test_resource_map_is_the_sixteen_trace_loop_bit_for_bit():
    # reference: the explicit loop over Pauli pairs that resource_map used
    # before it went through pauli_transfer_matrix
    rng = np.random.default_rng(47)
    for _ in range(50):
        state = random_state(rng)
        eigvals, eigvecs = np.linalg.eigh(bob_marginal(state))
        inv_sqrt = (eigvecs / np.sqrt(np.clip(eigvals, 1e-12, None))) @ eigvecs.conj().T
        r4 = state.matrix.reshape(2, 2, 2, 2)
        expected = np.empty((4, 4))
        for j, pj in enumerate(PAULI_BASIS):
            image = inv_sqrt @ np.einsum("abcd,ca->bd", r4, pj.T) @ inv_sqrt
            for i, pi in enumerate(PAULI_BASIS):
                expected[i, j] = 0.5 * np.trace(pi @ image).real
        assert resource_map(state).tobytes() == expected.tobytes()


def test_resource_map_rejects_rank_deficient_marginal():
    pure_b = np.diag([1.0, 0.0]).astype(complex)
    state = BipartiteState.product(np.eye(2) / 2.0, pure_b)
    with pytest.raises(UnsupportedStateError):
        resource_map(state)


def test_scenario_validation():
    drift = DriftGenerator.amplitude_damping(0.1)
    control = ControlHamiltonian((0.0, 1.0, 1.0))
    with pytest.raises(InvalidEffectError):
        SteeringScenario(BipartiteState.max_entangled(), FourVector(1.0, 1.5, 0, 0), Z, drift, control)
    with pytest.raises(ValueError):
        SteeringScenario(BipartiteState.max_entangled(), X, Z, drift, control, b=1.0)
    pure_b = BipartiteState.product(np.eye(2) / 2.0, np.diag([1.0, 0.0]))
    with pytest.raises(UnsupportedStateError):
        SteeringScenario(pure_b, X, Z, drift, control)
    # plain ndarray states are wrapped on the way in
    s = SteeringScenario(np.eye(4) / 4.0, X, Z, drift, control)
    assert isinstance(s.rho, BipartiteState)


def test_steering_robustness_identity_channel_limits():
    s = xz_scenario("ad", gamma=0.0)
    value = steering_robustness(s, PulseSequence.zero(4, 1.0))
    assert value == pytest.approx(SHARP_PAIR_VALUE, abs=1e-12)
    evaluator = ScenarioEvaluator(s)
    assert evaluator.channel_value(np.eye(4)) == pytest.approx(SHARP_PAIR_VALUE, abs=1e-12)


def test_steering_robustness_on_werner_states():
    control = ControlHamiltonian((0.0, 1.0, 1.0))
    drift = DriftGenerator.amplitude_damping(0.0)
    for v in (0.75, 0.85, 0.95):
        s = SteeringScenario(BipartiteState.werner(v), X, Z, drift, control)
        got = steering_robustness(s, PulseSequence.zero(3, 0.5))
        assert got == pytest.approx(1.0 - 1.0 / (v * SQRT2), abs=1e-11)
    # below the shrink threshold the pair becomes simulable
    s = SteeringScenario(BipartiteState.werner(0.5), X, Z, drift, control)
    assert steering_robustness(s, PulseSequence.zero(3, 0.5)) == 0.0


def test_rotations_leave_the_monotone_invariant():
    # gamma = 0 dynamics is a pure Bloch rotation of both effects
    s = xz_scenario("ad", gamma=0.0)
    rng = np.random.default_rng(44)
    for _ in range(10):
        amps = tuple(rng.uniform(-4.0, 4.0, size=5))
        got = steering_robustness(s, PulseSequence(0.21, amps))
        assert got == pytest.approx(SHARP_PAIR_VALUE, abs=1e-10)


def test_dephasing_decay_matches_closed_form():
    s = xz_scenario("dp", gamma=0.1)
    for t in (0.3, 0.9, 1.5, 1.8, 2.8):
        got = steering_robustness(s, PulseSequence.zero(5, t))
        assert got == pytest.approx(dp_decay_value(0.1, t), abs=1e-9)


def test_amplitude_damping_decay_is_monotone():
    s = xz_scenario("ad", gamma=0.1)
    times = np.linspace(0.1, 3.0, 12)
    values = [steering_robustness(s, PulseSequence.zero(5, t)) for t in times]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_gradient_zero_on_the_non_steerable_plateau():
    s = xz_scenario("dp", gamma=0.1)
    value, grad = steering_value_and_gradient(s, PulseSequence.zero(20, 2.8))
    assert value == 0.0
    assert np.array_equal(np.asarray(grad), np.zeros(20))


def test_steering_gradient_matches_finite_differences():
    rng = np.random.default_rng(45)
    s = xz_scenario("ad", gamma=0.1)
    evaluator = ScenarioEvaluator(s)
    m, T = 6, 1.4
    for _ in range(10):
        amps = rng.uniform(-3.0, 3.0, size=m)
        pulse = PulseSequence(T / m, tuple(amps))
        value = steering_robustness(s, pulse)
        if not 0.0 < value < 0.5:
            continue
        analytic = np.asarray(steering_value_and_gradient(s, pulse)[1])
        numeric = central_difference(lambda c: evaluator.pulse_value(T / m, tuple(c)), amps)
        assert relative_gradient_error(analytic, numeric) < 1e-5


def test_gradient_on_random_full_rank_states():
    rng = np.random.default_rng(46)
    control = ControlHamiltonian((0.0, 1.0, 1.0))
    drift = DriftGenerator.amplitude_damping(0.05)
    m, T = 5, 0.8
    found = 0
    while found < 8:
        state = random_state(rng)
        try:
            s = SteeringScenario(state, X, Z, drift, control)
        except UnsupportedStateError:
            continue
        amps = rng.uniform(-2.0, 2.0, size=m)
        pulse = PulseSequence(T / m, tuple(amps))
        value, grad = steering_value_and_gradient(s, pulse)
        if not 1e-4 < value < 0.5:
            continue
        found += 1
        evaluator = ScenarioEvaluator(s)
        numeric = central_difference(lambda c: evaluator.pulse_value(T / m, tuple(c)), amps)
        assert relative_gradient_error(np.asarray(grad), numeric) < 1e-5


@pytest.mark.blas_kernel_independent
@settings(**PROPERTY_SETTINGS)
@given(
    x1=effects,
    x2=effects,
    drift=drifts,
    control=controls,
    pulse=pulses,
    b=st.floats(-0.7, 0.7),
)
# On this pulse a channel built from 4x4 slot exponentials and one built from
# the Frechet blocks' top-left corners give robustness values that differ in
# the last bits (0.011173765742421259 against 0.011173765742428475), so it
# pins that the value and the value with its gradient share one channel.
@example(
    x1=X,
    x2=Z,
    drift=DriftGenerator.amplitude_damping(0.1),
    control=ControlHamiltonian((0.0, 1.0, 1.0)),
    pulse=PulseSequence(0.14, tuple(np.random.default_rng(14).uniform(-15.0, 15.0, 20))),
    b=0.0,
)
def test_adjoint_gradient_is_the_explicit_jacobian_contraction(x1, x2, drift, control, pulse, b):
    s = SteeringScenario(BipartiteState.max_entangled(), x1, x2, drift, control, b)
    value, grad = steering_value_and_gradient(s, pulse)
    # every pulse channel is the last prefix of one slot scan, so the value
    # alone, the value with its gradient and both public propagators agree
    # bit for bit
    r = resource_map(s.rho)
    total, jac = propagate_with_jacobian(drift, control, pulse)
    plain = propagate(drift, control, pulse)
    assert np.array_equal(plain, total)
    assert steering_robustness(s, pulse) == value
    y1 = r @ (total @ x1.as_array())
    y2 = r @ (total @ x2.as_array())
    assert robustness(FourVector.from_array(y1), FourVector.from_array(y2), b) == value
    try:
        g1, g2 = robustness_gradient(FourVector.from_array(y1), FourVector.from_array(y2), b)
    except (NotDifferentiableError, DegenerateRootError):
        assert not np.any(grad)  # plateau or non-differentiable point
        return
    terms = [(r.T @ g1.as_array(), x1.as_array()), (r.T @ g2.as_array(), x2.as_array())]
    explicit = np.array([sum(a @ dm @ x for a, x in terms) for dm in jac])
    # Rounding error in a sum is relative to the size of its terms, so the
    # tolerance scales with |a|^T |dM| |x|.  That is the size of |explicit|
    # unless the terms cancel, as they do when the dynamics commute with a
    # symmetry of the pair and the gradient is zero.
    size = np.array([sum(abs(a) @ abs(dm) @ abs(x) for a, x in terms) for dm in jac])
    assert np.linalg.norm(grad - explicit) <= 1e-12 * np.linalg.norm(size)


#: Pulses of 1 to 6 slots, with the [-15, 15] box edges drawn on their own.
short_pulses = st.builds(
    lambda dt, amps: PulseSequence(dt, tuple(amps)),
    st.floats(0.02, 0.3),
    st.lists(st.sampled_from([-15.0, 15.0]) | st.floats(-15.0, 15.0), min_size=1, max_size=6),
)


@settings(**PROPERTY_SETTINGS)
@given(drift=drifts, control=controls, b=st.floats(-0.7, 0.7), pulse=short_pulses)
def test_pulse_gradient_matches_finite_differences(drift, control, b, pulse):
    s = SteeringScenario(BipartiteState.max_entangled(), X, Z, drift, control, b)
    value, grad = steering_value_and_gradient(s, pulse)
    # The central difference steps each amplitude by 1e-6.  As in the pair
    # property, keep the root clear of the plateau's kink and every noisy
    # norm and dC/dlam of the transported pair a thousand steps clear of
    # zero, where the gradient is ill-conditioned or raises.  As in
    # acceptance test 07, gradients below the 2e-3 floor, such as the zero
    # one of a zero control, are compared absolutely.
    assume(1e-4 < value < 0.5)
    channel = resource_map(s.rho) @ propagate(drift, control, pulse)
    y1, y2 = (tuple((channel @ x.as_array()).tolist()) for x in (X, Z))
    assume(min(noisy_norms(y1, y2, b, value)) > 1e-3)
    assume(abs(noisy_dc_dlam(y1, y2, b, value)) > 1e-3)
    evaluator = ScenarioEvaluator(s)
    numeric = central_difference(lambda c: evaluator.pulse_value(pulse.dt, tuple(c)), pulse.as_array())
    assert relative_gradient_error(grad, numeric, floor=2e-3) < 1e-5


#: Mixtures of the maximally entangled state and a random full-rank one.
states = st.builds(
    lambda seed, w: BipartiteState(
        (1.0 - w) * BipartiteState.max_entangled().matrix
        + w * random_state(np.random.default_rng(seed)).matrix
    ),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 1.0),
)


@pytest.mark.blas_kernel_independent
@settings(**PROPERTY_SETTINGS)
@given(
    rho=states,
    x1=effects,
    x2=effects,
    drift=drifts,
    control=controls,
    b=st.floats(-0.9, 0.9),
    pulse=pulses | short_pulses,
)
def test_value_is_in_range_and_every_path_agrees_bit_for_bit(rho, x1, x2, drift, control, b, pulse):
    s = SteeringScenario(rho, x1, x2, drift, control, b)
    value = steering_robustness(s, pulse)
    assert 0.0 <= value < 0.5
    assert value.hex() == steering_value_and_gradient(s, pulse)[0].hex()
    total, _ = propagate_with_jacobian(drift, control, pulse)
    assert propagate(drift, control, pulse).tobytes() == total.tobytes()


@pytest.mark.blas_kernel_independent
@settings(**PROPERTY_SETTINGS)
@given(
    x1=effects,
    x2=effects,
    seed=st.integers(0, 2**32 - 1),
    env_dim=st.integers(1, 2),
    w=st.floats(0.0, 0.1),
    b=st.floats(-0.9, 0.9),
)
def test_channel_value_is_the_public_robustness_bit_for_bit(x1, x2, seed, env_dim, w, b):
    # The benchmark replays captured channels through the public functions
    # and requires the in-job value bit for bit.  A little random state
    # mixed into the maximally entangled one gives a resource map that is
    # not the identity.  A one-dimensional environment gives a unitary
    # channel, which mostly keeps the pair steerable; a two-dimensional one
    # mostly reaches the plateau.
    assume(robustness(x1, x2, b) > 0.0)
    rng = np.random.default_rng(seed)
    rho = (1.0 - w) * BipartiteState.max_entangled().matrix + w * random_state(rng).matrix
    s = SteeringScenario(
        BipartiteState(rho), x1, x2, DriftGenerator.dephasing(0.1),
        ControlHamiltonian((0.0, 1.0, 1.0)), b,
    )
    evaluator = ScenarioEvaluator(s)
    channel = random_cptp_heisenberg(rng, env_dim)
    y1, y2 = (
        FourVector.from_array(evaluator.resource @ (channel @ x.as_array())) for x in (x1, x2)
    )
    assert evaluator.channel_value(channel).hex() == robustness(y1, y2, b).hex()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_channel_with_nan_is_an_invalid_effect(bad):
    # The entry multiplies the identity coefficient of both effects, so both
    # transported effects would carry it, and an infinity times the resource
    # map's zeros is a NaN.  The typed error comes without numpy's warning.
    evaluator = ScenarioEvaluator(xz_scenario("ad"))
    channel = np.eye(4)
    channel[1, 0] = bad
    with pytest.raises(InvalidEffectError):
        evaluator.channel_value(channel)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "h, amplitudes",
    [((0.0, 1.0, 1.0), [0.0, np.nan, 1.0]), ((0.0, 0.0, 0.0), [np.inf, 0.0])],
    ids=["nan", "inf-zero-control"],
)
def test_non_finite_amplitudes_are_invalid_and_never_cached(h, amplitudes):
    # A NaN center never equals a cached one, so unchecked each call would
    # cache one more; an infinite amplitude at a center spacing h >= 1 (a
    # zero control's included) would make numpy warn on its offset inf - inf.
    s = xz_scenario("ad")
    evaluator = ScenarioEvaluator(SteeringScenario(s.rho, s.x1, s.x2, s.drift, ControlHamiltonian(h)))
    evaluator.pulse_value(0.14, [0.0, 1.0])
    tables = lindblad._slot_tables(
        evaluator.drift_generator.tobytes(), evaluator.control_generator.tobytes(), 0.14
    )
    cached = set(tables._built[0])
    for _ in range(5):
        for method in (evaluator.pulse_value, evaluator.pulse_value_and_gradient):
            with pytest.raises(InvalidEffectError):
                method(0.14, amplitudes)
    assert set(tables._built[0]) == cached


def test_non_cp_drift_is_reported_as_an_internal_inconsistency():
    # complete positivity of a user-supplied generator is not checked: this
    # one amplifies the Bloch components, so the transported effect leaves
    # the effect set
    s = xz_scenario("ad")
    grow = SteeringScenario(
        s.rho, s.x1, s.x2, DriftGenerator(np.diag([0.0, 1.0, 1.0, 1.0])), s.control
    )
    with pytest.raises(InternalConsistencyError):
        steering_robustness(grow, PulseSequence.zero(4, 1.0))


def test_public_wrappers_build_one_evaluator_per_scenario(resource_map_calls):
    calls = resource_map_calls
    s = xz_scenario("ad")
    pulses = [PulseSequence(0.1, (float(k), -1.0, 2.0)) for k in range(10)]
    values = [steering_robustness(s, p) for p in pulses]
    assert len(calls) == 1
    value, grad = steering_value_and_gradient(s, pulses[3])
    assert len(calls) == 1
    # the shared evaluator gives what a fresh one gives, bit for bit
    fresh = ScenarioEvaluator(s)
    assert values == [fresh.pulse_value(p.dt, p.amplitudes) for p in pulses]
    expected = fresh.pulse_value_and_gradient(pulses[3].dt, pulses[3].amplitudes)
    assert value == expected[0] and grad.tobytes() == expected[1].tobytes()
    # another scenario gets its own evaluator (the fresh one above was the
    # second resource map)
    steering_robustness(xz_scenario("ad"), pulses[0])
    assert len(calls) == 3


def test_shared_evaluator_dies_with_its_scenario():
    s = xz_scenario("dp")
    steering_robustness(s, PulseSequence.zero(4, 1.0))
    alive = weakref.ref(s)
    del s
    gc.collect()
    assert alive() is None
