"""Transfer-matrix dynamics: generators, propagation, and exact derivatives."""

import pickle
import sys
import threading

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (
    PROPERTY_SETTINGS,
    ad_transfer,
    choi_matrix,
    controls,
    dp_transfer,
    drifts,
    is_unital,
)
from steerctl import (
    ControlHamiltonian,
    DriftGenerator,
    PulseSequence,
    control_matrix,
    pauli_transfer_matrix,
    propagate,
    propagate_schrodinger,
    propagate_with_jacobian,
)
from steerctl.lindblad import (
    _TAYLOR_DEGREE,
    _THETA,
    _SlotPolynomial,
    _scan,
    _slot_blocks,
    _slot_polynomial,
    _slot_scans,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = [np.eye(2, dtype=complex), SX, SY, SZ]


def random_pulse(rng, m=5, T=1.3):
    return PulseSequence(T / m, tuple(rng.uniform(-3.0, 3.0, size=m)))


def apply_heisenberg(transfer, mat):
    coeffs = np.array([np.trace(p @ mat) for p in PAULIS])
    out = transfer @ coeffs
    return 0.5 * sum(c * p for c, p in zip(out, PAULIS))


def parent_drift_matrix(kind, gm):
    """The tag switch that rebuilt a built-in generator on every call."""
    if kind == "amplitude_damping":
        return np.array(
            [
                [0.0, 0.0, 0.0, -2.0 * gm],
                [0.0, -gm, 0.0, 0.0],
                [0.0, 0.0, -gm, 0.0],
                [0.0, 0.0, 0.0, -2.0 * gm],
            ]
        )
    return np.diag([0.0, -2.0 * gm, 0.0, -2.0 * gm])


#: Rates from zero through the subnormals up to 1e300, plus fixed edge values.
RATES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 0.1, 0.37, 1.0, 1e300]),
    st.floats(min_value=0.0, max_value=1e300),
)


def test_drift_generator_validation():
    with pytest.raises(ValueError):
        DriftGenerator.amplitude_damping(-0.1)
    with pytest.raises(ValueError):
        DriftGenerator(np.ones((4, 4)))  # identity direction not annihilated
    with pytest.raises(ValueError):
        DriftGenerator(np.ones((3, 3)))
    mat = np.zeros((4, 4))
    mat[1, 2] = 1.0
    gen = DriftGenerator(mat)
    assert np.array_equal(gen.matrix, mat)
    assert not gen.matrix.flags.writeable
    mat[1, 2] = 2.0  # the generator holds its own copy
    assert gen.matrix[1, 2] == 1.0


@settings(**PROPERTY_SETTINGS)
@given(kind=st.sampled_from(["amplitude_damping", "dephasing"]), gamma=RATES)
def test_built_in_drifts_match_the_parent_switch_bit_for_bit(kind, gamma):
    got = getattr(DriftGenerator, kind)(gamma).matrix
    assert got.tobytes() == parent_drift_matrix(kind, gamma).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [(0, 0), (3, 0), (0, 3), (2, 2)])
def test_non_finite_generators_are_rejected(bad, entry):
    mat = np.zeros((4, 4))
    mat[entry] = bad
    with pytest.raises(ValueError):
        DriftGenerator(mat)


@pytest.mark.parametrize("build", [DriftGenerator.amplitude_damping, DriftGenerator.dephasing])
@pytest.mark.parametrize("gamma", [np.nan, np.inf, 1e308])
def test_rates_without_a_finite_generator_are_rejected(build, gamma):
    # 1e308 is a finite rate, but -2 * 1e308 overflows to -inf.
    with pytest.raises(ValueError):
        build(gamma)


@pytest.mark.parametrize(
    "gen",
    [
        DriftGenerator.amplitude_damping(0.0),
        DriftGenerator.dephasing(0.1),
        DriftGenerator(np.diag([0.0, -0.5, -0.25, -1.0])),
    ],
    ids=["ad-0", "dp", "custom"],
)
def test_matrix_is_read_only_and_survives_pickling(gen):
    with pytest.raises(ValueError):
        gen.matrix[1, 1] = 0.0
    copy = pickle.loads(pickle.dumps(gen))
    assert copy.matrix.tobytes() == gen.matrix.tobytes()
    assert not copy.matrix.flags.writeable


def test_drift_matrices_match_explicit_lindblad_adjoints():
    gamma = 0.37
    lower = np.array([[0, 0], [1, 0]], dtype=complex)
    number = lower.conj().T @ lower
    ad = pauli_transfer_matrix(
        lambda a: 2.0 * gamma * (lower.conj().T @ a @ lower - 0.5 * (number @ a + a @ number))
    )
    assert np.allclose(ad, DriftGenerator.amplitude_damping(gamma).matrix, atol=1e-14)
    dp = pauli_transfer_matrix(lambda a: gamma * (SY @ a @ SY - a))
    assert np.allclose(dp, DriftGenerator.dephasing(gamma).matrix, atol=1e-14)


def test_control_matrix_is_a_bloch_rotation_generator():
    k = control_matrix(ControlHamiltonian((0.0, 1.0, 1.0)))
    expected = np.array(
        [
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 2.0, -2.0],
            [0.0, -2.0, 0.0, 0.0],
            [0.0, 2.0, 0.0, 0.0],
        ]
    )
    assert np.allclose(k, expected, atol=1e-14)
    # generic Hamiltonian: zero border, antisymmetric Bloch block
    k2 = control_matrix(ControlHamiltonian((0.4, -1.2, 0.7)))
    assert np.allclose(k2[0, :], 0.0, atol=1e-14)
    assert np.allclose(k2[:, 0], 0.0, atol=1e-14)
    assert np.allclose(k2[1:, 1:], -k2[1:, 1:].T, atol=1e-14)


#: Control fields from the stock strategy, or with components that probe
#: signed zeros, tiny and huge magnitudes.
extreme_controls = controls | st.builds(
    lambda h: ControlHamiltonian(tuple(h)),
    st.lists(
        st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300]) | st.floats(-1.5, 1.5),
        min_size=3,
        max_size=3,
    ),
)


@settings(**PROPERTY_SETTINGS)
@given(h=extreme_controls)
def test_control_matrix_is_the_commutator_transfer_matrix_bit_for_bit(h):
    # reference: the Pauli transfer matrix of A -> i[H, A], built by traces
    hm = h.h[0] * SX + h.h[1] * SY + h.h[2] * SZ
    expected = pauli_transfer_matrix(lambda a: 1j * (hm @ a - a @ hm))
    assert control_matrix(h).tobytes() == expected.tobytes()


def test_pulse_sequence_validation_and_zero():
    with pytest.raises(ValueError):
        PulseSequence(0.0, (1.0,))
    with pytest.raises(ValueError):
        PulseSequence(-0.1, (1.0,))
    with pytest.raises(ValueError):
        PulseSequence(0.1, ())
    p = PulseSequence.zero(4, 2.0)
    assert p.m == 4
    assert p.dt == pytest.approx(0.5)
    assert p.total_time == pytest.approx(2.0)
    assert p.amplitudes == (0.0, 0.0, 0.0, 0.0)
    assert np.array_equal(p.as_array(), np.zeros(4))
    # a fractional slot count names the field instead of failing untyped;
    # an integral float counts, as JSON Schema accepts it as an integer
    with pytest.raises(ValueError, match="^m must be an integer, got 2.5$"):
        PulseSequence.zero(2.5, 1.0)
    assert PulseSequence.zero(2.0, 1.0) == PulseSequence.zero(2, 1.0)


def test_zero_pulse_propagation_matches_closed_forms():
    h = ControlHamiltonian((0.0, 1.0, 1.0))
    for gamma, t in ((0.1, 2.8), (0.45, 0.6), (0.0, 1.0)):
        pulse = PulseSequence.zero(6, t)
        got_ad = propagate(DriftGenerator.amplitude_damping(gamma), h, pulse)
        assert np.allclose(got_ad, ad_transfer(gamma, t), atol=1e-12)
        got_dp = propagate(DriftGenerator.dephasing(gamma), h, pulse)
        assert np.allclose(got_dp, dp_transfer(gamma, t), atol=1e-12)


def test_zero_pulse_semigroup_property():
    h = ControlHamiltonian((1.0, 0.0, 0.0))
    g = DriftGenerator.amplitude_damping(0.23)
    half = propagate(g, h, PulseSequence.zero(3, 0.7))
    full = propagate(g, h, PulseSequence.zero(3, 1.4))
    assert np.allclose(half @ half, full, atol=1e-13)


def test_first_slot_acts_first():
    g = DriftGenerator.amplitude_damping(0.3)
    h = ControlHamiltonian((0.0, 0.0, 1.0))
    l0 = g.matrix
    k = control_matrix(h)
    dt = 0.4
    c1, c2 = 1.7, -0.9
    expected = scipy.linalg.expm(dt * (l0 + c1 * k)) @ scipy.linalg.expm(dt * (l0 + c2 * k))
    got = propagate(g, h, PulseSequence(dt, (c1, c2)))
    assert np.allclose(got, expected, atol=1e-13)


def test_schrodinger_is_the_transpose():
    rng = np.random.default_rng(31)
    h = ControlHamiltonian((0.3, 1.0, -0.5))
    for gamma_kind in (DriftGenerator.amplitude_damping(0.2), DriftGenerator.dephasing(0.15)):
        p = random_pulse(rng)
        heis = propagate(gamma_kind, h, p)
        schr = propagate_schrodinger(gamma_kind, h, p)
        assert np.allclose(schr, heis.T, atol=1e-12)


def test_state_observable_pairing_duality():
    # tr(evolved_state @ A) == tr(state @ evolved_A) on random matrices
    rng = np.random.default_rng(32)
    h = ControlHamiltonian((0.0, 1.0, 1.0))
    g = DriftGenerator.amplitude_damping(0.1)
    for _ in range(20):
        p = random_pulse(rng, m=4)
        heis = propagate(g, h, p)
        schr = propagate_schrodinger(g, h, p)
        state = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        state = state @ state.conj().T
        state /= np.trace(state).real
        obs = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        obs = 0.5 * (obs + obs.conj().T)
        lhs = np.trace(apply_heisenberg(schr, state) @ obs)
        rhs = np.trace(state @ apply_heisenberg(heis, obs))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_propagated_channels_are_unital_and_completely_positive():
    rng = np.random.default_rng(33)
    h = ControlHamiltonian((0.2, 0.8, -1.1))
    for _ in range(60):
        gamma = rng.uniform(0.0, 0.6)
        g = DriftGenerator.amplitude_damping(gamma) if rng.random() < 0.5 else DriftGenerator.dephasing(gamma)
        p = random_pulse(rng, m=3, T=float(rng.uniform(0.2, 2.5)))
        heis = propagate(g, h, p)
        assert is_unital(heis)
        choi = choi_matrix(propagate_schrodinger(g, h, p))
        assert np.linalg.eigvalsh(choi)[0] > -1e-10
        # trace preservation of the dual channel
        assert np.trace(choi).real == pytest.approx(2.0, abs=1e-10)


#: Kernel parity with scipy.linalg.expm on the program's slot stacks.
SLOT_ATOL = 1e-13

#: Slot length of a T = 2.8, m = 20 pulse, the benchmark's optimize setting.
SLOT_DT = 0.14

DRIFTS = {
    "ad": DriftGenerator.amplitude_damping(0.1),
    "dp": DriftGenerator.dephasing(0.1),
}


def augmented_slots(gens, dt, k):
    """The (m, 8, 8) stack [[G, dt*K], [0, G]] whose exponential carries dE/dc."""
    aug = np.zeros((len(gens), 8, 8))
    aug[:, :4, :4] = gens
    aug[:, 4:, 4:] = gens
    aug[:, :4, 4:] = dt * k
    return aug


def slot_stack(drift, amplitudes, dt, augmented, h=(0.0, 1.0, 1.0)):
    l0 = drift.matrix
    k = control_matrix(ControlHamiltonian(h))
    gens = dt * (l0[None] + np.asarray(amplitudes, dtype=float)[:, None, None] * k[None])
    return augmented_slots(gens, dt, k) if augmented else gens


def test_expm_at_the_defective_critical_amplitude():
    # Amplitude damping rotated about sigma_x: the y-z block of L0 + c*K has
    # eigenvalues -3g/2 +- sqrt(g^2/4 - 4c^2), which coalesce into a
    # defective pair at the critical amplitude.  Locate it by bisection on
    # whether the spectrum is real.
    drift = DriftGenerator.amplitude_damping(0.3)
    l0 = drift.matrix
    k = control_matrix(ControlHamiltonian((1.0, 0.0, 0.0)))

    def oscillates(c):
        return np.max(np.abs(np.linalg.eigvals(l0 + c * k).imag)) > 0.0

    lo, hi = 0.0, 1.0
    assert not oscillates(lo) and oscillates(hi)
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if oscillates(mid) else (mid, hi)
    critical = hi
    _, vectors = np.linalg.eig(l0 + critical * k)
    assert np.linalg.cond(vectors) > 1e6  # the eigenvectors nearly coincide
    for dt in (SLOT_DT, 20 * SLOT_DT):
        amplitudes = [critical, -critical]
        for c, block in zip(amplitudes, _slot_blocks(l0, k, dt, amplitudes)):
            value, deriv = scipy.linalg.expm_frechet(dt * (l0 + c * k), dt * k)
            assert np.max(np.abs(block[:4, :4] - value)) < SLOT_ATOL
            assert np.max(np.abs(block[:4, 4:] - deriv)) < SLOT_ATOL


@pytest.mark.parametrize("t", [0.5, 2.6, 10.0])
@pytest.mark.parametrize("drift", sorted(DRIFTS))
def test_drift_window_matches_a_40_digit_exponential(drift, t):
    # The landscape's drift window is the zero-amplitude slot of length t.
    l0 = DRIFTS[drift].matrix
    k = control_matrix(ControlHamiltonian((0.0, 1.0, 1.0)))
    window = _slot_blocks(l0, k, t, [0.0])[0, :4, :4]
    with mpmath.workdps(40):
        exact = mpmath.expm(mpmath.matrix((t * l0).tolist()))
        assert np.max(np.abs(window - np.array(exact.tolist(), dtype=float))) < SLOT_ATOL


def test_taylor_degree_meets_double_precision_backward_error_at_theta():
    # Al-Mohy and Higham (2011): for ||A||_1 <= theta the degree-m Taylor
    # polynomial is exp(A + dA) with ||dA|| / ||A|| at most
    # sum_{k>m} |c_k| theta^(k-1), where sum_k c_k x^k = log(exp(-x) T_m(x)).
    # The c_k come from the power-series logarithm of T_m, whose nearest
    # zero lies beyond 2 theta, so 400 terms leave a tail far below 2^-53.
    m, terms = _TAYLOR_DEGREE, 400
    with mpmath.workdps(50):
        t = [1 / mpmath.factorial(k) if k <= m else mpmath.mpf(0) for k in range(terms + 1)]
        c = [mpmath.mpf(0)] * (terms + 1)
        for k in range(1, terms + 1):
            c[k] = t[k] - mpmath.fsum(j * c[j] * t[k - j] for j in range(1, k)) / k
        # log T_m(x) = x + O(x^(m+1)), so exp(-x) cancels every term up to m.
        assert c[1] == 1 and all(abs(v) < 1e-45 for v in c[2 : m + 1])

        def bound(theta):
            return mpmath.fsum(abs(c[k]) * theta ** (k - 1) for k in range(m + 1, terms + 1))

        theta = mpmath.mpf(_THETA)
        assert abs(c[terms]) * theta ** (terms - 1) < 1e-30 * 2.0**-53
        assert bound(theta) <= 2.0**-53
        # theta is the largest such norm to nine digits, so no squaring is wasted.
        assert bound(theta * (1 + 1e-9)) > 2.0**-53


def test_propagator_jacobian_matches_finite_differences():
    rng = np.random.default_rng(36)
    g = DriftGenerator.amplitude_damping(0.12)
    h = ControlHamiltonian((0.0, 1.0, 1.0))
    m, T = 4, 1.1
    amps = rng.uniform(-2.0, 2.0, size=m)
    jac = propagate_with_jacobian(g, h, PulseSequence(T / m, tuple(amps)))[1]
    step = 1e-6
    for k in range(m):
        bumped = amps.copy()
        bumped[k] += step
        plus = propagate(g, h, PulseSequence(T / m, tuple(bumped)))
        bumped[k] -= 2 * step
        minus = propagate(g, h, PulseSequence(T / m, tuple(bumped)))
        numeric = (plus - minus) / (2 * step)
        assert np.max(np.abs(jac[k] - numeric)) < 1e-7


def test_propagate_with_jacobian_is_consistent():
    rng = np.random.default_rng(37)
    g = DriftGenerator.dephasing(0.2)
    h = ControlHamiltonian((0.5, 0.5, 0.0))
    p = random_pulse(rng, m=6)
    total, jac = propagate_with_jacobian(g, h, p)
    assert np.array_equal(total, propagate(g, h, p))
    assert len(jac) == p.m


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8, 16, 17, 20, 32, 33])
def test_stacked_scan_matches_separate_scans_bit_for_bit(m):
    rng = np.random.default_rng(38)
    g = DriftGenerator.amplitude_damping(0.1)
    h = ControlHamiltonian((0.0, 1.0, 1.0))
    l0, k, dt = g.matrix, control_matrix(h), 1.4 / m
    amps = tuple(rng.uniform(-15.0, 15.0, size=m))
    prefixes, frechet, suffixes = _slot_scans(l0, k, dt, amps)
    blocks = _slot_blocks(l0, k, dt, amps)
    factors, ref_frechet = blocks[:, :4, :4], blocks[:, :4, 4:]

    def prefixes_of(seq):
        out = np.empty((m + 1, 4, 4))
        out[1:] = seq
        return _scan(out)

    forward = prefixes_of(factors)
    backward = prefixes_of(factors[::-1].transpose(0, 2, 1))
    assert frechet.tobytes() == ref_frechet.tobytes()
    assert prefixes.tobytes() == forward.tobytes()
    # S_k = E_{k+1}...E_m is the transpose of the product of the last m - k
    # reversed, transposed factors.
    ref_suffixes = backward[m - 1 :: -1].transpose(0, 2, 1)
    assert suffixes.shape == (m, 4, 4)
    assert suffixes.tobytes() == ref_suffixes.tobytes()
    total, jac = propagate_with_jacobian(g, h, PulseSequence(dt, amps))
    assert total.tobytes() == forward[-1].tobytes()
    assert len(jac) == m
    for j in range(m):
        assert jac[j].tobytes() == (forward[j] @ ref_frechet[j] @ ref_suffixes[j]).tobytes()


# --- slot blocks: the Taylor approximant as a polynomial in the amplitude ---

#: Amplitudes anywhere in the [-15, 15] box, its edges drawn on their own.
box_amplitudes = st.sampled_from([-15.0, 15.0]) | st.floats(-15.0, 15.0)

#: Slot lengths from a fine m = 100 grid up to a single slot of T = 2.8.
slot_lengths = st.sampled_from([SLOT_DT, 20 * SLOT_DT]) | st.floats(0.01, 2.8)


@settings(**PROPERTY_SETTINGS)
@given(
    drift=drifts,
    h=controls,
    dt=slot_lengths,
    amplitudes=st.lists(box_amplitudes, min_size=1, max_size=20),
    data=st.data(),
)
def test_slot_block_does_not_depend_on_its_pulse(drift, h, dt, amplitudes, data):
    k = control_matrix(h)
    blocks = _slot_blocks(drift.matrix, k, dt, amplitudes)
    j = data.draw(st.integers(0, len(amplitudes) - 1))
    alone = _slot_blocks(drift.matrix, k, dt, [amplitudes[j]])
    assert alone.shape == (1, 8, 8)
    assert alone[0].tobytes() == blocks[j].tobytes()
    # and inside another pulse, at another position
    other = data.draw(st.lists(box_amplitudes, min_size=1, max_size=20))
    at = data.draw(st.integers(0, len(other)))
    mixed = _slot_blocks(drift.matrix, k, dt, other[:at] + [amplitudes[j]] + other[at:])
    assert mixed[at].tobytes() == blocks[j].tobytes()


@settings(**PROPERTY_SETTINGS)
@given(
    drift=drifts,
    h=controls,
    dt=slot_lengths,
    amplitudes=st.lists(box_amplitudes, min_size=1, max_size=20),
)
def test_slot_factors_keep_an_exact_unit_first_column(drift, h, dt, amplitudes):
    # Both built-in drifts are unital (zero first column); dephasing also
    # has a zero first row.  The control generator has both.
    blocks = _slot_blocks(drift.matrix, control_matrix(h), dt, amplitudes)
    factors, frechet = blocks[:, :4, :4], blocks[:, :4, 4:]
    unit = np.eye(4)[0]
    assert (factors[:, :, 0] == unit).all()
    assert (frechet[:, :, 0] == 0.0).all()
    if not drift.matrix[0].any():
        assert (factors[:, 0, :] == unit).all()
        assert (frechet[:, 0, :] == 0.0).all()


@pytest.mark.parametrize("m", [1, 20])
@pytest.mark.parametrize("drift", sorted(DRIFTS))
def test_slot_blocks_match_scipy(drift, m):
    rng = np.random.default_rng(50 + m)
    k = control_matrix(ControlHamiltonian((0.0, 1.0, 1.0)))
    l0 = DRIFTS[drift].matrix
    amplitudes = np.concatenate([[15.0, -15.0, 0.0], rng.uniform(-15.0, 15.0, 37)])
    for start in range(0, amplitudes.size, m):
        amps = amplitudes[start:start + m]
        blocks = _slot_blocks(l0, k, SLOT_DT, amps)
        assert blocks.shape == (len(amps), 8, 8)
        for c, block in zip(amps, blocks):
            value, deriv = scipy.linalg.expm_frechet(SLOT_DT * (l0 + c * k), SLOT_DT * k)
            assert np.max(np.abs(block[:4, :4] - value)) < SLOT_ATOL
            assert np.max(np.abs(block[:4, 4:] - deriv)) < SLOT_ATOL


@pytest.mark.parametrize("dt", [SLOT_DT, 1.0, 20 * SLOT_DT])
@pytest.mark.parametrize("drift", sorted(DRIFTS))
def test_slot_blocks_match_a_40_digit_exponential(drift, dt):
    # At dt = 20 * SLOT_DT the box edge's Frechet block squares seven times.
    k = control_matrix(ControlHamiltonian((0.0, 1.0, 1.0)))
    amplitudes = [15.0, -15.0, 0.0, 7.3]
    blocks = _slot_blocks(DRIFTS[drift].matrix, k, dt, amplitudes)
    with mpmath.workdps(40):
        for gen, block in zip(slot_stack(DRIFTS[drift], amplitudes, dt, True), blocks):
            exact = mpmath.expm(mpmath.matrix(gen.tolist()))
            assert np.max(np.abs(block - np.array(exact.tolist(), dtype=float))) < SLOT_ATOL


def norm_rule_scales(drift, h, dt, amplitudes):
    """expm's scale of each slot's generator block, from its 1-norm."""
    norms = np.abs(slot_stack(drift, amplitudes, dt, True, h.h)).sum(axis=1).max(axis=1)
    return np.ceil(np.log2(np.maximum(norms / _THETA, 1.0))).astype(int)


@settings(**PROPERTY_SETTINGS)
@given(
    drift=drifts | st.builds(DriftGenerator.dephasing, st.floats(0.0, 50.0)),
    h=controls,
    dt=slot_lengths,
    amplitudes=st.lists(box_amplitudes | st.floats(-1e6, 1e6), min_size=1, max_size=20),
)
def test_slot_scales_follow_the_norm_rule(drift, h, dt, amplitudes):
    poly = _slot_polynomial(drift.matrix.tobytes(), control_matrix(h).tobytes(), dt)
    got = poly.scales(np.array(amplitudes))
    assert got.tolist() == norm_rule_scales(drift, h, dt, amplitudes).tolist()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "drift, h, dt, amplitudes, min_scale",
    [
        # zero control: no amplitude dependence, a huge amplitude included
        (DRIFTS["ad"], (0.0, 0.0, 0.0), SLOT_DT, [15.0, -15.0, 0.0, 1e300], 0),
        # the diagonal 2 * gamma * dt = 2.8 exceeds theta at every amplitude
        (DriftGenerator.dephasing(10.0), (0.0, 1.0, 1.0), SLOT_DT, [15.0, -15.0, 0.0], 1),
        # the whole horizon in one slot, squared three to seven times
        (DRIFTS["dp"], (0.0, 1.0, 1.0), 20 * SLOT_DT, [15.0, -15.0, 0.0], 3),
    ],
    ids=["zero-control", "scaled-drift", "one-slot"],
)
def test_slot_blocks_at_the_edges(drift, h, dt, amplitudes, min_scale):
    control = ControlHamiltonian(h)
    k = control_matrix(control)
    poly = _slot_polynomial(drift.matrix.tobytes(), k.tobytes(), dt)
    scales = poly.scales(np.array(amplitudes))
    assert scales.tolist() == norm_rule_scales(drift, control, dt, amplitudes).tolist()
    assert scales.min() == min_scale
    assert poly.scales(np.array([-1e300, -1.0, 1.0, 1e300])).min() >= min_scale
    blocks = _slot_blocks(drift.matrix, k, dt, amplitudes)
    with mpmath.workdps(40):
        for gen, block in zip(slot_stack(drift, amplitudes, dt, True, h), blocks):
            exact = mpmath.expm(mpmath.matrix(gen.tolist()))
            assert np.max(np.abs(block - np.array(exact.tolist(), dtype=float))) < SLOT_ATOL
    # m = 1: the public propagators take the same block
    for c, block in zip(amplitudes, blocks):
        pulse = PulseSequence(dt, (c,))
        total, (jac,) = propagate_with_jacobian(drift, control, pulse)
        assert total.tobytes() == propagate(drift, control, pulse).tobytes()
        assert total.tobytes() == np.ascontiguousarray(block[:4, :4]).tobytes()
        assert jac.tobytes() == np.ascontiguousarray(block[:4, 4:]).tobytes()


def test_concurrent_first_uses_of_scales_agree_with_a_serial_build():
    # Each thread's amplitudes need scales nobody has built yet, so the
    # threads extend the shared coefficient table at the same time; a lost
    # or misplaced scale would hand some slot the wrong coefficients.
    l0, k = DRIFTS["ad"].matrix, control_matrix(ControlHamiltonian((0.0, 1.0, 1.0)))
    pulses = [np.array([c, -c]) * 2.0**j for j in range(4) for c in (1.0, 3.0, 7.0, 15.0)]
    reference = [_SlotPolynomial(l0, k, SLOT_DT).blocks(p) for p in pulses]
    for _ in range(5):
        shared = _SlotPolynomial(l0, k, SLOT_DT)
        results = [None] * len(pulses)

        def work(i):
            results[i] = shared.blocks(pulses[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(pulses))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got, ref in zip(results, reference):
            assert got.tobytes() == ref.tobytes()
