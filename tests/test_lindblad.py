"""Transfer-matrix dynamics: generators, propagation, and exact derivatives."""

import pickle

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
    is_unital,
)
from steerctl import (
    ControlHamiltonian,
    DriftGenerator,
    PulseSequence,
    control_matrix,
    expm,
    expm_frechet,
    pauli_transfer_matrix,
    propagate,
    propagate_schrodinger,
    propagate_with_jacobian,
)
from steerctl.lindblad import (
    _TAYLOR_DEGREE,
    _THETA,
    _prefixes,
    _slot_generators,
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


@pytest.mark.parametrize("augmented", [False, True], ids=["4x4", "8x8"])
@pytest.mark.parametrize("m", [1, 20])
@pytest.mark.parametrize("drift", sorted(DRIFTS))
def test_expm_matches_scipy_on_slot_stacks(drift, m, augmented):
    rng = np.random.default_rng(40 + m)
    # both box edges, then uniform draws inside the box
    amplitudes = np.concatenate([[15.0, -15.0], rng.uniform(-15.0, 15.0, 40)])
    for start in range(0, amplitudes.size, m):
        stack = slot_stack(DRIFTS[drift], amplitudes[start:start + m], SLOT_DT, augmented)
        got = expm(stack)
        assert got.shape == stack.shape
        assert np.max(np.abs(got - scipy.linalg.expm(stack))) < SLOT_ATOL


@pytest.mark.parametrize("drift", sorted(DRIFTS))
def test_expm_squaring_matches_the_slot_product(drift):
    # One slot spanning the whole horizon at the box edge has 1-norm ~170, so
    # the kernel squares five times.  The product of twenty slot-length
    # exponentials is the same matrix, but a float reference for it rounds
    # at SLOT_ATOL's scale and differently on each BLAS kernel; a 40-digit
    # exponential of the very matrix the kernel gets is exact at that scale.
    with mpmath.workdps(40):
        for amplitude in (15.0, -15.0):
            for augmented in (False, True):
                stack = slot_stack(DRIFTS[drift], [amplitude], 20 * SLOT_DT, augmented)
                exact = mpmath.expm(mpmath.matrix(stack[0].tolist()))
                reference = np.array(exact.tolist(), dtype=float)
                assert np.max(np.abs(expm(stack)[0] - reference)) < SLOT_ATOL


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
        stack = slot_stack(drift, [critical, -critical], dt, False, h=(1.0, 0.0, 0.0))
        for a in (stack, augmented_slots(stack, dt, k)):
            assert np.max(np.abs(expm(a) - scipy.linalg.expm(a))) < SLOT_ATOL


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


#: Stacks of three 4x4 matrices with entries up to 8: 1-norms up to 32, so
#: the kernel squares up to four times.
small_stacks = arrays(float, (3, 4, 4), elements=st.floats(-8.0, 8.0))


@settings(**PROPERTY_SETTINGS)
@given(a=small_stacks, e=arrays(float, (4, 4), elements=st.floats(-8.0, 8.0)), row=st.booleans())
def test_zero_first_column_or_row_gives_an_exact_unit_one(a, e, row):
    # A zero first column (row) of A and E stays zero in every power of A
    # and of the Frechet block, so exp(A) has exactly the identity's first
    # column (row) and the derivative along E a zero one, on any BLAS
    # kernel.  Unital drifts have a zero first column, dephasing also a
    # zero first row.
    first = (lambda mat: mat[..., 0, :]) if row else (lambda mat: mat[..., :, 0])
    first(a)[...] = 0.0
    first(e)[...] = 0.0
    unit = np.eye(4)[0]
    assert (first(expm(a)) == unit).all()
    value, deriv = expm_frechet(a, e)
    assert (first(value) == unit).all()
    assert (first(deriv) == 0.0).all()


def test_expm_frechet_against_scipy():
    rng = np.random.default_rng(34)
    for _ in range(20):
        a = rng.normal(size=(4, 4))
        e = rng.normal(size=(4, 4))
        val, deriv = expm_frechet(a, e)
        ref_val, ref_deriv = scipy.linalg.expm_frechet(a, e)
        assert np.allclose(val, ref_val, atol=1e-12)
        assert np.allclose(deriv, ref_deriv, atol=1e-11)
    # real slot generators at the box edge, differentiated along dt*K
    k = control_matrix(ControlHamiltonian((0.0, 1.0, 1.0)))
    for drift in DRIFTS.values():
        for a in slot_stack(drift, [15.0, -15.0, 0.0, 7.3], SLOT_DT, False):
            val, deriv = expm_frechet(a, SLOT_DT * k)
            ref_val, ref_deriv = scipy.linalg.expm_frechet(a, SLOT_DT * k)
            assert np.max(np.abs(val - ref_val)) < SLOT_ATOL
            assert np.max(np.abs(deriv - ref_deriv)) < SLOT_ATOL


@pytest.mark.parametrize("drift", sorted(DRIFTS))
def test_stacked_expm_frechet_is_per_matrix_bit_for_bit(drift):
    rng = np.random.default_rng(38)
    k = control_matrix(ControlHamiltonian((0.0, 1.0, 1.0)))
    amplitudes = np.concatenate([[15.0, -15.0], rng.uniform(-15.0, 15.0, 18)])
    gens = slot_stack(DRIFTS[drift], amplitudes, SLOT_DT, False)
    # one direction broadcast over the stack: the slot Frechet derivatives,
    # equal to the blocks of the augmented stack built by hand
    values, derivs = expm_frechet(gens, SLOT_DT * k)
    aug = expm(augmented_slots(gens, SLOT_DT, k))
    assert values.tobytes() == aug[:, :4, :4].tobytes()
    assert derivs.tobytes() == aug[:, :4, 4:].tobytes()
    # and a direction per matrix
    dirs = rng.normal(size=gens.shape)
    values, derivs = expm_frechet(gens, dirs)
    for a, e, val, deriv in zip(gens, dirs, values, derivs):
        ref_val, ref_deriv = expm_frechet(a, e)
        assert val.tobytes() == ref_val.tobytes()
        assert deriv.tobytes() == ref_deriv.tobytes()


def test_expm_frechet_against_finite_differences():
    rng = np.random.default_rng(35)
    a = rng.normal(size=(4, 4))
    e = rng.normal(size=(4, 4))
    _, deriv = expm_frechet(a, e)
    step = 1e-6
    numeric = (scipy.linalg.expm(a + step * e) - scipy.linalg.expm(a - step * e)) / (2 * step)
    assert np.allclose(deriv, numeric, atol=1e-6)


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
    factors, ref_frechet = expm_frechet(_slot_generators(l0, k, dt, amps), dt * k)
    forward = _prefixes(factors)
    backward = _prefixes(factors[::-1].transpose(0, 2, 1))
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
