"""Transfer-matrix dynamics: generators, propagation, and exact derivatives."""

import pickle
import sys
import threading
import tracemalloc
from fractions import Fraction

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
from steerctl import lindblad
from steerctl.lindblad import (
    _MAX_SQUARINGS,
    _RHO,
    _TABLE_TERMS,
    _TAYLOR_DEGREE,
    _THETA,
    _scan,
    _slot_blocks,
    _slot_factors,
    _slot_scans,
    _slot_tables,
    _SlotTables,
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
    for amplitudes in [(1.0, np.inf), (np.nan,)]:
        with pytest.raises(ValueError, match="^pulse amplitudes must be finite$"):
            PulseSequence(0.1, amplitudes)
    for m in (0, -2):
        with pytest.raises(ValueError, match="^m must be >= 1$"):
            PulseSequence.zero(m, 1.0)
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


@pytest.mark.parametrize("h", [(0.0, np.nan, 1.0), (-np.inf, 0.0, 0.0)], ids=["nan", "-inf"])
def test_non_finite_control_hamiltonians_are_rejected(h):
    with pytest.raises(ValueError, match=r"^h must be a finite 3-vector"):
        ControlHamiltonian(h)


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


@pytest.mark.blas_kernel_independent
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
            assert np.max(np.abs(block[:, :4] - value)) < SLOT_ATOL
            assert np.max(np.abs(block[:, 4:] - deriv)) < SLOT_ATOL


@pytest.mark.blas_kernel_independent
@pytest.mark.parametrize("t", [0.5, 2.6, 10.0])
@pytest.mark.parametrize("drift", sorted(DRIFTS))
def test_drift_window_matches_a_40_digit_exponential(drift, t):
    # The landscape's drift window is the zero-amplitude slot of length t.
    l0 = DRIFTS[drift].matrix
    k = control_matrix(ControlHamiltonian((0.0, 1.0, 1.0)))
    window = _slot_blocks(l0, k, t, [0.0])[0, :, :4]
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


def test_table_terms_truncate_below_double_precision_at_rho():
    # A unital positive map contracts the norm |a0| + |a| of effects, so
    # for a CPTP drift ||exp(t*A)|| <= 1 and the Dyson series bounds the
    # table blocks by ||C_i|| <= ||h*dt*K||**i / i!, with ||h*dt*K|| <= 2 rho
    # (the 1-norm bounds that norm of a rotation generator) and |u| <= 1/2.
    # The terms dropped from E, and from F in units of ||dt*K||_1, then sum
    # to at most sum_{i>=D} rho**i / i!.
    d = _TABLE_TERMS
    with mpmath.workdps(40):
        rho, u, step = mpmath.mpf(_RHO), mpmath.mpf(0.5), 2 * mpmath.mpf(_RHO)

        def tail_e(terms):
            return mpmath.nsum(lambda i: u**i * step**i / mpmath.factorial(i), [terms, mpmath.inf])

        tail_f = mpmath.nsum(
            lambda i: (i + 1) * u**i * step ** (i + 1) / mpmath.factorial(i + 1) / step,
            [d, mpmath.inf],
        )
        assert tail_e(d) == mpmath.nsum(lambda i: rho**i / mpmath.factorial(i), [d, mpmath.inf])
        assert tail_e(d) <= 2.0**-53 and tail_f <= 2.0**-53
        # one term fewer would not do, so no term is wasted
        assert tail_e(d - 1) > 2.0**-53


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


@pytest.mark.blas_kernel_independent
def test_propagate_with_jacobian_is_consistent():
    rng = np.random.default_rng(37)
    g = DriftGenerator.dephasing(0.2)
    h = ControlHamiltonian((0.5, 0.5, 0.0))
    p = random_pulse(rng, m=6)
    total, jac = propagate_with_jacobian(g, h, p)
    assert np.array_equal(total, propagate(g, h, p))
    assert len(jac) == p.m


@pytest.mark.blas_kernel_independent
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8, 16, 17, 20, 32, 33])
def test_stacked_scan_matches_separate_scans_bit_for_bit(m):
    rng = np.random.default_rng(38)
    g = DriftGenerator.amplitude_damping(0.1)
    h = ControlHamiltonian((0.0, 1.0, 1.0))
    l0, k, dt = g.matrix, control_matrix(h), 1.4 / m
    amps = tuple(rng.uniform(-15.0, 15.0, size=m))
    prefixes, frechet, suffixes = _slot_scans(l0, k, dt, amps)
    blocks = _slot_blocks(l0, k, dt, amps)
    factors, ref_frechet = blocks[..., :4], blocks[..., 4:]

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


@pytest.mark.blas_kernel_independent
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
    assert alone.shape == (1, 4, 8)
    assert alone[0].tobytes() == blocks[j].tobytes()
    # and inside another pulse, at another position
    other = data.draw(st.lists(box_amplitudes, min_size=1, max_size=20))
    at = data.draw(st.integers(0, len(other)))
    mixed = _slot_blocks(drift.matrix, k, dt, other[:at] + [amplitudes[j]] + other[at:])
    assert mixed[at].tobytes() == blocks[j].tobytes()


@pytest.mark.blas_kernel_independent
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
    factors, frechet = blocks[..., :4], blocks[..., 4:]
    unit = np.eye(4)[0]
    assert (factors[:, :, 0] == unit).all()
    assert (frechet[:, :, 0] == 0.0).all()
    if not drift.matrix[0].any():
        assert (factors[:, 0, :] == unit).all()
        assert (frechet[:, 0, :] == 0.0).all()


@pytest.mark.blas_kernel_independent
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
        assert blocks.shape == (len(amps), 4, 8)
        for c, block in zip(amps, blocks):
            value, deriv = scipy.linalg.expm_frechet(SLOT_DT * (l0 + c * k), SLOT_DT * k)
            assert np.max(np.abs(block[:, :4] - value)) < SLOT_ATOL
            assert np.max(np.abs(block[:, 4:] - deriv)) < SLOT_ATOL


def exact_slot_blocks(drift, amplitudes, dt, h=(0.0, 1.0, 1.0)):
    """[E | F] of each amplitude from a 40-digit exponential of its 8x8 block."""
    with mpmath.workdps(40):
        return [
            np.array(mpmath.expm(mpmath.matrix(gen.tolist())).tolist(), dtype=float)[:4]
            for gen in slot_stack(drift, amplitudes, dt, True, h)
        ]


@pytest.mark.blas_kernel_independent
@pytest.mark.parametrize("dt", [SLOT_DT, 1.0, 20 * SLOT_DT])
@pytest.mark.parametrize("drift", sorted(DRIFTS))
def test_slot_blocks_match_a_40_digit_exponential(drift, dt):
    # At dt = 20 * SLOT_DT the box edge's center table comes from an
    # exponential squared seven times.
    k = control_matrix(ControlHamiltonian((0.0, 1.0, 1.0)))
    amplitudes = [15.0, -15.0, 0.0, 7.3]
    blocks = _slot_blocks(DRIFTS[drift].matrix, k, dt, amplitudes)
    for exact, block in zip(exact_slot_blocks(DRIFTS[drift], amplitudes, dt), blocks):
        assert np.max(np.abs(block - exact)) < SLOT_ATOL


@pytest.mark.blas_kernel_independent
@settings(**PROPERTY_SETTINGS)
@given(
    drift=drifts,
    h=extreme_controls,
    dt=slot_lengths,
    amplitudes=st.lists(box_amplitudes | st.floats(-1e6, 1e6), min_size=1, max_size=20),
)
def test_slot_centers_follow_the_spacing_rule(drift, h, dt, amplitudes):
    k = control_matrix(h)
    tables = _slot_tables(drift.matrix.tobytes(), k.tobytes(), dt)
    centers, scaled = tables.locate(np.array(amplitudes))
    u = scaled - centers
    norm = Fraction(np.abs(dt * k).sum(axis=0).max())
    if not norm:
        # a zero control: every amplitude takes the one center 0
        assert (centers == 0.0).all() and (u == 0.0).all()
        return
    # h is the largest power of two with (h/2) * ||dt*K||_1 <= rho
    spacing = Fraction(2) ** -tables._shift
    assert spacing / 2 * norm <= _RHO < spacing * norm
    for c, j, off in zip(amplitudes, centers.tolist(), u.tolist()):
        # c_j = j * h and u = c/h - j are exact, but for a u below the float
        # range, too small for any table term to see; |u| <= 1/2
        assert j == int(j)
        assert abs(Fraction(c) / spacing - j - Fraction(off)) <= Fraction(2) ** -1075
        assert abs(off) <= 0.5


@pytest.mark.blas_kernel_independent
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "drift, h, dt, amplitudes",
    [
        # zero control: no amplitude dependence, a huge amplitude included
        (DRIFTS["ad"], (0.0, 0.0, 0.0), SLOT_DT, [15.0, -15.0, 0.0, 1e300]),
        # the diagonal 2 * gamma * dt = 2.8 exceeds theta at every amplitude
        (DriftGenerator.dephasing(10.0), (0.0, 1.0, 1.0), SLOT_DT, [15.0, -15.0, 0.0]),
        # the whole horizon in one slot, squared three to seven times
        (DRIFTS["dp"], (0.0, 1.0, 1.0), 20 * SLOT_DT, [15.0, -15.0, 0.0]),
        # a subnormal control norm: the spacing h is near the float maximum
        (DRIFTS["ad"], (0.0, 0.0, 2.2e-309), SLOT_DT, [15.0, -15.0, 0.0, 1e300]),
    ],
    ids=["zero-control", "scaled-drift", "one-slot", "subnormal-control"],
)
def test_slot_blocks_at_the_edges(drift, h, dt, amplitudes):
    control = ControlHamiltonian(h)
    k = control_matrix(control)
    blocks = _slot_blocks(drift.matrix, k, dt, amplitudes)
    for exact, block in zip(exact_slot_blocks(drift, amplitudes, dt, h), blocks):
        assert np.max(np.abs(block - exact)) < SLOT_ATOL
    if not any(h):
        assert len(_slot_tables(drift.matrix.tobytes(), k.tobytes(), dt)._built[0]) == 1
    # m = 1: the public propagators take the same block
    for c, block in zip(amplitudes, blocks):
        pulse = PulseSequence(dt, (c,))
        total, (jac,) = propagate_with_jacobian(drift, control, pulse)
        assert total.tobytes() == propagate(drift, control, pulse).tobytes()
        assert total.tobytes() == np.ascontiguousarray(block[:, :4]).tobytes()
        assert jac.tobytes() == np.ascontiguousarray(block[:, 4:]).tobytes()


@pytest.mark.blas_kernel_independent
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dt", [SLOT_DT, 20 * SLOT_DT])
def test_unresolvable_amplitudes_give_nan_blocks_without_a_warning(dt):
    # Once |c| * ||dt*K||_1 passes theta_25 * 2**52 (about 1e16), a center's
    # exponential would need more squarings than a double has bits.
    l0, k = DRIFTS["ad"].matrix, control_matrix(ControlHamiltonian((0.0, 1.0, 1.0)))
    huge = [1e20, -1e200, 1e300, -1e300, 1.5e308, np.finfo(float).max]
    blocks = _slot_blocks(l0, k, dt, [15.0] + huge + [0.0])
    assert np.isfinite(blocks[[0, -1]]).all()
    assert np.isnan(blocks[1:-1]).all()
    # half that amplitude still resolves
    norm = np.abs(dt * k).sum(axis=0).max()
    edge = _THETA * 2.0**_MAX_SQUARINGS / norm / 2
    assert np.isfinite(_slot_blocks(l0, k, dt, [edge, -edge])).all()


@pytest.mark.blas_kernel_independent
@settings(**PROPERTY_SETTINGS)
@given(
    drift=drifts,
    h=controls,
    dt=st.floats(0.01, 2.8),
    j=st.integers(-40, 40),
    side=st.sampled_from([-1, 1]),
)
def test_slot_blocks_match_scipy_at_center_boundaries(drift, h, dt, j, side):
    # (j + 1/2) * h is the boundary between two centers' tables; one ulp to
    # either side the amplitude takes the other table, and both must give
    # the exponential and its derivative.
    k = control_matrix(h)
    tables = _slot_tables(drift.matrix.tobytes(), k.tobytes(), dt)
    boundary = np.ldexp(j + 0.5, -tables._shift) if k.any() else 0.0
    amplitudes = [boundary, np.nextafter(boundary, side * np.inf), boundary * side]
    blocks = _slot_blocks(drift.matrix, k, dt, amplitudes)
    for c, block in zip(amplitudes, blocks):
        value, deriv = scipy.linalg.expm_frechet(dt * (drift.matrix + c * k), dt * k)
        assert np.max(np.abs(block[:, :4] - value)) < SLOT_ATOL
        assert np.max(np.abs(block[:, 4:] - deriv)) < SLOT_ATOL


def dense_slot_tables(tables, centers):
    """The (n, D, 32) tables of _SlotTables._tables, from the whole bidiagonal matrix.

    The (D+1)-block bidiagonal matrix is built densely with np.kron, and
    its exponential is the same degree-25 Taylor polynomial with the same
    scale and squarings, on (4D+4, 4D+4) matrices; the table is block i of
    its top block row.  scipy.linalg.expm is no oracle here: its Pade
    approximant rounds differently, by up to 5e-14 in E at dt = 1.4 and 2.8
    with the stock drifts, well above the 1e-14 asked of _tables.
    """
    d = _TABLE_TERMS
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.ldexp(centers, -tables._shift) + 0.0
        gens = tables._dt * (tables._l0 + c[:, None, None] * tables._k)
        step = np.ldexp(tables._dt * tables._k, -tables._shift)
        big = np.kron(np.eye(d + 1), gens) + np.kron(np.eye(d + 1, k=1), step)
        norms = np.abs(big).sum(axis=1).max(axis=1)
        s = np.ceil(np.log2(np.maximum(norms / _THETA, 1.0)))
        ok = s <= _MAX_SQUARINGS
        s = np.where(ok, s, 0).astype(int)
        x = np.ldexp(big, -s[:, None, None])
        eye = np.eye(4 * d + 4)
        r = eye
        for j in range(_TAYLOR_DEGREE, 0, -1):
            r = eye + (x @ r) / j
        for squared in range(int(s.max(initial=0))):
            r = np.where((s > squared)[:, None, None], r @ r, r)
        blocks = r[:, :4].reshape(-1, 4, d + 1, 4).transpose(0, 2, 1, 3)
        derivs = np.ldexp(np.arange(1.0, d + 1)[:, None, None] * blocks[:, 1:], tables._shift)
        table = np.concatenate([blocks[:, :d], derivs], axis=3)
        table[~(ok & np.isfinite(table).all(axis=(1, 2, 3)))] = np.nan
    return table.reshape(-1, d, 32)


@pytest.mark.blas_kernel_independent
@settings(**PROPERTY_SETTINGS)
@given(
    drift=drifts,
    h=controls | st.just(ControlHamiltonian((0.0, 0.0, 0.0))),
    dt=slot_lengths,
    # j * 2**e: from no squaring to _MAX_SQUARINGS, and past it (a NaN table)
    centers=st.lists(
        st.builds(lambda j, e: float(j) * 2.0**e, st.integers(-64, 64), st.integers(0, 56)),
        min_size=1,
        max_size=8,
    ),
)
def test_slot_tables_match_the_dense_bidiagonal_exponential(drift, h, dt, centers):
    # _tables works on first block rows only; every Horner iterate and
    # every square of the bidiagonal matrix is upper block-Toeplitz, so it
    # must give the dense build's tables up to rounding, NaN rows included.
    tables = _SlotTables(drift.matrix, control_matrix(h), dt)
    centers = np.array(centers)
    got = tables._tables(centers)
    expected = dense_slot_tables(tables, centers)
    nan = np.isnan(expected).all(axis=(1, 2))
    assert (np.isnan(got).all(axis=(1, 2)) == nan).all()
    assert np.isfinite(got[~nan]).all()
    scale = np.abs(expected[~nan]).max(axis=(1, 2), initial=0.0)
    error = np.abs(got[~nan] - expected[~nan]).max(axis=(1, 2), initial=0.0)
    assert (error <= 1e-14 * scale).all()


def test_center_cache_is_bounded_and_keeps_the_bits(monkeypatch):
    l0, k = DRIFTS["ad"].matrix, control_matrix(ControlHamiltonian((0.0, 1.0, 1.0)))
    box = np.linspace(-15.0, 15.0, 7)
    pulses = [box + shift for shift in (0.0, 0.3, 40.0, 0.0)]
    # Three cached centers and four new ones overflow the cache: its fresh
    # start must hold the cached three as well.
    pulses.append(np.concatenate([box[:3], box[3:] + 40.0]))
    # One pulse with 40 distinct centers, in reverse order and with repeats,
    # is served in batches of at most 10.
    pulses.append(np.concatenate([np.arange(-20.0, 20.0)[::-1], box]))
    reference = [_SlotTables(l0, k, SLOT_DT).blocks(p) for p in pulses]
    monkeypatch.setattr(lindblad, "_MAX_CENTERS", 10)
    tables = _SlotTables(l0, k, SLOT_DT)
    for pulse, ref in zip(pulses, reference):
        assert tables.blocks(pulse).tobytes() == ref.tobytes()
        index, table = tables._built
        assert len(index) == len(table) <= 10


@pytest.mark.blas_kernel_independent
def test_slot_factors_are_the_e_halves_of_the_slot_blocks(monkeypatch):
    # The landscape asks for E alone, a product over the E columns of each
    # table row only; it must give the E half of [E | F] bit for bit, over
    # several batches as well.
    k = control_matrix(ControlHamiltonian((0.0, 1.0, 1.0)))
    amplitudes = np.random.default_rng(5).uniform(-15.0, 15.0, 45)
    monkeypatch.setattr(lindblad, "_MAX_CENTERS", 10)
    lindblad._slot_tables.cache_clear()
    for drift in DRIFTS.values():
        for dt in (SLOT_DT, 2.6):
            blocks = _slot_blocks(drift.matrix, k, dt, amplitudes)
            factors = _slot_factors(drift.matrix, k, dt, amplitudes)
            assert factors.shape == (45, 4, 4)
            assert factors.tobytes() == np.ascontiguousarray(blocks[..., :4]).tobytes()


def test_cold_center_build_has_bounded_memory():
    # The build's temporaries are first block rows, (14, 4, 4) per center,
    # so the 256 new centers of this axis, built in one stack, peak at
    # about 3 MB.
    l0, k = DRIFTS["ad"].matrix, control_matrix(ControlHamiltonian((0.0, 1.0, 1.0)))
    tables = _SlotTables(l0, k, 1.4)
    amplitudes = np.arange(-8.0, 8.0, 1.0 / 16.0)
    tracemalloc.start()
    try:
        tables.blocks(amplitudes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tables._built[0]) == 256
    assert peak < 8e6


def test_wide_cold_axis_is_served_in_bounded_batches(monkeypatch):
    # 4096 slots on 1024 distinct centers, all kept and gathered at once,
    # peaked at about 22 MB; served 64 slots at a time, the cache and the
    # gathered tables stay small.
    l0, k = DRIFTS["ad"].matrix, control_matrix(ControlHamiltonian((0.0, 1.0, 1.0)))
    monkeypatch.setattr(lindblad, "_MAX_CENTERS", 64)
    tables = _SlotTables(l0, k, 1.4)
    amplitudes = np.repeat(np.arange(-32.0, 32.0, 1.0 / 16.0), 4)
    tracemalloc.start()
    try:
        blocks = tables.blocks(amplitudes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tables._built[0]) == 64
    assert np.isfinite(blocks).all()
    assert peak < 8e6


@pytest.mark.blas_kernel_independent
def test_concurrent_first_uses_of_centers_agree_with_a_serial_build():
    # Each thread's amplitudes need centers nobody has built yet, so the
    # threads extend the shared table stack at the same time; a lost or
    # misplaced center would hand some slot the wrong table.
    l0, k = DRIFTS["ad"].matrix, control_matrix(ControlHamiltonian((0.0, 1.0, 1.0)))
    pulses = [np.array([c, -c]) * 2.0**j for j in range(4) for c in (1.0, 3.0, 7.0, 15.0)]
    reference = [_SlotTables(l0, k, SLOT_DT).blocks(p) for p in pulses]
    for _ in range(5):
        shared = _SlotTables(l0, k, SLOT_DT)
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
