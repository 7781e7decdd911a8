"""Pair functional, joint-measurability decision, and the noise monotone."""

import math

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
    effects,
    noisy,
    random_effect,
    random_incompatible_pair,
    relative_gradient_error,
)
from steerctl import (
    FourVector,
    NotDifferentiableError,
    c_functional,
    is_jointly_measurable,
    robustness,
    robustness_gradient,
    sharp_effect,
)
from steerctl import compat
from steerctl.compat import (
    _BISECT_WIDTH,
    _DEGENERATE_TOL,
    _RADICAND_TOL,
    _SCAN_POINTS,
    _UNSHARP_TOL,
    COMPAT_TOL,
)
from steerctl.errors import (
    DegenerateRootError,
    InvalidEffectError,
    NoiseInsufficientError,
)

X = sharp_effect([1.0, 0.0, 0.0])
Z = sharp_effect([0.0, 0.0, 1.0])
TRIVIAL = FourVector(1.0, 0.0, 0.0, 0.0)


def shrunk(axis, s):
    return FourVector(1.0, *(s * np.asarray(axis, dtype=float)))


def test_pair_functional_closed_forms():
    assert c_functional(X, Z) == pytest.approx(-2.0, abs=1e-14)
    assert c_functional(TRIVIAL, TRIVIAL) == pytest.approx(2.0, abs=1e-14)
    # common shrink s of orthogonal sharp axes: C = 2 - 4 s^2
    for s in (0.2, 0.5, 1.0 / SQRT2, 0.9):
        got = c_functional(shrunk([1, 0, 0], s), shrunk([0, 0, 1], s))
        assert got == pytest.approx(2.0 - 4.0 * s * s, abs=1e-12)


def test_pair_functional_symmetries():
    rng = np.random.default_rng(21)
    for _ in range(30):
        x1 = random_effect(rng)
        x2 = random_effect(rng)
        base = c_functional(x1, x2)
        assert c_functional(x2, x1) == pytest.approx(base, rel=1e-12, abs=1e-12)
        # the functional sees a measurement and its complement identically
        assert c_functional(complement(x1), x2) == pytest.approx(base, rel=1e-9, abs=1e-9)
        assert c_functional(x1, complement(x2)) == pytest.approx(base, rel=1e-9, abs=1e-9)


def test_joint_measurability_decision():
    assert not is_jointly_measurable(X, Z)
    assert is_jointly_measurable(X, X)
    assert is_jointly_measurable(TRIVIAL, Z)
    # shrink boundary: compatible exactly at s = 1/sqrt(2)
    assert is_jointly_measurable(shrunk([1, 0, 0], 1.0 / SQRT2), shrunk([0, 0, 1], 1.0 / SQRT2))
    assert not is_jointly_measurable(shrunk([1, 0, 0], 0.72), shrunk([0, 0, 1], 0.72))


def test_noise_mixing_preserves_validity():
    from steerctl import validate_effect

    rng = np.random.default_rng(23)
    for _ in range(50):
        x = random_effect(rng, floor=0.3, ceil=0.999)
        y = noisy(x, rng.uniform(0, 1), rng.uniform(-0.95, 0.95))
        assert validate_effect(y)


def test_robustness_sharp_pair_closed_form():
    assert robustness(X, Z) == pytest.approx(SHARP_PAIR_VALUE, abs=1e-12)


def test_robustness_shrunk_pair_closed_form():
    # equal shrink s of orthogonal sharp axes: 1 - 1/(s*sqrt(2)) once incompatible
    for s in (0.75, 0.85, 0.95, 1.0):
        pair = (shrunk([1, 0, 0], s), shrunk([0, 0, 1], s))
        assert robustness(*pair) == pytest.approx(1.0 - 1.0 / (s * SQRT2), abs=1e-11)


def test_robustness_zero_on_compatible_pairs():
    assert robustness(X, X) == 0.0
    assert robustness(TRIVIAL, Z) == 0.0
    assert robustness(shrunk([1, 0, 0], 0.5), shrunk([0, 0, 1], 0.5)) == 0.0


def test_robustness_range_and_symmetries():
    rng = np.random.default_rng(24)
    for _ in range(40):
        x1, x2 = random_incompatible_pair(rng)
        b = rng.uniform(-0.8, 0.8)
        value = robustness(x1, x2, b)
        assert 0.0 < value < 0.5
        assert robustness(x2, x1, b) == pytest.approx(value, abs=1e-12)
        # complementing both measurements mirrors the noise bias
        assert robustness(complement(x1), complement(x2), -b) == pytest.approx(value, abs=1e-10)


def test_robustness_root_actually_crosses_zero():
    rng = np.random.default_rng(25)
    for _ in range(20):
        x1, x2 = random_incompatible_pair(rng)
        b = rng.uniform(-0.5, 0.5)
        lam = robustness(x1, x2, b)
        c_at = lambda l: c_functional(noisy(x1, l, b), noisy(x2, l, b))
        assert abs(c_at(lam)) < 1e-9
        assert c_at(max(lam - 1e-6, 0.0)) < 0.0
        assert c_at(min(lam + 1e-6, 0.5)) > -1e-12


@settings(**PROPERTY_SETTINGS)
@given(x1=effects, x2=effects, b=st.floats(-0.9, 0.9))
def test_robustness_is_the_first_root(x1, x2, b):
    # The 64-point scan brackets the first sign change it sees; a double
    # crossing between two scan points would hide an earlier root.  C must
    # stay negative on a grid at least 30 times finer, up to just below the
    # root.
    assume(not is_jointly_measurable(x1, x2))
    lam = robustness(x1, x2, b)
    for l in np.linspace(0.0, lam - 1e-9, 2001):
        assert c_functional(noisy(x1, l, b), noisy(x2, l, b)) < 0.0, l


def test_robustness_monotone_under_pre_mixing():
    # adding noise first can only reduce the remaining distance to compatibility
    rng = np.random.default_rng(26)
    for _ in range(30):
        x1, x2 = random_incompatible_pair(rng)
        base = robustness(x1, x2)
        lam0 = rng.uniform(0.0, 0.4)
        pre = robustness(noisy(x1, lam0, 0.0), noisy(x2, lam0, 0.0))
        assert pre <= base + 1e-9


def test_robustness_increases_with_sharpness():
    values = [robustness(shrunk([1, 0, 0], s), shrunk([0, 0, 1], s)) for s in (0.8, 0.9, 1.0)]
    assert values[0] < values[1] < values[2]


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(27)
    for _ in range(30):
        x1, x2 = random_incompatible_pair(rng)
        b = rng.uniform(-0.6, 0.6)
        g1, g2 = robustness_gradient(x1, x2, b)
        analytic = np.concatenate([g1.as_array(), g2.as_array()])

        def value_at(z: np.ndarray) -> float:
            return robustness(FourVector.from_array(z[:4]), FourVector.from_array(z[4:]), b)

        numeric = central_difference(value_at, np.concatenate([x1.as_array(), x2.as_array()]))
        assert relative_gradient_error(analytic, numeric) < 1e-5


def test_gradient_shrink_direction_closed_form():
    # d/ds [1 - 1/(s*sqrt(2))] = 1/(s^2*sqrt(2)); the chain rule contracts the
    # full gradient against the shrink direction (0, axis1) + (0, axis2)
    s = 0.9
    g1, g2 = robustness_gradient(shrunk([1, 0, 0], s), shrunk([0, 0, 1], s))
    derivative = g1.x1 + g2.x3
    assert derivative == pytest.approx(1.0 / (s * s * SQRT2), abs=1e-7)


def test_gradient_refuses_flat_region():
    with pytest.raises(NotDifferentiableError):
        robustness_gradient(X, X)
    with pytest.raises(NotDifferentiableError):
        robustness_gradient(shrunk([1, 0, 0], 0.3), shrunk([0, 0, 1], 0.3))


# --- the root finder before its scan and bisection ran on Python floats ------
# A verbatim copy of the scalar path as it stood when every evaluation went
# through _noisy_c and numpy scalars.  The rewritten path must return the
# same bits and raise the same errors.


def _c_scalar(a0, va, b0, vb, d):
    ta = 2.0 - a0
    tb = 2.0 - b0
    rad = (a0 * a0 - va) * (ta * ta - va) * (b0 * b0 - vb) * (tb * tb - vb)
    if rad < 0.0:
        if rad < -_RADICAND_TOL:
            raise InvalidEffectError(
                f"negative product {rad:.3e} under the square root; inputs are not valid effects"
            )
        rad = 0.0
    return (
        math.sqrt(rad)
        - (a0 * ta + va) * (b0 * tb + vb)
        + (a0 * tb + d) * (ta * b0 + d)
        + (a0 * b0 - d) * (ta * tb - d)
    )


def _noisy_c(lam, p, a0, va, b0, vb, d):
    u = 1.0 - lam
    shift = 2.0 * lam * p
    u2 = u * u
    return _c_scalar(u * a0 + shift, u2 * va, u * b0 + shift, u2 * vb, u2 * d)


def _smallest_root(a0, va, b0, vb, d, p):
    if _c_scalar(a0, va, b0, vb, d) >= -COMPAT_TOL:
        return 0.0
    step = 0.5 / (_SCAN_POINTS - 1)
    lo = 0.0
    hi = None
    for i in range(1, _SCAN_POINTS):
        lam = i * step
        if _noisy_c(lam, p, a0, va, b0, vb, d) >= 0.0:
            hi = lam
            break
        lo = lam
    if hi is None:
        raise NoiseInsufficientError(
            "C is still negative at lam = 1/2; classical noise cannot restore compatibility"
        )
    while hi - lo > _BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        if _noisy_c(mid, p, a0, va, b0, vb, d) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def old_root(x1, x2, b):
    return _smallest_root(*compat._pair_scalars(x1, x2), 0.5 * (1.0 + b))


def outcome(f, *args):
    """The returned float as hex, or the type of the raised error."""
    try:
        return float(f(*args)).hex()
    except (InvalidEffectError, NoiseInsufficientError) as exc:
        return type(exc)


def zeroed(x, zeros):
    """Components of x with the listed Bloch components set to the given zero."""
    comps = list(x.as_tuple())
    for index, zero in zeros:
        comps[index] = zero
    return tuple(comps)


signed_zeros = st.lists(st.tuples(st.integers(1, 3), st.sampled_from([0.0, -0.0])), max_size=3)

#: Raw components, valid effects or not, with signed zeros and unit entries
#: drawn often.
raw_components = st.tuples(
    *[st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0]), st.floats(-2.0, 2.0))] * 4
)


def assert_roots_agree(x1, x2, b):
    """Python floats, numpy scalars and the old path give the same outcome."""
    as_np = lambda x: tuple(np.float64(v) for v in x)
    old = outcome(old_root, as_np(x1), as_np(x2), np.float64(b))
    assert outcome(compat._robustness_tuples, x1, x2, b) == old
    assert outcome(compat._robustness_tuples, as_np(x1), as_np(x2), np.float64(b)) == old


@settings(**PROPERTY_SETTINGS)
@given(
    x1=st.builds(zeroed, effects, signed_zeros),
    x2=st.builds(zeroed, effects, signed_zeros),
    b=st.floats(-0.9, 0.9),
)
def test_root_is_bit_identical_on_floats_and_numpy_scalars(x1, x2, b):
    # Zeroing Bloch components keeps an effect valid; only incompatible
    # pairs reach the scan and the bisection.
    assume(compat._robustness_tuples(x1, x2, b) > 0.0)
    assert_roots_agree(x1, x2, b)


@settings(**PROPERTY_SETTINGS)
@given(x1=raw_components, x2=raw_components, b=st.floats(-0.9, 0.9))
def test_root_outcome_is_the_same_on_raw_components(x1, x2, b):
    # Invalid inputs raise InvalidEffectError or NoiseInsufficientError on
    # every path alike; compatible ones return 0.0 alike.
    assert_roots_agree(x1, x2, b)


# --- the implicit gradient before it ran on Python floats --------------------
# A verbatim copy of the numpy path as it stood when the Minkowski forms were
# 4-element dot products.  Those dots went through BLAS, whose kernels round
# in their own order, so the float routine matches it only to rounding.

_ETA = np.array([1.0, -1.0, -1.0, -1.0])


def _noise_map(x, lam, p):
    y = (1.0 - lam) * np.asarray(x, dtype=float)
    y[0] += 2.0 * lam * p
    return y


def _c_gradients(y1, y2):
    y1p = np.array([2.0 - y1[0], -y1[1], -y1[2], -y1[3]])
    y2p = np.array([2.0 - y2[0], -y2[1], -y2[2], -y2[3]])
    e1, e1p, e2, e2p = _ETA * y1, _ETA * y1p, _ETA * y2, _ETA * y2p
    n1 = float(e1 @ y1)
    n1p = float(e1p @ y1p)
    n2 = float(e2 @ y2)
    n2p = float(e2p @ y2p)
    m11p = float(e1 @ y1p)
    m22p = float(e2 @ y2p)
    m12p = float(e1 @ y2p)
    m1p2 = float(e1p @ y2)
    m12 = float(e1 @ y2)
    m1p2p = float(e1p @ y2p)
    s = math.sqrt(n1 * n1p * n2 * n2p)
    d_y1 = (n1p * n2 * n2p / s) * e1 - m22p * e1p + m1p2 * e2p + m1p2p * e2
    d_y1p = (n1 * n2 * n2p / s) * e1p - m22p * e1 + m12p * e2 + m12 * e2p
    d_y2 = (n1 * n1p * n2p / s) * e2 - m11p * e2p + m12p * e1p + m1p2p * e1
    d_y2p = (n1 * n1p * n2 / s) * e2p - m11p * e2 + m1p2 * e1 + m12 * e1p
    return d_y1 - d_y1p, d_y2 - d_y2p


def old_gradient_at_root(x1, x2, b, lam):
    p = 0.5 * (1.0 + b)
    y1 = _noise_map(x1, lam, p)
    y2 = _noise_map(x2, lam, p)
    for y in (y1, y2):
        n = y[0] * y[0] - y[1] * y[1] - y[2] * y[2] - y[3] * y[3]
        t = 2.0 - y[0]
        npp = t * t - y[1] * y[1] - y[2] * y[2] - y[3] * y[3]
        if n <= _UNSHARP_TOL or npp <= _UNSHARP_TOL:
            raise NotDifferentiableError(
                "a noisy effect at the root is sharp; the square root in C is not differentiable"
            )
    g1, g2 = _c_gradients(y1, y2)
    u1 = np.array([2.0 * p - x1[0], -x1[1], -x1[2], -x1[3]])
    u2 = np.array([2.0 * p - x2[0], -x2[1], -x2[2], -x2[3]])
    dc_dlam = float(g1 @ u1 + g2 @ u2)
    if abs(dc_dlam) < _DEGENERATE_TOL:
        raise DegenerateRootError(
            f"dC/dlam = {dc_dlam:.3e} at the root; implicit differentiation is ill-posed"
        )
    scale = -(1.0 - lam) / dc_dlam
    return scale * g1, scale * g2


def noisy_norms(x1, x2, b, lam):
    """Minkowski norms of both noisy effects and of their complements."""
    norms = []
    for y in (_noise_map(x1, lam, 0.5 * (1.0 + b)), _noise_map(x2, lam, 0.5 * (1.0 + b))):
        t = 2.0 - y[0]
        norms.append(y[0] * y[0] - y[1] * y[1] - y[2] * y[2] - y[3] * y[3])
        norms.append(t * t - y[1] * y[1] - y[2] * y[2] - y[3] * y[3])
    return norms


def near(value, threshold):
    return abs(value - threshold) <= 1e-6 * threshold


def near_a_threshold(x1, x2, b, lam):
    """True if a sharpness or degeneracy test of the reference is a near tie."""
    norms = noisy_norms(x1, x2, b, lam)
    if any(near(n, _UNSHARP_TOL) for n in norms):
        return True
    if min(norms) <= _UNSHARP_TOL:
        return False
    p = 0.5 * (1.0 + b)
    g1, g2 = _c_gradients(_noise_map(x1, lam, p), _noise_map(x2, lam, p))
    u1 = np.array([2.0 * p - x1[0], -x1[1], -x1[2], -x1[3]])
    u2 = np.array([2.0 * p - x2[0], -x2[1], -x2[2], -x2[3]])
    return near(abs(float(g1 @ u1 + g2 @ u2)), _DEGENERATE_TOL)


def gradient_outcome(f, x1, x2, b, lam):
    """The gradient as one array of eight floats, or the type of the raised error."""
    try:
        return np.concatenate([np.asarray(g, dtype=float) for g in f(x1, x2, b, lam)])
    except (NotDifferentiableError, DegenerateRootError) as exc:
        return type(exc)


sharp_effects = st.builds(
    lambda theta, phi: sharp_effect(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
    ),
    st.floats(0.0, np.pi),
    st.floats(0.0, 2.0 * np.pi),
)


@settings(**PROPERTY_SETTINGS)
@given(
    x1=st.one_of(effects, sharp_effects),
    x2=st.one_of(effects, sharp_effects),
    b=st.floats(-0.9, 0.9),
    lam=st.one_of(st.none(), st.floats(0.0, 0.5)),
)
@example(x1=TRIVIAL, x2=TRIVIAL, b=0.0, lam=0.25)  # dC/dlam is exactly zero
@example(x1=X, x2=Z, b=0.0, lam=0.0)  # both noisy effects are sharp
def test_float_gradient_matches_the_numpy_reference(x1, x2, b, lam):
    # lam None puts the pair at its own root, where the optimizer evaluates
    # the gradient; a drawn lam exercises the same formula anywhere.
    if lam is None:
        lam = robustness(x1, x2, b)
        assume(0.0 < lam < 0.5)
    t1, t2 = x1.as_tuple(), x2.as_tuple()
    assume(not near_a_threshold(t1, t2, b, lam))
    ref = gradient_outcome(old_gradient_at_root, x1.as_array(), x2.as_array(), b, lam)
    got = gradient_outcome(compat._gradient_at_root, t1, t2, b, lam)
    if isinstance(ref, type):
        assert got is ref
        return
    assert not isinstance(got, type), got
    # Both routines form each Minkowski norm by cancellation, so as a noisy
    # effect nears sharpness (norm -> 0) their last-bit differences grow
    # like 1/norm.  Down to a norm of 1e-3 the bound is 1e-12 relative.
    conditioning = max(1.0, 1e-3 / min(noisy_norms(t1, t2, b, lam)))
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)) * conditioning


@settings(**PROPERTY_SETTINGS)
@given(x=st.one_of(effects, sharp_effects), lam=st.floats(0.0, 1.0), b=st.floats(-0.99, 0.99))
def test_apply_noise_is_bit_identical_to_the_numpy_noise_map(x, lam, b):
    # The float noise map of the oracles here (conftest.noisy) and the numpy
    # one of the gradient reference above agree bit for bit.
    got = noisy(x, lam, b).as_tuple()
    ref = _noise_map(x.as_array(), lam, 0.5 * (1.0 + b)).tolist()
    assert [v.hex() for v in got] == [v.hex() for v in ref]
