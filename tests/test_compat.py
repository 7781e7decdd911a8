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
    random_cptp_heisenberg,
    random_effect,
    random_incompatible_pair,
    relative_gradient_error,
    xz_scenario,
)
from steerctl import (
    FourVector,
    NotDifferentiableError,
    OptimizeConfig,
    c_functional,
    is_jointly_measurable,
    landscape,
    optimize,
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
    _WINDOW,
    COMPAT_TOL,
    ROOT_TOL,
)
from steerctl.errors import (
    DegenerateRootError,
    InvalidEffectError,
    NoiseInsufficientError,
)

# The root finder and the implicit gradient make no BLAS call, so every
# test here must pass on any BLAS kernel.
pytestmark = pytest.mark.blas_kernel_independent

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


@settings(**PROPERTY_SETTINGS)
@given(
    x1=effects,
    x2=effects,
    b=st.floats(-0.9, 0.9),
    seed=st.integers(0, 2**32 - 1),
    env_dim=st.integers(2, 4),
    w=st.just(1.0) | st.floats(0.0, 1.0),
)
def test_no_channel_increases_the_monotone(x1, x2, b, seed, env_dim, w):
    # A unital channel commutes with the noise map, so a pair that the noise
    # makes compatible stays compatible after the channel; the root may only
    # move down, up to the root finder's tolerance.  A random channel alone
    # leaves few pairs steerable, so it is mixed with the identity at weight
    # 1 - w, which is again a unital channel.
    drawn = random_cptp_heisenberg(np.random.default_rng(seed), env_dim)
    channel = (1.0 - w) * np.eye(4) + w * drawn
    before = robustness(x1, x2, b)
    after = robustness(
        FourVector.from_array(channel @ x1.as_array()),
        FourVector.from_array(channel @ x2.as_array()),
        b,
    )
    assert after <= before + ROOT_TOL


def test_robustness_increases_with_sharpness():
    values = [robustness(shrunk([1, 0, 0], s), shrunk([0, 0, 1], s)) for s in (0.8, 0.9, 1.0)]
    assert values[0] < values[1] < values[2]


@settings(**PROPERTY_SETTINGS)
@given(x1=effects, x2=effects, b=st.floats(-0.9, 0.9))
def test_gradient_matches_finite_differences(x1, x2, b):
    lam = robustness(x1, x2, b)
    assume(0.0 < lam < 0.5)
    # The central difference steps each component by 1e-6.  Keep every noisy
    # norm and dC/dlam a thousand steps clear of zero, far from _UNSHARP_TOL
    # and _DEGENERATE_TOL, where the gradient raises instead, and the root a
    # hundred steps clear of the kink where the compatible region begins.
    t1, t2 = x1.as_tuple(), x2.as_tuple()
    assume(min(noisy_norms(t1, t2, b, lam)) > 1e-3)
    assume(abs(noisy_dc_dlam(t1, t2, b, lam)) > 1e-3)
    assume(lam > 1e-4)
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


# --- false position, the window check and the replayed bisection -----------
# The finder locates each root by false position and bisects only inside a
# checked window around it; the verbatim bisection above is the oracle.

SCAN_STEP = 0.5 / (_SCAN_POINTS - 1)

#: Steps the plain bisection takes after the scan: every scan bracket is one
#: scan step wide.
BISECT_STEPS = math.ceil(math.log2(SCAN_STEP / _BISECT_WIDTH))


def sweep_effect(rng):
    """A float 4-tuple effect: sharp, within 1e-12 to 1e-1 of sharp, or shrunk by 0.8 to 1."""
    x0 = rng.uniform(0.6, 1.4)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    shrink = (1.0, 1.0 - 10.0 ** rng.uniform(-12.0, -1.0), rng.uniform(0.8, 1.0))[rng.integers(3)]
    return (float(x0), *(float(c) for c in shrink * min(x0, 2.0 - x0) * axis))


def premixed(x, mu, b):
    """Components of x after bias-b noise at weight mu."""
    u = 1.0 - mu
    return (u * x[0] + 2.0 * mu * (0.5 * (1.0 + b)), u * x[1], u * x[2], u * x[3])


def test_replayed_bisection_matches_the_oracle_on_a_seeded_sweep():
    # Noise at weight mu, then at lam, is noise at 1 - (1-mu)(1-lam), so
    # premixing a pair with root lam moves its root to any t < lam.  Of the
    # 18 000 or so pairs, about 16 600 have a nonzero root, and about 8100 of
    # those are moved to within _WINDOW of a scan point, which is then an end
    # of the scan bracket and maybe of the window.
    rng = np.random.default_rng(2024)
    moved = near_a_scan_point = 0
    for _ in range(10_000):
        x1, x2 = sweep_effect(rng), sweep_effect(rng)
        b = float(rng.uniform(-0.999, 0.999))
        assert outcome(compat._robustness_tuples, x1, x2, b) == outcome(old_root, x1, x2, b)
        lam = compat._robustness_tuples(x1, x2, b)
        if lam <= SCAN_STEP:
            continue
        offset = (0.0, float(rng.uniform(-1.0, 1.0)) * _WINDOW, 3.0 * _BISECT_WIDTH)[rng.integers(3)]
        t = int(rng.integers(1, lam / SCAN_STEP + 1)) * SCAN_STEP + offset
        mu = 1.0 - (1.0 - lam) / (1.0 - t)
        y1, y2 = premixed(x1, mu, b), premixed(x2, mu, b)
        got = outcome(compat._robustness_tuples, y1, y2, b)
        assert got == outcome(old_root, y1, y2, b), (y1, y2, b)
        moved += 1
        root = float.fromhex(got)
        near_a_scan_point += abs(root - round(root / SCAN_STEP) * SCAN_STEP) <= _WINDOW
    assert moved > 7_000 and near_a_scan_point > 0.95 * moved


def test_failed_window_check_replays_the_whole_bisection(monkeypatch):
    # With x0 = 1 and b = 1/2 the noisy identity coefficient is 1 + lam/2,
    # so the double reads lam off its first argument.  It reports C >= 0 on
    # a band from 1.5 to 0.5 windows below the root, where the check reads
    # the window's lower end; so the check fails, and the whole scan bracket
    # is bisected, as the oracle does under the same double.
    x1, x2, b = (1.0, 0.9, 0.0, 0.0), (1.0, 0.0, 0.3, 0.9), 0.5
    root = compat._robustness_tuples(x1, x2, b)
    real = compat._c_scalar
    seen = {"new": [], "old": []}

    def banded(log):
        def c_scalar(a0, va, b0, vb, d):
            lam = 2.0 * (a0 - 1.0)
            log.append(lam)
            if root - 1.5 * _WINDOW <= lam <= root - 0.5 * _WINDOW:
                return 1.0
            return real(a0, va, b0, vb, d)

        return c_scalar

    monkeypatch.setattr(compat, "_c_scalar", banded(seen["new"]))
    monkeypatch.setitem(globals(), "_c_scalar", banded(seen["old"]))
    assert outcome(compat._robustness_tuples, x1, x2, b) == outcome(old_root, x1, x2, b)
    # Every midpoint the plain bisection read, the replay read too.  Those
    # are the oracle's last BISECT_STEPS reads; its scan reads before them
    # are left out, since the strided scan skips every second scan point.
    midpoints = seen["old"][-BISECT_STEPS:]
    assert set(midpoints) <= set(seen["new"])


def nonzero_root_inputs(monkeypatch, run):
    """The _smallest_root arguments of every nonzero root that run() finds."""
    found = []
    real = compat._smallest_root

    def recording(*args):
        lam = real(*args)
        if lam > 0.0:
            found.append(args)
        return lam

    with monkeypatch.context() as m:
        m.setattr(compat, "_smallest_root", recording)
        run()
    return found


@pytest.mark.parametrize("workload", ["landscape-dp", "optimize-ad"])
def test_false_position_halves_the_c_evaluations(monkeypatch, workload):
    # The benchmark's scenarios on a coarser grid and with fewer starts.
    if workload == "landscape-dp":
        axis = np.arange(-15.0, 15.0 + 1e-9, 0.5)
        run = lambda: landscape(xz_scenario("dp"), 2.6, 2.8, axis, axis)
    else:
        run = lambda: optimize(xz_scenario("ad"), OptimizeConfig(T=2.8, m=20, n_starts=3, seed=0))
    roots = nonzero_root_inputs(monkeypatch, run)
    calls = [0]

    def counting(c_scalar):
        def counted(*args):
            calls[0] += 1
            return c_scalar(*args)

        return counted

    monkeypatch.setattr(compat, "_c_scalar", counting(compat._c_scalar))
    monkeypatch.setitem(globals(), "_c_scalar", counting(_c_scalar))
    new_total = old_total = 0
    for args in roots:
        calls[0] = 0
        new = compat._smallest_root(*args)
        new_calls = calls[0]
        calls[0] = 0
        assert new.hex() == _smallest_root(*args).hex()
        # On these roots no finder call needs more evaluations than the
        # plain bisection; the worst case is bounded in the test below.
        assert new_calls <= calls[0]
        new_total += new_calls
        old_total += calls[0]
    assert len(roots) > 300
    # Measured: 19.20 against 51.21 calls per root on the landscape (ratio
    # 0.375), 16.44 against 45.33 in the optimizer (0.363).
    assert new_total <= {"landscape-dp": 0.41, "optimize-ad": 0.40}[workload] * old_total


def test_pace_rule_bounds_the_locate_where_false_position_stalls(monkeypatch):
    # The double reports C = -1 below lam = 0.2 and 1e-300 above, so each
    # false-position step lands half a bisection width inside the upper end
    # and Illinois halving would take a thousand steps to help.  The pace
    # rule caps the locate on the two-step scan bracket at
    # 2 log2(2 SCAN_STEP / _WINDOW) + 4 < 79 steps, the check adds 2, and
    # the replay reads C at no more than 7 midpoints, which all lie inside
    # the window: 87 calls after the scan at most, against the bisection's
    # 40, and the strided scan reads 13 points fewer than the oracle's 26.
    x1, x2, b = (1.0, 0.9, 0.0, 0.0), (1.0, 0.0, 0.3, 0.9), 0.5
    calls = []

    def step(a0, va, b0, vb, d):
        lam = 2.0 * (a0 - 1.0)
        calls.append(lam)
        return -1.0 if lam < 0.2 else 1e-300

    monkeypatch.setattr(compat, "_c_scalar", step)
    monkeypatch.setitem(globals(), "_c_scalar", step)
    new = compat._robustness_tuples(x1, x2, b)
    new_calls = len(calls)
    calls.clear()
    assert new.hex() == old_root(x1, x2, b).hex()
    assert abs(new - 0.2) <= ROOT_TOL
    assert new_calls - len(calls) <= 85 - BISECT_STEPS


def test_root_near_unit_bias_is_the_oracles():
    pairs = [(X, Z), (FourVector(1.0, 0.9, 0.0, 0.1), FourVector(1.0, 0.05, 0.1, 0.9))]
    for b in (1.0 - 1e-9, 1.0 - 1e-10, -1.0 + 1e-9, -1.0 + 1e-10):
        for x1, x2 in pairs:
            lam = robustness(x1, x2, b)
            assert 0.0 < lam < 0.5
            assert lam.hex() == old_root(x1.as_tuple(), x2.as_tuple(), b).hex()
    for b in (1.0, -1.0):
        with pytest.raises(ValueError, match="bias"):
            robustness(X, Z, b)


def test_slightly_negative_c_at_zero_noise_counts_as_compatible():
    # Equal shrink s of orthogonal sharp axes has C = 2 - 4 s^2.
    s = math.sqrt((2.0 + 5e-13) / 4.0)
    x1, x2 = shrunk([1, 0, 0], s), shrunk([0, 0, 1], s)
    assert -COMPAT_TOL <= c_functional(x1, x2) < 0.0
    assert robustness(x1, x2) == 0.0
    assert old_root(x1.as_tuple(), x2.as_tuple(), 0.0) == 0.0


def test_pair_incompatible_at_half_noise_raises():
    # Bloch vectors twice the identity coefficient: C(lam) = 2 - 16 (1-lam)^2
    # stays negative up to lam = 1 - 1/sqrt(8) > 1/2.
    x1, x2 = (1.0, 2.0, 0.0, 0.0), (1.0, 0.0, 0.0, 2.0)
    with pytest.raises(NoiseInsufficientError):
        compat._robustness_tuples(x1, x2, 0.0)
    assert outcome(old_root, x1, x2, 0.0) is NoiseInsufficientError


def test_closed_forms_with_the_root_on_a_scan_point():
    # Unbiased noise at lam makes sharp axes at angle theta compatible once
    # (1 - lam)(cos(theta/2) + sin(theta/2)) <= 1, and equally shrunk
    # orthogonal ones once (1 - lam) s sqrt(2) <= 1; both are solved for a
    # root exactly on each scan point below 1 - 1/sqrt(2).
    for i in range(1, 37):
        lam = i * SCAN_STEP
        k = 1.0 / ((1.0 - lam) * SQRT2)
        theta = 2.0 * (math.asin(k) - math.pi / 4.0)
        pairs = [
            (X, sharp_effect([math.cos(theta), 0.0, math.sin(theta)])),
            (shrunk([1, 0, 0], k), shrunk([0, 0, 1], k)),
        ]
        for x1, x2 in pairs:
            got = robustness(x1, x2)
            assert got.hex() == old_root(x1.as_tuple(), x2.as_tuple(), 0.0).hex(), i
            assert abs(got - lam) <= ROOT_TOL, i


# --- the implicit gradient before it ran on Python floats --------------------
# A verbatim copy of the numpy path as it stood when the gradient was built
# from Minkowski forms taken as 4-element dot products.  Those dots went
# through BLAS, whose kernels round in their own order, and the float routine
# now takes the partials of C in the five pair scalars instead, so the two
# agree only to rounding.

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


def noisy_dc_dlam(x1, x2, b, lam):
    """dC/dlam of the reference; the noisy effects must be unsharp."""
    p = 0.5 * (1.0 + b)
    g1, g2 = _c_gradients(_noise_map(x1, lam, p), _noise_map(x2, lam, p))
    u1 = np.array([2.0 * p - x1[0], -x1[1], -x1[2], -x1[3]])
    u2 = np.array([2.0 * p - x2[0], -x2[1], -x2[2], -x2[3]])
    return float(g1 @ u1 + g2 @ u2)


def near(value, threshold):
    return abs(value - threshold) <= 1e-6 * threshold


def near_a_threshold(x1, x2, b, lam):
    """True if a sharpness or degeneracy test of the reference is a near tie."""
    norms = noisy_norms(x1, x2, b, lam)
    if any(near(n, _UNSHARP_TOL) for n in norms):
        return True
    if min(norms) <= _UNSHARP_TOL:
        return False
    return near(abs(noisy_dc_dlam(x1, x2, b, lam)), _DEGENERATE_TOL)


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
