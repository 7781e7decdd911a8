"""Four-vector effect representation and two-qubit state container."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import PROPERTY_SETTINGS, complement, effect_to_matrix, random_effect, random_state
from steerctl import (
    BipartiteState,
    FourVector,
    InvalidEffectError,
    sharp_effect,
    validate_effect,
)
from steerctl.qubit_algebra import EFFECT_TOL, _in_effect_cone


def test_four_vector_roundtrips():
    x = FourVector(1.2, 0.3, -0.1, 0.4)
    assert x.as_tuple() == (1.2, 0.3, -0.1, 0.4)
    assert np.array_equal(x.as_array(), np.array([1.2, 0.3, -0.1, 0.4]))
    assert FourVector.from_array(x.as_array()) == x


def test_four_vector_rejects_non_finite():
    with pytest.raises(InvalidEffectError):
        FourVector(np.nan, 0.0, 0.0, 0.0)
    with pytest.raises(InvalidEffectError):
        FourVector(1.0, np.inf, 0.0, 0.0)
    with pytest.raises(InvalidEffectError):
        FourVector(1.0, 0.0, 0.0, -np.inf)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidEffectError):
            FourVector.from_array([1.0, 0.0, bad, 0.0])
        with pytest.raises(InvalidEffectError):
            FourVector(1.0, 0.0, np.float64(bad), 0.0)


@pytest.mark.parametrize("make", [np.float64, np.int64, int, float], ids=lambda f: f.__name__)
def test_four_vector_components_are_python_floats(make):
    x = FourVector(make(1), make(0), make(-1), make(0))
    assert all(type(v) is float for v in x.as_tuple())
    assert x.as_tuple() == (1.0, 0.0, -1.0, 0.0)
    y = FourVector.from_array(np.array([make(1), make(0), make(-1), make(0)]))
    assert all(type(v) is float for v in y.as_tuple())
    assert y == x


def test_matrix_conversion_uses_unhalved_traces():
    # A = (x0*Id + x.sigma)/2, so the identity carries x0 = 2
    assert np.array_equal(effect_to_matrix(FourVector(2.0, 0.0, 0.0, 0.0)), np.eye(2))
    proj = effect_to_matrix(FourVector(1.0, 0.0, 0.0, 1.0))
    assert np.allclose(proj, np.diag([1.0, 0.0]), atol=1e-15)


def test_validate_effect_boundaries():
    assert validate_effect(sharp_effect([1, 0, 0]))
    assert validate_effect(FourVector(0.0, 0.0, 0.0, 0.0))
    assert validate_effect(FourVector(2.0, 0.0, 0.0, 0.0))
    # Bloch radius above min(a0, 2 - a0) leaves the cone
    assert not validate_effect(FourVector(1.0, 1.1, 0.0, 0.0))
    assert not validate_effect(FourVector(-0.1, 0.0, 0.0, 0.0))
    assert not validate_effect(FourVector(2.1, 0.0, 0.0, 0.0))
    assert not validate_effect(FourVector(0.4, 0.0, 0.5, 0.0))


def test_validate_effect_tolerance_is_respected():
    slightly_off = FourVector(1.0, 1.0 + 1e-12, 0.0, 0.0)
    assert validate_effect(slightly_off)
    assert not validate_effect(slightly_off, tol=1e-14)


#: Component values on the cone's edges: signed zeros, the validity
#: tolerance either side of them, and the sharp values.
_EDGE_VALUES = (0.0, -0.0, EFFECT_TOL, -EFFECT_TOL, 1.0, -1.0, 2.0, 2.0 + EFFECT_TOL)


def _on_the_surface(x0, theta, phi, offset):
    """(x0, r * n) with r = min(x0, 2 - x0) + offset: sharp at offset 0."""
    r = min(x0, 2.0 - x0) + offset
    return (
        x0,
        r * math.sin(theta) * math.cos(phi),
        r * math.sin(theta) * math.sin(phi),
        r * math.cos(theta),
    )


_components = st.one_of(st.sampled_from(_EDGE_VALUES), st.floats(-2.5, 2.5))
_free_tuples = st.tuples(_components, _components, _components, _components)
_boundary_tuples = st.builds(
    _on_the_surface,
    st.one_of(st.sampled_from(_EDGE_VALUES), st.floats(-0.1, 2.1)),
    st.one_of(st.sampled_from((0.0, 0.5 * math.pi, math.pi)), st.floats(0.0, math.pi)),
    st.floats(0.0, 2.0 * math.pi),
    st.sampled_from((0.0, EFFECT_TOL, -EFFECT_TOL, 1e-3, -1e-3)),
)


@settings(**PROPERTY_SETTINGS)
@given(x=st.one_of(_free_tuples, _boundary_tuples))
# each of the four cone conditions alone missed by half and by one and a
# half tolerances, so the tolerance is pinned on each side
@example(x=(-0.5 * EFFECT_TOL, 0.0, 0.0, 0.0))
@example(x=(-1.5 * EFFECT_TOL, 0.0, 0.0, 0.0))
@example(x=(2.0 + 0.5 * EFFECT_TOL, 0.0, 0.0, 0.0))
@example(x=(2.0 + 1.5 * EFFECT_TOL, 0.0, 0.0, 0.0))
@example(x=(0.25, 0.25 + EFFECT_TOL, 0.0, 0.0))
@example(x=(0.75, 0.75 + EFFECT_TOL, 0.0, 0.0))
@example(x=(1.75, 0.0, -0.25 - EFFECT_TOL, 0.0))
@example(x=(1.25, 0.0, 0.0, 0.75 + EFFECT_TOL))
def test_float_effect_check_agrees_with_validate_effect(x):
    got = _in_effect_cone(x)
    assert got is validate_effect(FourVector(*x))
    # Exact margins of the four cone conditions; within 1e-13 of the
    # tolerance, float rounding may decide either way.
    x0, v = Fraction(x[0]), sum(Fraction(c) ** 2 for c in x[1:])
    margin = min(x0, 2 - x0, x0 * x0 - v, (2 - x0) ** 2 - v) + Fraction(EFFECT_TOL)
    if abs(margin) > 1e-13:
        assert got is (margin > 0)


def test_sharp_effect_normalizes_and_rejects_zero_axis():
    x = sharp_effect([0.0, 0.0, 10.0])
    assert x == FourVector(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(InvalidEffectError):
        sharp_effect([0.0, 0.0, 0.0])


def test_random_effects_are_valid_with_valid_complements():
    rng = np.random.default_rng(14)
    for _ in range(50):
        x = random_effect(rng)
        assert validate_effect(x)
        assert validate_effect(complement(x))
        a = effect_to_matrix(x)
        eigs = np.linalg.eigvalsh(a)
        assert eigs[0] >= -1e-12 and eigs[-1] <= 1.0 + 1e-12


def test_bipartite_state_validation():
    with pytest.raises(ValueError):
        BipartiteState(np.eye(3))
    with pytest.raises(ValueError):
        BipartiteState(np.eye(4))  # trace 4
    bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        BipartiteState(bad)
    skew = np.eye(4, dtype=complex) / 4.0
    skew[0, 1] = 0.3
    with pytest.raises(ValueError):
        BipartiteState(skew)


def test_bipartite_state_matrix_is_read_only():
    rho = BipartiteState.max_entangled()
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 0.0


def test_max_entangled_matrix():
    rho = BipartiteState.max_entangled().matrix
    expected = np.zeros((4, 4))
    expected[np.ix_([0, 3], [0, 3])] = 0.5
    assert np.allclose(rho, expected, atol=1e-15)


def test_werner_interpolates_to_white_noise():
    assert np.allclose(BipartiteState.werner(0.0).matrix, np.eye(4) / 4.0, atol=1e-15)
    assert np.allclose(
        BipartiteState.werner(1.0).matrix, BipartiteState.max_entangled().matrix, atol=1e-15
    )
    with pytest.raises(ValueError):
        BipartiteState.werner(1.2)
    with pytest.raises(ValueError):
        BipartiteState.werner(-0.5)  # PSD fails below -1/3


def test_product_state_is_a_kronecker_product():
    rho_a = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
    rho_b = np.array([[0.5, 0.2j], [-0.2j, 0.5]], dtype=complex)
    rho = BipartiteState.product(rho_a, rho_b)
    assert np.allclose(rho.matrix, np.kron(rho_a, rho_b), atol=1e-15)


def test_random_states_pass_validation():
    rng = np.random.default_rng(15)
    for _ in range(10):
        state = random_state(rng)
        assert abs(np.trace(state.matrix).real - 1.0) < 1e-12
