"""Shared random generators and closed-form oracles for the test suite.

Everything here is deterministic given the generator passed in; tests seed
their own numpy Generator so failures reproduce exactly.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pytest
from hypothesis import strategies as st

from steerctl import steering
from steerctl import (
    BipartiteState,
    ControlHamiltonian,
    DriftGenerator,
    FourVector,
    PulseSequence,
    SteeringScenario,
    c_functional,
    pauli_transfer_matrix,
    sharp_effect,
)

SQRT2 = float(np.sqrt(2.0))

#: Robustness of a sharp pair along orthogonal Bloch axes, unbiased noise.
SHARP_PAIR_VALUE = 1.0 - 1.0 / SQRT2

#: Identity and Pauli matrices in the package's basis order.
PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def complement(x: FourVector) -> FourVector:
    """4-vector of Id - A: (2 - x0, -x1, -x2, -x3)."""
    return FourVector(2.0 - x.x0, -x.x1, -x.x2, -x.x3)


def effect_to_matrix(x: FourVector) -> np.ndarray:
    """Hermitian 2x2 form (x0*Id + x.sigma)/2 of an effect."""
    return 0.5 * sum(c * p for c, p in zip(x.as_tuple(), PAULIS))


def noisy(x: FourVector, lam: float, b: float) -> FourVector:
    """x mixed with bias-b classical noise at weight lam.

    Scales x by 1 - lam, then shifts x0 by 2*lam*p with p = (1 + b)/2.
    """
    u = 1.0 - lam
    shift = 2.0 * lam * (0.5 * (1.0 + b))
    return FourVector(u * x.x0 + shift, u * x.x1, u * x.x2, u * x.x3)


def conditional_states(rho: BipartiteState, x1: FourVector, x2: FourVector) -> np.ndarray:
    """Assemblage tr_A[rho (A (x) Id)] indexed [measurement, outcome, :, :].

    Outcome 0 is the effect itself, outcome 1 its complement.
    """
    out = np.empty((2, 2, 2, 2), dtype=complex)
    for i, x in enumerate((x1, x2)):
        for a, y in enumerate((x, complement(x))):
            product = rho.matrix @ np.kron(effect_to_matrix(y), np.eye(2))
            out[i, a] = np.einsum("abad->bd", product.reshape(2, 2, 2, 2))
    return out


def is_unital(m: np.ndarray, tol: float = 1e-10) -> bool:
    """True iff a Heisenberg transfer matrix fixes the identity effect (2, 0, 0, 0)."""
    return bool(abs(m[0, 0] - 1.0) <= tol and np.max(np.abs(m[1:, 0])) <= tol)


def random_effect(rng: np.random.Generator, floor: float = 0.05, ceil: float = 0.95) -> FourVector:
    """Valid effect with both Minkowski norms bounded away from zero.

    The Bloch radius is a fraction in [floor, ceil] of min(a0, 2 - a0), so
    the effect and its complement sit strictly inside the forward cone.
    """
    a0 = rng.uniform(0.3, 1.7)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    r = rng.uniform(floor, ceil) * min(a0, 2.0 - a0)
    return FourVector(a0, *(r * axis))


def random_incompatible_pair(
    rng: np.random.Generator, min_gap: float = 1e-3
) -> tuple[FourVector, FourVector]:
    """Rejection-sample a strictly incompatible pair of unsharp effects."""
    while True:
        x1 = random_effect(rng, floor=0.7, ceil=0.999)
        x2 = random_effect(rng, floor=0.7, ceil=0.999)
        if c_functional(x1, x2) < -min_gap:
            return x1, x2


def random_cptp_heisenberg(rng: np.random.Generator, env_dim: int = 2) -> np.ndarray:
    """Heisenberg transfer matrix of a random CPTP channel.

    Built from a Stinespring isometry V: the adjoint map is
    A -> V^dag (A (x) Id_env) V, which is unital and completely positive.
    """
    g = rng.normal(size=(2 * env_dim, 2)) + 1j * rng.normal(size=(2 * env_dim, 2))
    v, _ = np.linalg.qr(g)
    eye = np.eye(env_dim)
    return pauli_transfer_matrix(lambda a: v.conj().T @ np.kron(a, eye) @ v)


def random_unitary_heisenberg(rng: np.random.Generator) -> np.ndarray:
    """Transfer matrix of conjugation by a random unitary."""
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(g)
    return pauli_transfer_matrix(lambda a: q.conj().T @ a @ q)


def random_state(rng: np.random.Generator) -> BipartiteState:
    """Full-rank two-qubit density matrix with a well-conditioned marginal."""
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T + 0.2 * np.eye(4)
    rho /= np.trace(rho).real
    return BipartiteState(rho)


@pytest.fixture
def resource_map_calls(monkeypatch) -> list[BipartiteState]:
    """The state of every steering.resource_map call the test makes from here on."""
    calls = []
    built = steering.resource_map

    def counting(rho: BipartiteState):
        calls.append(rho)
        return built(rho)

    monkeypatch.setattr(steering, "resource_map", counting)
    return calls


def xz_scenario(kind: str, gamma: float = 0.1) -> SteeringScenario:
    """Sharp x/z pair on the maximally entangled state with the stock drift."""
    drift = (
        DriftGenerator.amplitude_damping(gamma)
        if kind == "ad"
        else DriftGenerator.dephasing(gamma)
    )
    return SteeringScenario(
        rho=BipartiteState.max_entangled(),
        x1=sharp_effect([1.0, 0.0, 0.0]),
        x2=sharp_effect([0.0, 0.0, 1.0]),
        drift=drift,
        control=ControlHamiltonian((0.0, 1.0, 1.0)),
    )


def ad_transfer(gamma: float, t: float) -> np.ndarray:
    """Closed-form Heisenberg transfer matrix of the amplitude-damping drift."""
    e1 = np.exp(-gamma * t)
    e2 = np.exp(-2.0 * gamma * t)
    out = np.diag([1.0, e1, e1, e2])
    out[0, 3] = e2 - 1.0
    return out


def dp_transfer(gamma: float, t: float) -> np.ndarray:
    """Closed-form Heisenberg transfer matrix of the dephasing drift."""
    e2 = np.exp(-2.0 * gamma * t)
    return np.diag([1.0, e2, 1.0, e2])


def dp_decay_value(gamma: float, t: float) -> float:
    """Zero-pulse robustness of the sharp pair under dephasing at time t."""
    return max(0.0, 1.0 - np.exp(2.0 * gamma * t) / SQRT2)


def central_difference(f: Callable[[np.ndarray], float], x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Componentwise central finite difference of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.empty(x.size)
    for i in range(x.size):
        bump = np.zeros(x.size)
        bump[i] = step
        grad[i] = (f(x + bump) - f(x - bump)) / (2.0 * step)
    return grad


def relative_gradient_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 0.0) -> float:
    """Norm of the gradient mismatch relative to the numeric gradient norm.

    A central difference at step h carries absolute noise around eps/(2h);
    below gradient norm noise/rtol the pure ratio measures that noise, not
    the gradient, so callers probing near-stationary points pass a floor.
    """
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    scale = max(float(np.linalg.norm(numeric)), floor)
    return float(np.linalg.norm(analytic - numeric) / scale)


def choi_matrix(transfer_schrodinger: np.ndarray) -> np.ndarray:
    """Choi matrix of the Schrodinger-picture map given by a transfer matrix."""

    def apply(mat: np.ndarray) -> np.ndarray:
        coeffs = np.array([np.trace(p @ mat) for p in PAULIS])
        out_coeffs = transfer_schrodinger @ coeffs
        return 0.5 * sum(c * p for c, p in zip(out_coeffs, PAULIS))

    choi = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[a, b] = 1.0
            choi += np.kron(unit, apply(unit))
    return choi


# --- Hypothesis strategies for property tests --------------------------------

#: Hypothesis settings for property tests: a fixed example set per test, so
#: runs repeat exactly, and no example database written to disk.
PROPERTY_SETTINGS = dict(max_examples=100, deadline=None, derandomize=True, database=None)

#: Built-in drifts at a random rate.
drifts = st.builds(
    lambda kind, gamma: kind(gamma),
    st.sampled_from([DriftGenerator.amplitude_damping, DriftGenerator.dephasing]),
    st.floats(0.01, 0.2),
)

#: Control Hamiltonians with a random field.
controls = st.builds(
    lambda h: ControlHamiltonian(tuple(h)),
    st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=3),
)

#: Pulses of 1 to 20 slots with amplitudes anywhere in the [-15, 15] box.
pulses = st.builds(
    lambda dt, amps: PulseSequence(dt, tuple(amps)),
    st.floats(0.02, 0.1),
    st.lists(st.floats(-15.0, 15.0), min_size=1, max_size=20),
)

#: Effects (x0, r * n) with the unit axis n at polar angles (theta, phi) and
#: r a fraction of the largest valid length min(x0, 2 - x0).
effects = st.builds(
    lambda x0, theta, phi, fraction: FourVector.from_array(
        np.array([x0, 0.0, 0.0, 0.0])
        + fraction * min(x0, 2.0 - x0) * np.array(
            [0.0, np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
        )
    ),
    st.floats(0.8, 1.2),
    st.floats(0.0, np.pi),
    st.floats(0.0, 2.0 * np.pi),
    st.floats(0.9, 0.999),
)
