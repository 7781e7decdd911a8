"""Steering of a bipartite qubit state by a noisy measurement pair.

Alice's binary measurements, pushed through the shared state rho, leave Bob
with an assemblage of conditional states.  Sandwiching with the inverse
square root of Bob's marginal turns the assemblage into a POVM pair on Bob's
side, so the whole scenario is summarized by one unital CP transfer matrix
(the resource map) acting on Alice's effect 4-vectors.  The steering
robustness of a pulse sequence is the incompatibility robustness of the two
transported effects

    y_i = R @ M(c) @ x_i,

where M(c) is the Heisenberg transfer matrix of the controlled dynamics.
Because the dynamics enters only through M(c), the exact gradient in the
pulse amplitudes follows from the incompatibility gradient and the
propagator Jacobian by the chain rule.  Per evaluation, the transported
effects y_i stay Python-float 4-tuples from the matrix products through the
effect check to the root finder and the implicit gradient.  A scenario
builds one ScenarioEvaluator (resource map, generator matrices, effect
arrays) on construction, and every evaluation of it goes through that one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import compat
from .errors import (
    DegenerateRootError,
    InternalConsistencyError,
    InvalidEffectError,
    NotDifferentiableError,
    UnsupportedStateError,
)
from .lindblad import (
    ControlHamiltonian,
    DriftGenerator,
    PulseSequence,
    TransferMatrix,
    _non_finite,
    _propagate_with_vjp,
    control_matrix,
    pauli_transfer_matrix,
)
from .qubit_algebra import BipartiteState, FourVector, _in_effect_cone, validate_effect

#: Bob marginals with an eigenvalue below this are treated as rank-deficient.
_RANK_TOL = 1e-12


def bob_marginal(rho: BipartiteState) -> np.ndarray:
    """Bob's reduced state: partial trace of rho over Alice's factor."""
    r4 = rho.matrix.reshape(2, 2, 2, 2)
    return np.einsum("abad->bd", r4)


def _trace_out_alice(rho: BipartiteState, x: np.ndarray) -> np.ndarray:
    """tr_A[rho (X (x) Id)] for a 2x2 matrix X on Alice's side."""
    r4 = rho.matrix.reshape(2, 2, 2, 2)
    return np.einsum("abcd,ca->bd", r4, x)


def resource_map(rho: BipartiteState) -> TransferMatrix:
    """Pauli transfer matrix of A -> rho_B^{-1/2} tr_A[rho (A^T (x) Id)] rho_B^{-1/2}.

    The transpose makes the maximally entangled state give the identity
    matrix.  The output is unital for every valid state.

    Raises:
        UnsupportedStateError: if Bob's marginal is rank-deficient; such a
            state is a product state on Bob's side and never steerable.
    """
    marginal = bob_marginal(rho)
    eigvals, eigvecs = np.linalg.eigh(marginal)
    if eigvals[0] < _RANK_TOL:
        raise UnsupportedStateError(
            f"Bob marginal eigenvalue {eigvals[0]:.3e} below {_RANK_TOL}; "
            "rank-deficient marginals are not supported"
        )
    inv_sqrt = (eigvecs / np.sqrt(np.clip(eigvals, _RANK_TOL, None))) @ eigvecs.conj().T
    return pauli_transfer_matrix(lambda a: inv_sqrt @ _trace_out_alice(rho, a.T) @ inv_sqrt)


@dataclass(frozen=True, eq=False)
class SteeringScenario:
    """Shared state, Alice's two effects, dynamics, and the monotone bias.

    A scenario owns one ScenarioEvaluator, built on construction: the
    module wrappers, every optimizer start, landscape and sweep evaluate
    through it, serial starts share it, and pool workers receive it pickled
    with the scenario.
    """

    rho: BipartiteState
    x1: FourVector
    x2: FourVector
    drift: DriftGenerator
    control: ControlHamiltonian
    b: float = 0.0

    def __post_init__(self) -> None:
        rho = self.rho
        if not isinstance(rho, BipartiteState):
            rho = BipartiteState(np.asarray(rho))
            object.__setattr__(self, "rho", rho)
        for name, x in (("x1", self.x1), ("x2", self.x2)):
            if not validate_effect(x):
                raise InvalidEffectError(f"{name} = {x} is not a valid effect")
        b = float(self.b)
        if not -1.0 < b < 1.0:
            raise ValueError(f"bias must lie in (-1, 1), got {b!r}")
        object.__setattr__(self, "b", b)
        # Building the evaluator runs resource_map, which rejects a
        # rank-deficient Bob marginal.
        object.__setattr__(self, "_evaluator", ScenarioEvaluator(self))


class ScenarioEvaluator:
    """Precomputed pieces of one scenario, for repeated cost evaluations.

    Holds the resource map, the drift and control generator matrices, and
    the measurement 4-vectors as arrays.  Transported effects are float
    4-tuples, checked with validate_effect's cone arithmetic and passed to
    the compat root finder and gradient as they are; no FourVector is built
    per evaluation.  All methods are pure; instances are safe to share
    across threads.
    """

    def __init__(self, scenario: SteeringScenario):
        self.scenario = scenario
        self.resource = resource_map(scenario.rho)
        self.drift_generator = scenario.drift.matrix
        self.control_generator = control_matrix(scenario.control)
        self._x1 = scenario.x1.as_array()
        self._x2 = scenario.x2.as_array()
        self._cols = np.stack([self._x1, self._x2], axis=1)
        self._b = scenario.b

    def _transported_value(
        self, channel: TransferMatrix
    ) -> tuple[tuple[float, ...], tuple[float, ...], float]:
        """Float 4-tuples y_i = R @ (channel @ x_i), checked, and their robustness.

        Raises:
            InvalidEffectError: if a component is not finite.
            InternalConsistencyError: if an effect is outside the cone.
        """
        try:
            y1 = tuple((self.resource @ (channel @ self._x1)).tolist())
            y2 = tuple((self.resource @ (channel @ self._x2)).tolist())
        except (RuntimeWarning, FloatingPointError) as exc:
            # A NaN or an overflow in the products, such as an infinite
            # channel entry times a zero.
            raise _non_finite(exc) from None
        if not all(map(math.isfinite, y1 + y2)):
            raise InvalidEffectError(f"transported effects {y1}, {y2} have a non-finite component")
        for y in (y1, y2):
            # CPTP dynamics and the resource map preserve validity; anything
            # else indicates a broken transfer matrix.
            if not _in_effect_cone(y):
                raise InternalConsistencyError(
                    f"transported effect {y} is invalid; a transfer matrix is not positive"
                )
        return y1, y2, compat._robustness_tuples(y1, y2, self._b)

    def channel_value(self, channel: TransferMatrix) -> float:
        """Robustness of the effects transported by a Heisenberg channel matrix."""
        return self._transported_value(channel)[2]

    def pulse_value(self, dt: float, amplitudes: Sequence[float]) -> float:
        return self.channel_value(
            _propagate_with_vjp(self.drift_generator, self.control_generator, dt, amplitudes)[0]
        )

    def pulse_value_and_gradient(
        self, dt: float, amplitudes: Sequence[float]
    ) -> tuple[float, np.ndarray]:
        """Cost and its exact amplitude gradient; zero gradient off the slopes.

        The gradient is zero on the non-steerable plateau (value 0) and
        where the implicit gradient raises NotDifferentiableError or
        DegenerateRootError.  Sharp transported effects, which only occur
        under noiseless dynamics, where the cost is locally constant, reach
        the root lam with a noisy Minkowski norm of about
        2 lam (1 - lam)(1 - |b|), so the gradient falls back to zero once
        1 - |b| < 1e-9 / (2 lam (1 - lam)): for the sharp x/z pair on the
        maximally entangled state, lam = 0.414 and the band is
        1 - |b| < 2.06e-9; at 1 - |b| = 1e-6 the gradient is computed.
        """
        channel, vjp = _propagate_with_vjp(
            self.drift_generator, self.control_generator, dt, amplitudes
        )
        y1, y2, value = self._transported_value(channel)
        if not 0.0 < value < 0.5:
            return value, np.zeros(len(amplitudes))
        try:
            g1, g2 = compat._gradient_at_root(y1, y2, self._b, value)
        except (NotDifferentiableError, DegenerateRootError):
            return value, np.zeros(len(amplitudes))
        # df/dc_k = sum_i (R^T g_i) @ dM/dc_k @ x_i.
        return value, vjp(np.array([g1, g2]) @ self.resource, self._cols)


def steering_robustness(s: SteeringScenario, p: PulseSequence) -> float:
    """Robustness of the scenario's effect pair after the pulsed dynamics.

    Nonzero iff the noisy setting is steerable.

    Raises:
        InternalConsistencyError: if a transported effect is invalid, which
            cannot happen for CPTP dynamics.
    """
    return s._evaluator.pulse_value(p.dt, p.amplitudes)


def steering_value_and_gradient(
    s: SteeringScenario, p: PulseSequence
) -> tuple[float, np.ndarray]:
    """Steering robustness and its exact gradient in the pulse amplitudes.

    A zero value flags the non-steerable plateau, where the gradient is
    zero by convention.
    """
    return s._evaluator.pulse_value_and_gradient(p.dt, p.amplitudes)
