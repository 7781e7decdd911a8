"""Qubit effects in the Minkowski 4-vector representation.

A binary-POVM effect A with 0 <= A <= Id is encoded as the real 4-vector
x = (x0, x1, x2, x3) through A = (x0*Id + x.sigma)/2.  Effect validity is
membership of x and its complement x_perp = (2 - x0, -x_vec) in the forward
cone of the Minkowski form <x|y> = x0*y0 - x1*y1 - x2*y2 - x3*y3.

The Pauli basis order (Id, sigma_x, sigma_y, sigma_z) is fixed here and is
used by every 4x4 transfer matrix in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InvalidEffectError

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

#: Fixed basis order; index 0 is the identity.
PAULI_BASIS = (SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z)

#: Tolerance on Minkowski norms when deciding effect validity.
EFFECT_TOL = 1e-10

_STATE_TOL = 1e-10


@dataclass(frozen=True)
class FourVector:
    """Effect A = (x0*Id + x.sigma)/2 as its Pauli coefficients."""

    x0: float
    x1: float
    x2: float
    x3: float

    def __post_init__(self) -> None:
        # Components are stored as Python floats, so arithmetic on them
        # never goes through numpy's scalar types.
        for name in ("x0", "x1", "x2", "x3"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise InvalidEffectError(f"non-finite component {name}={value!r}")
            object.__setattr__(self, name, value)

    @classmethod
    def from_array(cls, arr: Iterable[float]) -> "FourVector":
        return cls(*np.asarray(arr, dtype=float).reshape(4).tolist())

    def as_array(self) -> np.ndarray:
        return np.array([self.x0, self.x1, self.x2, self.x3])

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x0, self.x1, self.x2, self.x3)


def _in_effect_cone(x: tuple[float, float, float, float], tol: float = EFFECT_TOL) -> bool:
    """True iff the raw components x and their complement lie in the forward cone.

    The cone arithmetic behind validate_effect, on Python floats, for
    callers that hold an effect as a 4-tuple.  A NaN component fails every
    comparison, so it counts as outside the cone; callers that must report
    non-finite components as such check finiteness first.
    """
    x0, x1, x2, x3 = x
    v = x1 * x1 + x2 * x2 + x3 * x3
    t0 = 2.0 - x0
    return x0 >= -tol and t0 >= -tol and x0 * x0 - v >= -tol and t0 * t0 - v >= -tol


def validate_effect(x: FourVector, tol: float = EFFECT_TOL) -> bool:
    """True iff x and its complement lie in the forward cone.

    Equivalent to 0 <= A <= Id on the matrix form; boundary (sharp)
    effects count as valid.  The pulsed steering evaluator runs the same
    check on raw 4-tuples, without building a FourVector.
    """
    return _in_effect_cone(x.as_tuple(), tol)


def sharp_effect(axis: Iterable[float]) -> FourVector:
    """Rank-one projector effect (1, n) for the unit vector n along axis."""
    n = np.asarray(axis, dtype=float).reshape(3)
    norm = float(np.linalg.norm(n))
    if norm == 0.0 or not np.isfinite(norm):
        raise InvalidEffectError("axis must be a nonzero finite 3-vector")
    n = n / norm
    return FourVector(1.0, n[0], n[1], n[2])


@dataclass(frozen=True, eq=False)
class BipartiteState:
    """Two-qubit density matrix in the product basis |00>,|01>,|10>,|11>."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        rho = np.asarray(self.matrix, dtype=complex)
        if rho.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
        if np.max(np.abs(rho - rho.conj().T)) > _STATE_TOL:
            raise ValueError("state matrix is not Hermitian within tolerance")
        if abs(np.trace(rho).real - 1.0) > _STATE_TOL or abs(np.trace(rho).imag) > _STATE_TOL:
            raise ValueError("state matrix does not have unit trace")
        eigs = np.linalg.eigvalsh(rho)
        if eigs[0] < -_STATE_TOL:
            raise ValueError(f"state matrix is not positive semidefinite (min eig {eigs[0]:.3e})")
        rho = rho.copy()
        rho.setflags(write=False)
        object.__setattr__(self, "matrix", rho)

    @classmethod
    def max_entangled(cls) -> "BipartiteState":
        """(|00> + |11>)/sqrt(2) as a density matrix."""
        psi = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
        return cls(np.outer(psi, psi.conj()))

    @classmethod
    def werner(cls, v: float) -> "BipartiteState":
        """Isotropic mixture v*|Phi+><Phi+| + (1 - v)*Id/4."""
        v = float(v)
        return cls(v * cls.max_entangled().matrix + (1.0 - v) * np.eye(4) / 4.0)

    @classmethod
    def product(cls, rho_a: np.ndarray, rho_b: np.ndarray) -> "BipartiteState":
        """Tensor product of two single-qubit density matrices."""
        return cls(np.kron(np.asarray(rho_a, dtype=complex), np.asarray(rho_b, dtype=complex)))
