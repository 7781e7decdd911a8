"""Steering-robustness toolkit for noisy qubit measurement pairs.

Quantifies the steering resource of a bipartite qubit scenario through an
analytic incompatibility-robustness monotone, and maximizes it over
piecewise-constant control pulses acting against Markovian noise, with
exact gradients end to end.
"""

from .compat import (
    c_functional,
    is_jointly_measurable,
    robustness,
    robustness_gradient,
)
from .control import (
    LandscapeGrid,
    OptimizeConfig,
    OptimizeResult,
    SweepPoint,
    landscape,
    naive_optimize,
    optimize,
    time_sweep,
)
from .errors import (
    DegenerateRootError,
    InternalConsistencyError,
    InvalidEffectError,
    NoiseInsufficientError,
    NotDifferentiableError,
    SteerctlError,
    UnsupportedStateError,
)
from .lindblad import (
    ControlHamiltonian,
    DriftGenerator,
    PulseSequence,
    TransferMatrix,
    control_matrix,
    pauli_transfer_matrix,
    propagate,
    propagate_schrodinger,
    propagate_with_jacobian,
)
from .qubit_algebra import (
    BipartiteState,
    FourVector,
    sharp_effect,
    validate_effect,
)
from .steering import (
    ScenarioEvaluator,
    SteeringScenario,
    bob_marginal,
    resource_map,
    steering_robustness,
    steering_value_and_gradient,
)

__version__ = "0.1.0"

__all__ = [
    "BipartiteState",
    "ControlHamiltonian",
    "DegenerateRootError",
    "DriftGenerator",
    "FourVector",
    "InternalConsistencyError",
    "InvalidEffectError",
    "LandscapeGrid",
    "NoiseInsufficientError",
    "NotDifferentiableError",
    "OptimizeConfig",
    "OptimizeResult",
    "PulseSequence",
    "ScenarioEvaluator",
    "SteerctlError",
    "SteeringScenario",
    "SweepPoint",
    "TransferMatrix",
    "UnsupportedStateError",
    "bob_marginal",
    "c_functional",
    "control_matrix",
    "is_jointly_measurable",
    "landscape",
    "naive_optimize",
    "optimize",
    "pauli_transfer_matrix",
    "propagate",
    "propagate_schrodinger",
    "propagate_with_jacobian",
    "resource_map",
    "robustness",
    "robustness_gradient",
    "sharp_effect",
    "steering_robustness",
    "steering_value_and_gradient",
    "time_sweep",
    "validate_effect",
]
