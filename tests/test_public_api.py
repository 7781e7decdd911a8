"""The package's public surface: exactly the names its callers use."""

import importlib

import pytest

import steerctl

PUBLIC_NAMES = [
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

#: Names no module defines; tests that need one as an oracle use conftest.
GONE = [
    "Assemblage",
    "HermitianMatrix2",
    "NoiseParams",
    "apply_noise",
    "assemblage",
    "complement",
    "effect_from_matrix",
    "effect_to_matrix",
    "is_unital",
    "minkowski",
    "include_zero_start",
]

MODULES = ["cli", "compat", "control", "errors", "lindblad", "qubit_algebra", "steering"]


def test_all_lists_exactly_the_public_names():
    assert sorted(steerctl.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(steerctl, name) is not None


@pytest.mark.parametrize("module", ["__init__"] + MODULES)
def test_removed_names_are_gone(module):
    mod = steerctl if module == "__init__" else importlib.import_module(f"steerctl.{module}")
    for name in GONE:
        assert not hasattr(mod, name), f"steerctl.{module} still defines {name}"


def test_optimize_config_has_no_zero_start_switch():
    assert not hasattr(steerctl.OptimizeConfig(T=1.0), "include_zero_start")


def test_optimize_config_has_no_gradient_tolerance():
    assert not hasattr(steerctl.OptimizeConfig(T=1.0), "grad_tol")
