"""Exception hierarchy shared across the package.

Everything raised deliberately by this package derives from SteerctlError,
so callers (and the CLI) can tell domain failures apart from plain bugs.
"""


class SteerctlError(Exception):
    """Base class for all errors raised by steerctl."""


class InvalidEffectError(SteerctlError):
    """A 4-vector or 2x2 matrix does not describe a valid qubit effect."""


class NoiseInsufficientError(SteerctlError):
    """Classical noise up to the half-mixing point cannot restore compatibility."""


class DegenerateRootError(SteerctlError):
    """The compatibility functional is stationary in the noise weight at its root."""


class NotDifferentiableError(SteerctlError):
    """A gradient was requested at a point where the monotone is not differentiable."""


class UnsupportedStateError(SteerctlError):
    """The bipartite state is outside the supported class (rank-deficient marginal)."""


class InternalConsistencyError(SteerctlError):
    """An internally produced object failed a sanity check.

    Built-in dynamics always pass it.  A user-supplied drift generator that
    is not completely positive can fail it: its channel may send a valid
    effect to an invalid one.
    """
