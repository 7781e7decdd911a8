"""Joint measurability of qubit effect pairs and the noise-robustness monotone.

A pair of effects (x1, x2) is jointly measurable iff the functional

    C(x1, x2) = sqrt(<x1|x1><x1p|x1p><x2|x2><x2p|x2p>)
                - <x1|x1p><x2|x2p> + <x1|x2p><x1p|x2> + <x1|x2><x1p|x2p>

(all forms Minkowski, p marking complements) is nonnegative.  Mixing each
effect with biased classical noise,

    N_{lam,b}(x) = ((1-lam)*x0 + 2*lam*p, (1-lam)*x_vec),  p = (1+b)/2,

restores compatibility at some weight lam; the smallest such lam in (0, 1/2]
is the incompatibility robustness, zero for compatible pairs.

C depends on a pair only through five scalars (the two identity coefficients,
the two Bloch norms, and the Bloch overlap), and classical noise acts on those
scalars directly, so each trial weight costs one evaluation of C.  The
gradient of the robustness with respect to the effects follows from implicit
differentiation of C(N_lam(x1), N_lam(x2)) = 0 at the root, through the
partials of C in the same five scalars.

The root finder brackets the first sign change of C on a 64-point grid,
locates it by Illinois false position, and returns what bisecting the scan
bracket gives, reading the sign of C only inside a checked window around the
located root.

The scan reads every second grid point, and bisecting its two-step bracket
gives the one-step scan's root bit for bit: on this grid the bracket's
midpoint is the skipped grid point exactly, and C changes sign only once
along lam.  Noise composes as N_mu o N_lam = N_{lam+mu-lam*mu}, and
post-processing a jointly measurable pair keeps it jointly measurable, so
compatibility at lam implies it at every larger weight.

The root finder and the gradient both run on Python floats in a fixed
order, with no BLAS call, so their bits do not depend on the host's BLAS
kernel.
"""

from __future__ import annotations

import math

from .errors import (
    DegenerateRootError,
    InvalidEffectError,
    NoiseInsufficientError,
    NotDifferentiableError,
)
from .qubit_algebra import FourVector, validate_effect

#: C(x1, x2) >= -COMPAT_TOL counts as jointly measurable.
COMPAT_TOL = 1e-12

#: Absolute tolerance guaranteed for the located root of C along the noise
#: weight.  The returned root is the midpoint of a bracket at most
#: _BISECT_WIDTH wide, two orders tighter, across a sign change of C that was
#: evaluated, so finite differences of the robustness stay flat-noise free.
ROOT_TOL = 1e-12

_BISECT_WIDTH = 1e-14

#: False position narrows the scan bracket below this width; the checked
#: window reaches this far either side of the narrowed bracket's midpoint.
_WINDOW = 1e-13

#: Per-step shrink of the width the false-position bracket must keep below.
_PACE = 0.5**0.5

#: Number of equispaced scan points on [0, 1/2] used to bracket the root.
_SCAN_POINTS = 64

#: The scan grid lam_i = i * (1/2) / (_SCAN_POINTS - 1).
_SCAN_GRID = tuple(i * (0.5 / (_SCAN_POINTS - 1)) for i in range(_SCAN_POINTS))

#: Grid indices the scan reads in order: every second one, then the last.
_STRIDED_SCAN = (*range(2, _SCAN_POINTS - 1, 2), _SCAN_POINTS - 1)

#: Radicands in [-RADICAND_TOL, 0) are treated as rounding noise.
_RADICAND_TOL = 1e-12

#: Minkowski norms at the root must exceed this for differentiability.
_UNSHARP_TOL = 1e-9

#: |dC/dlam| below this at the root counts as a degenerate root.
_DEGENERATE_TOL = 1e-10


def _pair_scalars(
    x1: tuple[float, float, float, float], x2: tuple[float, float, float, float]
) -> tuple[float, float, float, float, float]:
    """The five scalars (a0, |a|^2, b0, |b|^2, a.b) determining C."""
    a0, a1, a2, a3 = x1
    b0, b1, b2, b3 = x2
    va = a1 * a1 + a2 * a2 + a3 * a3
    vb = b1 * b1 + b2 * b2 + b3 * b3
    d = a1 * b1 + a2 * b2 + a3 * b3
    return a0, va, b0, vb, d


def _c_scalar(a0: float, va: float, b0: float, vb: float, d: float) -> float:
    """C from the five pair scalars.  Raises on a radicand below -1e-12."""
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


def c_functional(x1: FourVector, x2: FourVector) -> float:
    """Compatibility functional C; the pair is jointly measurable iff C >= 0."""
    return _c_scalar(*_pair_scalars(x1.as_tuple(), x2.as_tuple()))


def is_jointly_measurable(x1: FourVector, x2: FourVector) -> bool:
    """True iff c_functional(x1, x2) >= -1e-12."""
    return c_functional(x1, x2) >= -COMPAT_TOL


def _smallest_root(
    a0: float, va: float, b0: float, vb: float, d: float, p: float
) -> float:
    """Smallest lam in (0, 1/2] with C = 0, or 0.0 if already compatible.

    Noise at weight lam maps the five scalars to
    (u*a0 + 2*lam*p, u^2*|a|^2, u*b0 + 2*lam*p, u^2*|b|^2, u^2*a.b) with
    u = 1 - lam, so each lam costs one call of _c_scalar.

    After the lam = 0 check, a scan of the 64-point grid brackets the first
    sign change of C.  It reads grid points 2, 4, ..., 62 and 63 and stops
    at the first one with C >= 0.  The first midpoint of that bracket is the
    skipped grid point, so bisecting it goes on as bisecting the one-step
    bracket a scan of every point would pick: C >= 0 is upward-closed in
    lam (see the module docstring).  Illinois false position then narrows
    the scan bracket below _WINDOW, and C is checked to be negative at
    _WINDOW below its midpoint and nonnegative at _WINDOW above it; if not,
    the window is the whole scan bracket.  Last, the scan bracket is
    bisected to _BISECT_WIDTH, reading the sign of C only at midpoints
    strictly inside the window: below it C counts as negative, above it as
    nonnegative.  So the result is the plain bisection's, bit for bit,
    unless C changes sign in the scan bracket outside the window, where the
    plain bisection's root would be arbitrary anyway.  Only signs of C
    decide it, never values, so pairs whose C agrees in sign but not in the
    last bits, such as mirror images, get the same root.
    """
    c_lo = _c_scalar(a0, va, b0, vb, d)
    if c_lo >= -COMPAT_TOL:
        return 0.0

    def c_at(lam: float) -> float:
        u = 1.0 - lam
        shift = 2.0 * lam * p
        u2 = u * u
        return _c_scalar(u * a0 + shift, u2 * va, u * b0 + shift, u2 * vb, u2 * d)

    lo = 0.0
    hi = None
    # Scan upward two grid steps at a time.
    for i in _STRIDED_SCAN:
        lam = _SCAN_GRID[i]
        c = c_at(lam)
        if c >= 0.0:
            hi, c_hi = lam, c
            break
        lo, c_lo = lam, c
    if hi is None:
        raise NoiseInsufficientError(
            "C is still negative at lam = 1/2; classical noise cannot restore compatibility"
        )
    scan_lo, scan_hi = lo, hi
    # Locate by Illinois false position.  Each iterate stays half a bisection
    # width inside the bracket, and a bisection step replaces it whenever
    # the bracket is wider than bisecting every second step would leave it,
    # which caps the locate at 78 steps, under twice the bisection's 41.
    pace = 2.0 * (hi - lo)
    moved = 0  # +1 after lo moved, -1 after hi moved
    while hi - lo >= _WINDOW:
        if hi - lo > pace:
            lam = 0.5 * (lo + hi)
        else:
            lam = (lo * c_hi - hi * c_lo) / (c_hi - c_lo)
            lam = min(max(lam, lo + 0.5 * _BISECT_WIDTH), hi - 0.5 * _BISECT_WIDTH)
        pace *= _PACE
        c = c_at(lam)
        if c < 0.0:
            lo, c_lo = lam, c
            if moved > 0:
                c_hi *= 0.5
            moved = 1
        else:
            hi, c_hi = lam, c
            if moved < 0:
                c_lo *= 0.5
            moved = -1
    # Check the window; the signs at the scan ends are already known.
    r = 0.5 * (lo + hi)
    w_lo = max(scan_lo, r - _WINDOW)
    w_hi = min(scan_hi, r + _WINDOW)
    if not (
        (w_lo == scan_lo or c_at(w_lo) < 0.0) and (w_hi == scan_hi or c_at(w_hi) >= 0.0)
    ):
        w_lo, w_hi = scan_lo, scan_hi
    # Replay the bisection of the scan bracket.
    lo, hi = scan_lo, scan_hi
    while hi - lo > _BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        if mid <= w_lo or (mid < w_hi and c_at(mid) < 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _robustness_tuples(
    x1: tuple[float, float, float, float],
    x2: tuple[float, float, float, float],
    b: float,
) -> float:
    """Root finder entry for callers that already hold raw components.

    Python floats keep every operation of the scan and the bisection off
    numpy's scalar machinery; np.float64 components give the same bits,
    only slower.
    """
    a0, va, b0, vb, d = _pair_scalars(x1, x2)
    return _smallest_root(a0, va, b0, vb, d, 0.5 * (1.0 + b))


def robustness(x1: FourVector, x2: FourVector, b: float = 0.0) -> float:
    """Incompatibility robustness of a valid effect pair under bias-b noise.

    Returns 0 for jointly measurable pairs, otherwise the smallest noise
    weight in (0, 1/2] restoring compatibility, located to 1e-12.

    Raises:
        InvalidEffectError: if either input is not a valid effect.
        NoiseInsufficientError: if C stays negative on all of [0, 1/2].
    """
    if not -1.0 < b < 1.0:
        raise ValueError(f"bias must lie in (-1, 1), got {b!r}")
    for name, x in (("x1", x1), ("x2", x2)):
        if not validate_effect(x):
            raise InvalidEffectError(f"{name} = {x} is not a valid effect")
    return _robustness_tuples(x1.as_tuple(), x2.as_tuple(), b)


def _gradient_at_root(
    x1: tuple[float, float, float, float],
    x2: tuple[float, float, float, float],
    b: float,
    lam: float,
) -> tuple[tuple[float, float, float, float], tuple[float, float, float, float]]:
    """(dI/dx1, dI/dx2) given the root lam in (0, 1/2) for the pair.

    Implicit differentiation of C(N(x1), N(x2)) = 0 through the partials
    of _c_scalar in the five noisy pair scalars.  Those are formed with the
    expressions of c_at in _smallest_root, so this differentiates the C the
    root finder evaluates.  Along lam, a0 and b0 change at the rates
    2p - x1_0 and 2p - x2_0, and |a|^2, |b|^2 and a.b, each u^2 times its
    noiseless value with u = 1 - lam, at -2/u times their own values.
    dI/dx_i is -(dC/dx_i) / (dC/dlam), where dC/dx1 is
    (u dC/da0, u^2 (2 dC/d|a|^2 a + dC/d(a.b) b)) with a, b the Bloch
    vectors of x1, x2, and dC/dx2 its mirror image.

    Raises:
        NotDifferentiableError: if a noisy effect at the root is sharp.
        DegenerateRootError: if C is stationary in lam at the root.
    """
    p = 0.5 * (1.0 + b)
    u = 1.0 - lam
    shift = 2.0 * lam * p
    u2 = u * u
    a0, va, b0, vb, d = _pair_scalars(x1, x2)
    # The noisy pair scalars, formed as c_at in _smallest_root forms them.
    a0, va, b0, vb, d = u * a0 + shift, u2 * va, u * b0 + shift, u2 * vb, u2 * d
    ta = 2.0 - a0
    tb = 2.0 - b0
    # Minkowski norms of both noisy effects and of their complements.
    na = a0 * a0 - va
    nap = ta * ta - va
    nb = b0 * b0 - vb
    nbp = tb * tb - vb
    if min(na, nap) <= _UNSHARP_TOL or min(nb, nbp) <= _UNSHARP_TOL:
        raise NotDifferentiableError(
            "a noisy effect at the root is sharp; the square root in C is not differentiable"
        )
    # The square root and the factors of the three products in _c_scalar.
    s = math.sqrt(na * nap * nb * nbp)
    qa = a0 * ta + va
    qb = b0 * tb + vb
    e1 = a0 * tb + d
    e2 = ta * b0 + d
    f1 = a0 * b0 - d
    f2 = ta * tb - d
    dc_a0 = s * (a0 / na - ta / nap) - (ta - a0) * qb + tb * e2 - b0 * e1 + b0 * f2 - tb * f1
    dc_b0 = s * (b0 / nb - tb / nbp) - (tb - b0) * qa + ta * e1 - a0 * e2 + a0 * f2 - ta * f1
    dc_va = -0.5 * s * (1.0 / na + 1.0 / nap) - qb
    dc_vb = -0.5 * s * (1.0 / nb + 1.0 / nbp) - qa
    dc_d = e1 + e2 - f1 - f2
    dc_dlam = (
        dc_a0 * (2.0 * p - x1[0])
        + dc_b0 * (2.0 * p - x2[0])
        - (2.0 / u) * (va * dc_va + vb * dc_vb + d * dc_d)
    )
    if abs(dc_dlam) < _DEGENERATE_TOL:
        raise DegenerateRootError(
            f"dC/dlam = {dc_dlam:.3e} at the root; implicit differentiation is ill-posed"
        )
    k = -u / dc_dlam
    g1 = (k * dc_a0, *(k * (u * (2.0 * dc_va * x1[i] + dc_d * x2[i])) for i in (1, 2, 3)))
    g2 = (k * dc_b0, *(k * (u * (2.0 * dc_vb * x2[i] + dc_d * x1[i])) for i in (1, 2, 3)))
    return g1, g2


def robustness_gradient(
    x1: FourVector, x2: FourVector, b: float = 0.0
) -> tuple[FourVector, FourVector]:
    """Exact gradient (dI/dx1, dI/dx2) of the robustness by implicit differentiation.

    Requires the robustness to lie strictly inside (0, 1/2) and both noisy
    effects at the root to be strictly unsharp.

    Raises:
        NotDifferentiableError: preconditions violated (compatible pairs
            included; callers treat the flat compatible region as gradient zero).
        DegenerateRootError: C stationary in the noise weight at the root.
    """
    lam = robustness(x1, x2, b)
    if not 0.0 < lam < 0.5:
        raise NotDifferentiableError(
            f"robustness {lam!r} is not in the open interval (0, 1/2)"
        )
    g1, g2 = _gradient_at_root(x1.as_tuple(), x2.as_tuple(), b, lam)
    return FourVector(*g1), FourVector(*g2)
