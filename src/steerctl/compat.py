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

_robustness_tuples is the one front end.  It evaluates C at lam = 0 and
returns 0 for a pair with C >= -COMPAT_TOL there; for any other pair it
hands C along the noise (_along_noise) and that value at lam = 0 to one of
two root finders, picked by one exact test.  The finders only narrow a
bracket: each checks lam = 1/2 its own way, and both run one loop, Illinois
false position with trial points on a grid of 2**-47 (_false_position).

- Unbiased noise (p == 1/2) with both identity coefficients exactly 1:
  _smallest_root, which brackets the first sign change of C on a 64-point
  grid, reading lam = 1/2 last, runs the loop on that bracket, and returns
  what bisecting the scan bracket gives, reading the sign of C only inside
  a checked window around the located root, about 19 evaluations of C per
  root.  Every pair of a unital drift such as dephasing under unbiased
  noise is such a pair.
- Every other pair: _grid_root, which reads lam = 1/2 first, runs the loop
  on [0, 1/2] down to one grid step and returns that step's midpoint, about
  10 evaluations of C per root.  Amplitude damping's transported pairs,
  under any bias, are such pairs.

The front end takes effects that its callers have checked at EFFECT_TOL.
The pairs left to _smallest_root have a closed form of their own,
1 - 2/(|a+b| + |a-b|) (P. Busch, Phys. Rev. D 33, 2253 (1986)), which is to
replace it; _smallest_root remains only because the benchmark keeps each
job's output, so a faster landscape job, where every pair is such a pair,
would run more jobs in its window and hold more memory.  Both finders
return the midpoint of a bracket at most _BISECT_WIDTH wide across a sign
change of the same computed C, so they agree within about that wherever C
changes sign once.

Noise composes as N_mu o N_lam = N_{lam+mu-lam*mu}, and post-processing a
jointly measurable pair keeps it jointly measurable, so compatibility at
lam implies it at every larger weight: C changes sign once along lam.  So
the grid root is the grid step across that sign change, whichever points
the values of C led false position to, and _smallest_root's scan may read
every second grid point: bisecting its two-step bracket gives the one-step
scan's root bit for bit, since on this grid the bracket's midpoint is the
skipped grid point exactly.  Both finders decide by signs of C alone, never
by its values, so pairs whose C agrees in sign but not in the last bits,
such as mirror images, get the same root.

The root finder and the gradient both run on Python floats in a fixed
order, with no BLAS call, so their bits do not depend on the host's BLAS
kernel.
"""

from __future__ import annotations

import math
from typing import Callable

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

#: False position rounds its trial points to multiples of this power of two
#: below _BISECT_WIDTH; _grid_root returns the midpoint of two adjacent ones.
_GRID = 2.0**-47

#: The doubles in [32, 64) are the multiples of _GRID there, so for lam in
#: [0, 1/2], (lam + _GRID_SHIFT) - _GRID_SHIFT is lam rounded to the grid,
#: to nearest with ties to even.
_GRID_SHIFT = 48.0

#: Steps _grid_root's false position takes at most: its bracket, 1/2 wide
#: at first, is a multiple of _GRID and at most _PACE**k + _GRID wide after
#: step k = 0, 1, ..., so one grid step wide once _PACE**k < _GRID.
_GRID_STEPS = 2 + round(math.log(_GRID, _PACE))

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


def _along_noise(
    a0: float, va: float, b0: float, vb: float, d: float, p: float
) -> Callable[[float], float]:
    """C at noise weight lam for the pair with these five scalars, bias p.

    Noise at weight lam maps the five scalars to
    (u*a0 + 2*lam*p, u^2*|a|^2, u*b0 + 2*lam*p, u^2*|b|^2, u^2*a.b) with
    u = 1 - lam, so each lam costs one call of _c_scalar.
    """

    def c_at(lam: float) -> float:
        u = 1.0 - lam
        shift = 2.0 * lam * p
        u2 = u * u
        return _c_scalar(u * a0 + shift, u2 * va, u * b0 + shift, u2 * vb, u2 * d)

    return c_at


def _false_position(
    c_at: Callable[[float], float], lo: float, c_lo: float, hi: float, c_hi: float, width: float
) -> tuple[float, float]:
    """Narrow [lo, hi], c_at(lo) = c_lo < 0 <= c_hi = c_at(hi), to at most width.

    Illinois false position (M. Dowell and P. Jarratt, BIT 11, 168
    (1971)), reading c_at once per step.  Each trial point is rounded to a
    multiple of _GRID, and one that rounds onto or past an end of the
    bracket moves _GRID inside it.  A bisection step replaces false position
    whenever the bracket is wider than bisecting every second step would
    leave it (_PACE), so after step k = 0, 1, ... the bracket is at most
    twice its first width times _PACE**k, plus _GRID: on a scan bracket the
    loop ends within 78 steps at _WINDOW, under twice the bisection's 41.
    """
    pace = 2.0 * (hi - lo)
    moved = 0  # +1 after lo moved, -1 after hi moved
    while hi - lo > width:
        if hi - lo > pace:
            lam = 0.5 * (lo + hi)
        else:
            lam = (lo * c_hi - hi * c_lo) / (c_hi - c_lo)
        pace *= _PACE
        lam = (lam + _GRID_SHIFT) - _GRID_SHIFT
        if lam <= lo:
            lam = lo + _GRID
        elif lam >= hi:
            lam = hi - _GRID
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
    return lo, hi


def _grid_root(c_at: Callable[[float], float], c_lo: float) -> float:
    """Smallest lam in (0, 1/2] with c_at(lam) = 0, given c_at(0) = c_lo < -COMPAT_TOL.

    Serves every pair but the unbiased unit-identity ones.  After the check
    at lam = 1/2, which raises NoiseInsufficientError where _smallest_root's
    scan does, _false_position narrows [0, 1/2] to one grid step; its
    midpoint is the root.  Every trial point is a grid point, so the loop
    ends within _GRID_STEPS steps, on the grid step across the sign change
    of the computed C.
    """
    c_hi = c_at(0.5)
    if c_hi < 0.0:
        raise NoiseInsufficientError(
            "C is still negative at lam = 1/2; classical noise cannot restore compatibility"
        )
    lo, hi = _false_position(c_at, 0.0, c_lo, 0.5, c_hi, _GRID)
    return 0.5 * (lo + hi)


def _smallest_root(c_at: Callable[[float], float], c_lo: float) -> float:
    """Smallest lam in (0, 1/2] with c_at(lam) = 0, given c_at(0) = c_lo < -COMPAT_TOL.

    Serves unbiased noise with both identity coefficients exactly 1, the
    pairs the closed form 1 - 2/(|a+b| + |a-b|) covers.  A scan of the
    64-point grid brackets the first sign change of C.  It reads grid
    points 2, 4, ..., 62 and 63 and stops at the first one with C >= 0
    (see the module docstring).
    _false_position then narrows the scan bracket to _WINDOW, and C is
    checked to be negative at _WINDOW below its midpoint and nonnegative at
    _WINDOW above it; if not, the window is the whole scan bracket.  Last,
    the scan bracket is bisected to _BISECT_WIDTH, reading the sign of C
    only at midpoints strictly inside the window: below it C counts as
    negative, above it as nonnegative.  So the result is the plain
    bisection's, bit for bit, unless C changes sign in the scan bracket
    outside the window, where the plain bisection's root would be arbitrary
    anyway.
    """
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
    lo, hi = _false_position(c_at, lo, c_lo, hi, c_hi, _WINDOW)
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

    Both effects must lie in the cone at EFFECT_TOL
    (qubit_algebra._in_effect_cone), as robustness and
    ScenarioEvaluator._transported_value check them first.  C at lam = 0
    decides compatibility; an incompatible pair's C along the noise goes,
    with that value, to _smallest_root under unbiased noise with both
    identity coefficients exactly 1, and to _grid_root otherwise.  Python
    floats keep every operation off numpy's scalar machinery; np.float64
    components give the same bits, only slower.
    """
    a0, va, b0, vb, d = _pair_scalars(x1, x2)
    c_lo = _c_scalar(a0, va, b0, vb, d)
    if c_lo >= -COMPAT_TOL:
        return 0.0
    p = 0.5 * (1.0 + b)
    c_at = _along_noise(a0, va, b0, vb, d, p)
    if p == 0.5 and a0 == 1.0 and b0 == 1.0:
        return _smallest_root(c_at, c_lo)
    return _grid_root(c_at, c_lo)


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
    expressions of _along_noise, so this differentiates the C both root
    finders evaluate, at whichever root they returned.  Along lam, a0 and
    b0 change at the rates 2p - x1_0 and 2p - x2_0, and |a|^2, |b|^2 and
    a.b, each u^2 times its noiseless value with u = 1 - lam, at -2/u times
    their own values.  dI/dx_i is -(dC/dx_i) / (dC/dlam), where dC/dx1 is
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
    # The noisy pair scalars, formed as _along_noise forms them.
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
