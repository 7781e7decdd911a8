"""Pulse optimization of the steering robustness and related scans.

Both optimizers are one multi-start driver handed a cost: projected
quasi-Newton descent (L-BFGS-B, box bounds on the amplitudes) from many
random starts plus the zero pulse, with the cost's exact gradient
throughout.  The direct optimizer's cost is the negated steering
robustness, one ScenarioEvaluator.pulse_value_and_gradient call per
evaluation; its random starts that end on the non-steerable plateau redraw
a bounded number of times.  The naive baseline's cost is the Frobenius
distance of the Schrodinger transfer matrix from the identity, and its
starts never redraw.  Each descent keeps 20 correction pairs instead of
scipy's default 10, which cuts the cost evaluations per start by about a
sixth.  L-BFGS-B asks for the value and the gradient separately, so the
value call keeps the gradient and the gradient call at the same point takes
it from there (_descend).  One rule reports every start: the best start has
the lowest cost, and each start's value is the steering robustness of the
pulse it ends on.

Every random choice is drawn from a generator seeded by (seed, start index),
so results are deterministic and independent of execution order.  Starts may
run in parallel processes when the STEERCTL_THREADS environment variable is
set above 1; the reduction over starts is order-independent, so parallel and
serial runs return identical results.  Every start, landscape and sweep
evaluates through the scenario's one ScenarioEvaluator: serial starts share
it, and the direct optimizer's pool workers receive it pickled with its cost.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, replace
from functools import partial
from typing import Sequence

import numpy as np

from .lindblad import PulseSequence, _count, _non_finite, _propagate_with_vjp, _slot_factors
from .steering import ScenarioEvaluator, SteeringScenario

#: Environment variable selecting the number of parallel start workers.
THREADS_ENV = "STEERCTL_THREADS"

#: Starts landing on the flat non-steerable plateau redraw this many times.
_FLAT_RESTARTS = 8

#: Relative objective-decrease floor passed to L-BFGS-B; progress below the
#: root-finder resolution cannot be trusted, so iteration stops there.
_FTOL = 1e-12

#: Bound on the max-norm of the projected gradient passed to L-BFGS-B, so
#: boundary points with an outward-pointing gradient terminate correctly.
_GTOL = 1e-6

#: L-BFGS-B correction pairs.  20 instead of scipy's 10 cuts the evaluations
#: of a 20-amplitude start by about a sixth; the driver's own work per step
#: grows with the memory, so it stays a constant rather than a rule in m.
_MEMORY = 20

@dataclass(frozen=True)
class OptimizeConfig:
    """Multi-start settings; T is the total evolution time m * dt."""

    T: float
    m: int = 20
    amp_bounds: tuple[float, float] = (-15.0, 15.0)
    n_starts: int = 100
    seed: int = 0
    max_iters: int = 200

    def __post_init__(self) -> None:
        object.__setattr__(self, "T", float(self.T))
        lo, hi = (float(v) for v in self.amp_bounds)
        object.__setattr__(self, "amp_bounds", (lo, hi))
        for name in ("m", "n_starts", "seed", "max_iters"):
            object.__setattr__(self, name, _count(name, getattr(self, name)))
        # m and n_starts size tuples, arrays and ranges, none of which can be
        # longer than sys.maxsize.
        for name in ("m", "n_starts"):
            if getattr(self, name) > sys.maxsize:
                raise ValueError(f"{name} must be <= {sys.maxsize}")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not 0.0 < self.T < np.inf:
            raise ValueError("T must be finite and > 0")
        # A finite width keeps rng.uniform(lo, hi) from overflowing.
        if not (lo < hi and np.isfinite(hi - lo)):
            raise ValueError("amp_bounds must satisfy min < max with a finite width")
        if self.n_starts < 1:
            raise ValueError("n_starts must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        # numpy seeds only from nonnegative integers; check here, before any run.
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    @property
    def dt(self) -> float:
        return self.T / self.m


@dataclass(frozen=True, eq=False)
class OptimizeResult:
    """Best pulse over all starts, with per-start diagnostics.

    start_values holds the steering robustness of the pulse each start ends
    on, the zero start first.  One rule serves both optimizers: the best
    start is the first with the lowest cost, and best_value is its entry of
    start_values.  For the direct optimizer, whose cost is the negated
    robustness, that is their maximum; for the naive baseline it is the
    robustness of the pulse with the smallest distance-to-identity.  The
    other per-start tuples follow the same order:
    a start's iterations and evaluations (cost-and-gradient calls) sum over
    its L-BFGS-B descents, it runs 1 descent plus its plateau redraws, and
    its status is scipy's L-BFGS-B status of the descent it kept (0
    converged, 1 iteration or evaluation limit reached, 2 stopped otherwise,
    such as a failed line search).
    """

    best_pulse: PulseSequence
    best_value: float
    start_values: tuple[float, ...]
    iterations_per_start: tuple[int, ...]
    evaluations_per_start: tuple[int, ...]
    descents_per_start: tuple[int, ...]
    status_per_start: tuple[int, ...]
    baseline_value: float


@dataclass(frozen=True, eq=False)
class LandscapeGrid:
    """Steering robustness of the drift-then-two-pulses scheme on a grid."""

    t_drift: float
    T: float
    c1_axis: np.ndarray
    c2_axis: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        c1 = np.asarray(self.c1_axis, dtype=float)
        c2 = np.asarray(self.c2_axis, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (c1.size, c2.size):
            raise ValueError(
                f"values shape {vals.shape} does not match axes ({c1.size}, {c2.size})"
            )
        if not np.isfinite(vals).all():
            raise ValueError("landscape values must be finite")
        if vals.min() < -1e-12 or vals.max() > 0.5 + 1e-12:
            raise ValueError("landscape values outside the monotone range [0, 1/2]")
        for name, arr in (("c1_axis", c1), ("c2_axis", c2), ("values", vals)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "t_drift", float(self.t_drift))
        object.__setattr__(self, "T", float(self.T))

    @property
    def max_value(self) -> float:
        return float(self.values.max())

    @property
    def argmax(self) -> tuple[float, float]:
        i, j = np.unravel_index(int(np.argmax(self.values)), self.values.shape)
        return float(self.c1_axis[i]), float(self.c2_axis[j])

    @property
    def maximizers(self) -> list[tuple[float, float]]:
        """All grid cells attaining the exact maximum value.

        The two-pulse landscape is invariant under negating both amplitudes
        whenever the measurement axes avoid sigma_y and the noise is
        unbiased, so the peak typically appears as a mirror pair of cells.
        The invariance holds only up to rounding (the compatibility
        functional adds the mirrored effects' overlap terms in a fixed
        order, so mirror cells can differ by a few 1e-15), and a peak's
        mirror cell may be missing from this list.
        ``argmax`` keeps the first cell in row major order; callers that
        care about a particular lobe should scan this list instead.
        """
        out: list[tuple[float, float]] = []
        top = self.values.max()
        for i, j in zip(*np.nonzero(self.values == top)):
            out.append((float(self.c1_axis[i]), float(self.c2_axis[j])))
        return out


@dataclass(frozen=True)
class SweepPoint:
    """One total-time sample of the uncontrolled/naive/optimized comparison."""

    T: float
    uncontrolled: float
    naive: float
    optimized: float


def _worker_count() -> int:
    """Parallel start workers from STEERCTL_THREADS; unset or empty means 1.

    Raises:
        ValueError: if the variable is set to anything but a positive integer.
    """
    raw = os.environ.get(THREADS_ENV, "").strip()
    if not raw:
        return 1
    if not raw.isdecimal() or int(raw) < 1:
        raise ValueError(f"{THREADS_ENV} must be a positive integer, got {raw!r}")
    return int(raw)


@dataclass
class _Descent:
    x: np.ndarray
    value: float
    iterations: int
    evaluations: int
    status: int


def _descend(fun_and_grad, x0, bounds, max_iters) -> _Descent:
    """Bounded L-BFGS-B minimization from x0 clipped into the box.

    L-BFGS-B gets the value and the gradient as two callables over a
    one-entry memo: the value call runs fun_and_grad once and keeps the
    gradient with the point's bytes, and the gradient call at that point
    hands it over.  A gradient asked for at any other point is evaluated
    afresh, so no stale gradient is returned.  The descent is that of
    minimize(jac=True) bit for bit, without the per-call point comparisons
    and copy of scipy's wrapper.  It keeps _MEMORY correction pairs and
    reports scipy's iteration count and status, and its own count of
    fun_and_grad calls.
    """
    # Imported on first use: scipy.optimize adds about 50 MB of resident
    # memory, which commands that never optimize should not carry.
    from scipy.optimize import minimize

    lo, hi = bounds
    x0 = np.clip(np.asarray(x0, dtype=float), lo, hi)
    last_point = last_grad = None
    evaluations = 0

    def fun(x: np.ndarray) -> float:
        nonlocal last_point, last_grad, evaluations
        value, last_grad = fun_and_grad(x)
        last_point = x.tobytes()
        evaluations += 1
        return value

    def jac(x: np.ndarray) -> np.ndarray:
        if x.tobytes() != last_point:
            fun(x)
        return last_grad

    result = minimize(
        fun,
        x0,
        jac=jac,
        method="L-BFGS-B",
        bounds=[(lo, hi)] * x0.size,
        options={"maxiter": max_iters, "gtol": _GTOL, "ftol": _FTOL, "maxcor": _MEMORY},
    )
    return _Descent(
        np.asarray(result.x, dtype=float),
        float(result.fun),
        int(result.nit),
        evaluations,
        int(result.status),
    )


def _identity_distance(
    l0: np.ndarray, k: np.ndarray, dt: float, amplitudes: Sequence[float]
) -> tuple[float, np.ndarray]:
    """Squared Frobenius distance of the Schrodinger transfer matrix from I, and its gradient.

    With diff = M^T - I the cost is sum(diff * diff) and its derivative in
    c_k is 2 tr(diff @ dM/dc_k): an adjoint contraction with rows diff and
    columns I.
    """
    channel, vjp = _propagate_with_vjp(l0, k, dt, amplitudes)
    eye = np.eye(4)
    diff = channel.T - eye
    return float(np.sum(diff * diff)), 2.0 * vjp(diff, eye)


def _negated_value_and_gradient(
    evaluator: ScenarioEvaluator, dt: float, amplitudes: Sequence[float]
) -> tuple[float, np.ndarray]:
    """The direct optimizer's cost: minus the steering robustness, and its gradient."""
    value, grad = evaluator.pulse_value_and_gradient(dt, amplitudes)
    return -value, -grad


def _solve_one_start(
    cost, redraws: int, cfg: OptimizeConfig, index: int
) -> tuple[np.ndarray, float, int, int, int, int]:
    """Minimize cost from one start; index -1 is the zero-pulse start.

    A random start whose descent ends at cost 0 or above, the flat
    non-steerable plateau of the direct cost, redraws within the box up to
    redraws times and keeps its lowest descent.  Returns (pulse, cost,
    iterations, evaluations, descents, status): the counts sum over
    descents, and pulse, cost and status are the kept descent's.
    """
    lo, hi = cfg.amp_bounds
    rng = None if index < 0 else np.random.default_rng([cfg.seed, index])
    iterations = evaluations = 0
    for tries in range((0 if rng is None else redraws) + 1):
        x0 = np.zeros(cfg.m) if rng is None else rng.uniform(lo, hi, cfg.m)
        run = _descend(cost, x0, cfg.amp_bounds, cfg.max_iters)
        iterations += run.iterations
        evaluations += run.evaluations
        if tries == 0 or run.value < best.value:
            best = run
        if best.value < 0.0:
            break
    return best.x, best.value, iterations, evaluations, tries + 1, best.status


def _multi_start(s: SteeringScenario, cfg: OptimizeConfig, cost, redraws: int) -> OptimizeResult:
    """Minimize cost from the zero pulse and cfg.n_starts random starts.

    The best start is the first with the lowest cost, and every start's
    value is the steering robustness of the pulse it ends on.
    """
    evaluator = s._evaluator
    dt = cfg.dt
    baseline = evaluator.pulse_value(dt, (0.0,) * cfg.m)
    indices = [-1] + list(range(cfg.n_starts))
    solve = partial(_solve_one_start, cost, redraws, cfg)
    workers = _worker_count()
    if workers > 1:
        # Imported on first use, like scipy.optimize in _descend: the pool
        # machinery costs about 1.6 MB resident, which serial runs skip.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(solve, indices))
    else:
        outcomes = list(map(solve, indices))
    pulses, costs, iterations, evaluations, descents, status = zip(*outcomes)
    start_values = tuple(evaluator.pulse_value(dt, x) for x in pulses)
    best_index = int(np.argmin(costs))
    return OptimizeResult(
        best_pulse=PulseSequence(dt, tuple(float(c) for c in pulses[best_index])),
        best_value=float(start_values[best_index]),
        start_values=start_values,
        iterations_per_start=iterations,
        evaluations_per_start=evaluations,
        descents_per_start=descents,
        status_per_start=status,
        baseline_value=float(baseline),
    )


def optimize(s: SteeringScenario, cfg: OptimizeConfig) -> OptimizeResult:
    """Maximize the steering robustness over bounded pulse sequences.

    Projected quasi-Newton ascent with the exact gradient from each start;
    deterministic given (scenario, cfg).  Starts on the non-steerable
    plateau report 0 after a bounded number of random restarts.
    """
    cost = partial(_negated_value_and_gradient, s._evaluator, cfg.dt)
    return _multi_start(s, cfg, cost, _FLAT_RESTARTS)


def naive_optimize(s: SteeringScenario, cfg: OptimizeConfig) -> OptimizeResult:
    """Drive the Schrodinger transfer matrix toward the identity instead.

    Same start set as optimize; best_value is the steering robustness of
    the pulse with the smallest Frobenius distance to the identity.
    """
    ev = s._evaluator
    cost = partial(_identity_distance, ev.drift_generator, ev.control_generator, cfg.dt)
    return _multi_start(s, cfg, cost, 0)


def _drift_window(t_drift: float, T: float) -> tuple[float, float]:
    """(t_drift, T) as floats, checked: 0 <= t_drift < T < inf.

    landscape checks its arguments with it, and the CLI a landscape block
    when it builds the run, before any command runs.
    """
    t_drift, T = float(t_drift), float(T)
    if not 0.0 <= t_drift < T < np.inf:
        raise ValueError(f"need 0 <= t_drift < T < inf, got t_drift={t_drift}, T={T}")
    return t_drift, T


def landscape(
    s: SteeringScenario,
    t_drift: float,
    T: float,
    c1_axis: Sequence[float],
    c2_axis: Sequence[float],
) -> LandscapeGrid:
    """Robustness of drift for t_drift then two equal-length pulse slots.

    The channel at grid point (c1, c2) applies the drift to the effects
    first, then the c1 slot, then the c2 slot, each of length
    (T - t_drift)/2.  Every factor is a pulse slot exponential, so at
    t_drift = 0 a cell is the two-slot pulse (c1, c2)'s value bit for bit.
    """
    t_drift, T = _drift_window(t_drift, T)
    c1s = np.asarray(c1_axis, dtype=float)
    c2s = np.asarray(c2_axis, dtype=float)
    for name, axis in (("c1_axis", c1s), ("c2_axis", c2s)):
        if axis.ndim != 1 or axis.size == 0 or not np.isfinite(axis).all():
            raise ValueError(f"{name} must be a nonempty 1-D sequence of finite amplitudes")
    evaluator = s._evaluator
    l0 = evaluator.drift_generator
    k = evaluator.control_generator
    dt = 0.5 * (T - t_drift)

    # The drift window is a zero-amplitude slot of length t_drift.
    drift_part = _slot_factors(l0, k, t_drift, [0.0])[0]
    # Both axes' distinct amplitudes in one stack, so a center they share is
    # built once; each axis keeps its indices into it.  Only the slot
    # factors are kept, so no [E | F] stack of a whole axis is held.
    amps, where = np.unique(np.concatenate([c1s, c2s]), return_inverse=True)
    slots = _slot_factors(l0, k, dt, amps)
    rows, cols = where[: c1s.size].tolist(), where[c1s.size :].tolist()
    values = np.empty((c1s.size, c2s.size))
    try:
        for i, row in enumerate(rows):
            head = drift_part @ slots[row]
            for j, col in enumerate(cols):
                values[i, j] = evaluator.channel_value(head @ slots[col])
    except (RuntimeWarning, FloatingPointError) as exc:
        # Slots of a drift that is not completely positive can overflow.
        raise _non_finite(exc) from None
    return LandscapeGrid(t_drift=t_drift, T=T, c1_axis=c1s, c2_axis=c2s, values=values)


def time_sweep(
    s: SteeringScenario, cfg: OptimizeConfig, t_grid: Sequence[float]
) -> list[SweepPoint]:
    """Uncontrolled, naive, and optimized robustness for each total time.

    cfg.T is ignored; each grid point replaces it.  The uncontrolled column
    uses the zero pulse.
    """
    rows = []
    for t in t_grid:
        cfg_t = replace(cfg, T=float(t))
        naive = naive_optimize(s, cfg_t).best_value
        optimized = optimize(s, cfg_t)
        rows.append(
            SweepPoint(
                T=float(t),
                uncontrolled=optimized.baseline_value,
                naive=float(naive),
                optimized=optimized.best_value,
            )
        )
    return rows
