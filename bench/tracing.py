"""Spans and input capture for the traced run, and the per-layer replay.

The traced run wraps, from outside the package, the calls a workload makes
into each layer: ``cli.run`` (wrapped by the harness), the ``control`` entry
points and the ``ScenarioEvaluator`` methods.  Each span records a name,
start, end and parent, and spans stay in memory until the run ends.

``compat``, ``lindblad`` and ``qubit_algebra`` are reached only through
private helpers, so they are not wrapped.  Instead the wrappers capture the
exact inputs the job evaluated (pulses, channel matrices and, through them,
transported effect pairs) and ``replay`` times those inputs through the
public functions of each layer.  Every replayed root must equal the in-job
value bit for bit, or the replay measures different work.

Only the process that runs the harness is traced.  Optimizer starts that a
process pool runs in workers (STEERCTL_THREADS > 1) are not; their time
shows as ``control.wait_ms``.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from steerctl import cli, compat, control, lindblad
from steerctl.control import OptimizeResult
from steerctl.errors import DegenerateRootError, NotDifferentiableError
from steerctl.qubit_algebra import FourVector, validate_effect
from steerctl.steering import ScenarioEvaluator

#: control entry points a workload reaches; cli imports them by name.
CONTROL_ENTRIES = ("optimize", "naive_optimize", "landscape", "time_sweep")

#: Entry points whose starts run in pool workers when STEERCTL_THREADS > 1.
POOLED_ENTRIES = ("control.optimize", "control.naive_optimize")

#: Replay at most this many captured pulses and channel pairs per run.
MAX_REPLAY_PULSES = 300
MAX_REPLAY_PAIRS = 3000


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Capture:
    """One evaluation a job made: its inputs and the value it returned.

    kind is "value_grad" or "value" (a pulse: dt and amplitudes) or
    "channel" (a Heisenberg channel matrix).
    """

    kind: str
    evaluator: ScenarioEvaluator
    value: float
    dt: float = 0.0
    amplitudes: np.ndarray | None = None
    channel: np.ndarray | None = None


class Tracer:
    """Spans and captures of one traced job."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.captures: list[Capture] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        return index

    def end(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        return span

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        index = self.begin(name)
        try:
            yield self.spans[index]
        finally:
            self.end(index)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.duration
        return [span.duration - c for span, c in zip(self.spans, child)]


def _control_wrapper(tracer: Tracer, name: str, original):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        index = tracer.begin("control." + name)
        try:
            result = original(*args, **kwargs)
        finally:
            span = tracer.end(index)
        if isinstance(result, OptimizeResult):
            span.attrs["starts"] = len(result.start_values)
            span.attrs["iterations"] = sum(result.iterations_per_start)
        return result

    return wrapper


def _value_grad_wrapper(tracer: Tracer, original):
    @functools.wraps(original)
    def wrapper(self, dt, amplitudes):
        index = tracer.begin("steering.value_grad")
        try:
            value, grad = original(self, dt, amplitudes)
        finally:
            span = tracer.end(index)
        amps = np.array(amplitudes, dtype=float)
        span.attrs["m"] = amps.size
        span.attrs["plateau"] = value == 0.0
        span.attrs["fallback"] = 0.0 < value < 0.5 and not np.any(grad)
        tracer.captures.append(Capture("value_grad", self, value, dt, amps))
        return value, grad

    return wrapper


def _value_wrapper(tracer: Tracer, original):
    @functools.wraps(original)
    def wrapper(self, dt, amplitudes):
        index = tracer.begin("steering.value")
        try:
            value = original(self, dt, amplitudes)
        finally:
            span = tracer.end(index)
        amps = np.array(amplitudes, dtype=float)
        span.attrs["m"] = amps.size
        tracer.captures.append(Capture("value", self, value, dt, amps))
        return value

    return wrapper


def _channel_wrapper(tracer: Tracer, original):
    @functools.wraps(original)
    def wrapper(self, channel):
        index = tracer.begin("steering.channel")
        try:
            value = original(self, channel)
        finally:
            tracer.end(index)
        tracer.captures.append(Capture("channel", self, value, channel=np.array(channel)))
        return value

    return wrapper


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Route the package's control and steering entry points through tracer."""
    patches: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, wrapper: Any) -> None:
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    try:
        for module in (cli, control):
            for name in CONTROL_ENTRIES:
                if hasattr(module, name):
                    patch(module, name, _control_wrapper(tracer, name, getattr(module, name)))
        ev = ScenarioEvaluator
        patch(ev, "pulse_value_and_gradient", _value_grad_wrapper(tracer, ev.pulse_value_and_gradient))
        patch(ev, "pulse_value", _value_wrapper(tracer, ev.pulse_value))
        patch(ev, "channel_value", _channel_wrapper(tracer, ev.channel_value))
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


# --- per-layer metrics -----------------------------------------------------


def job_layer_counts(tracer: Tracer, pooled: bool, output_bytes: int) -> dict[str, float]:
    """Per-job layer numbers from one traced job's spans.

    pooled says whether optimizer starts ran in pool workers; then the
    parent's own time inside optimize/naive_optimize is waiting, not work.
    """
    selfs = tracer.self_times()
    out = {
        "cli.self_ms": 0.0,
        "cli.output_bytes": float(output_bytes),
        "control.self_ms": 0.0,
        "control.wait_ms": 0.0,
        "control.starts": 0.0,
        "control.lbfgs_iters": 0.0,
        "steering.value_grad_calls": 0.0,
        "steering.value_calls": 0.0,
        "steering.channel_calls": 0.0,
        "steering.plateaus": 0.0,
        "steering.grad_fallbacks": 0.0,
        "lindblad.slot_expms": 0.0,
    }
    for span, self_s in zip(tracer.spans, selfs):
        name = span.name
        if name == "cli.run":
            out["cli.self_ms"] += 1e3 * self_s
        elif name.startswith("control."):
            key = "control.wait_ms" if pooled and name in POOLED_ENTRIES else "control.self_ms"
            out[key] += 1e3 * self_s
            out["control.starts"] += span.attrs.get("starts", 0)
            out["control.lbfgs_iters"] += span.attrs.get("iterations", 0)
        elif name == "steering.value_grad":
            out["steering.value_grad_calls"] += 1
            out["steering.plateaus"] += span.attrs["plateau"]
            out["steering.grad_fallbacks"] += span.attrs["fallback"]
            out["lindblad.slot_expms"] += span.attrs["m"]
        elif name == "steering.value":
            out["steering.value_calls"] += 1
            out["lindblad.slot_expms"] += span.attrs["m"]
        elif name == "steering.channel":
            out["steering.channel_calls"] += 1
    return out


def median_us(tracers: list[Tracer], name: str) -> float:
    """Median duration in microseconds of all spans called name; 0 if none."""
    durations = [s.duration for t in tracers for s in t.spans if s.name == name]
    return 1e6 * statistics.median(durations) if durations else 0.0


def _stride(items: list, limit: int) -> list:
    step = max(1, -(-len(items) // limit))
    return items[::step]


def _per_call_us(total_s: float, calls: int) -> float:
    return 1e6 * total_s / calls if calls else 0.0


def replay(tracer: Tracer) -> tuple[dict[str, float], int]:
    """Time one job's captured inputs through the public layer functions.

    Returns the per-layer replay metrics and the number of replayed roots
    that differ, in any bit, from the value the job computed.
    """
    pulses = _stride([c for c in tracer.captures if c.kind != "channel"], MAX_REPLAY_PULSES)
    channels = _stride([c for c in tracer.captures if c.kind == "channel"], MAX_REPLAY_PAIRS)

    # lindblad: the job's pulses, through both public propagators.
    replays = []
    for c in pulses:
        sc = c.evaluator.scenario
        replays.append((c, sc.drift, sc.control, lindblad.PulseSequence(c.dt, tuple(c.amplitudes))))
    pairs: list[tuple[ScenarioEvaluator, np.ndarray, float]] = []
    jac_s = prop_s = 0.0
    for c, drift, ctrl, pulse in replays:
        t0 = time.perf_counter()
        total, _ = lindblad.propagate_with_jacobian(drift, ctrl, pulse)
        t1 = time.perf_counter()
        plain = lindblad.propagate(drift, ctrl, pulse)
        t2 = time.perf_counter()
        jac_s += t1 - t0
        prop_s += t2 - t1
        # Each pulse kind is rebuilt by the propagator its evaluator used.
        pairs.append((c.evaluator, total if c.kind == "value_grad" else plain, c.value))
    pairs += [(c.evaluator, c.channel, c.value) for c in channels]

    # Transported effect pairs y_i = R M x_i, as ScenarioEvaluator forms them.
    effects = []
    for ev, channel, value in pairs:
        sc = ev.scenario
        y1 = ev.resource @ (channel @ sc.x1.as_array())
        y2 = ev.resource @ (channel @ sc.x2.as_array())
        effects.append((y1, y2, sc.b, value))

    t0 = time.perf_counter()
    for y1, y2, _, _ in effects:
        validate_effect(FourVector.from_array(y1))
        validate_effect(FourVector.from_array(y2))
    validate_s = time.perf_counter() - t0

    fpairs = [(FourVector.from_array(y1), FourVector.from_array(y2), b, v) for y1, y2, b, v in effects]
    roots = []
    t0 = time.perf_counter()
    for f1, f2, b, _ in fpairs:
        roots.append(compat.robustness(f1, f2, b))
    root_s = time.perf_counter() - t0
    mismatches = sum(r.hex() != float(v).hex() for r, (_, _, _, v) in zip(roots, fpairs))

    sloped = [(f1, f2, b) for f1, f2, b, v in fpairs if 0.0 < v < 0.5]
    t0 = time.perf_counter()
    for f1, f2, b in sloped:
        try:
            compat.robustness_gradient(f1, f2, b)
        except (NotDifferentiableError, DegenerateRootError):
            pass
    grad_s = time.perf_counter() - t0

    values = [c.value for c in tracer.captures]
    metrics = {
        "lindblad.jacobian_us": _per_call_us(jac_s, len(replays)),
        "lindblad.propagate_us": _per_call_us(prop_s, len(replays)),
        "compat.root_us": _per_call_us(root_s, len(fpairs)),
        "compat.grad_us": _per_call_us(grad_s, len(sloped)),
        "compat.compatible_frac": sum(v == 0.0 for v in values) / len(values) if values else 0.0,
        "qubit_algebra.validate_us": _per_call_us(validate_s, 2 * len(effects)),
    }
    return metrics, mismatches
