"""Run one benchmark workload in-process through steerctl.cli.run.

    python3 bench/run.py --workload optimize-ad --seed 0 --seconds 48 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src`` directory and nowhere else.  With ``--trace 0`` the last
stdout line is a JSON object with the end-to-end metrics of untraced jobs;
with ``--trace 1`` it holds the per-layer metrics of a traced run.  Scratch
files go to ``.bench_work/`` in the checkout and are removed at exit.

BLAS and OpenMP thread variables are left as found and recorded in the
result, so thread oversubscription in pool workers stays visible.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PROBE = Path(__file__).resolve().parent / "setup_probe.py"

#: Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_REPEATS = 5

#: Host-speed calibration: a fixed pure-Python loop timed between timed jobs.
#: On a shared host the CPU alternates between fast and roughly 1.5x slower
#: phases lasting seconds, so raw per-run medians of job time spread by
#: 10-20% across runs.  Each job's wall time is therefore also reported
#: scaled by CAL_REF_S over the mean kernel time just before and after it:
#: seconds on a host where the kernel takes CAL_REF_S.  Set-up probes are
#: scaled the same way.
CAL_LOOPS = 600_000
CAL_REF_S = 0.05

#: A traced run times at least this many untraced/traced job pairs.
TRACE_MIN_PAIRS = 3

#: Environment variables recorded as found, never set by the benchmark
#: (except STEERCTL_THREADS, which each workload fixes).
THREAD_VARS = ("STEERCTL_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

END_TO_END_UNITS = {
    "work_per_ref_s": "1/s",
    "job_ref_s.p50": "s",
    "job_ref_s.tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "result_value": "robustness",
}

#: Raw wall-clock counterparts of the scaled metrics, printed and kept in
#: the report but not bounded: on a shared host their spread exceeds any
#: usable bound.
WALL_UNITS = {"work_per_s": "1/s", "job_s.p50": "s", "job_s.tail": "s", "setup_wall_s": "s"}

PER_LAYER_UNITS = {
    "cli.self_ms": "ms",
    "cli.output_bytes": "bytes",
    "control.self_ms": "ms",
    "control.wait_ms": "ms",
    "control.starts": "count",
    "control.lbfgs_iters": "count",
    "control.evals_per_start": "count",
    "steering.value_grad_calls": "count",
    "steering.value_calls": "count",
    "steering.channel_calls": "count",
    "steering.value_grad_us": "us",
    "steering.channel_us": "us",
    "steering.plateau_frac": "frac",
    "steering.grad_fallbacks": "count",
    "lindblad.jacobian_us": "us",
    "lindblad.propagate_us": "us",
    "lindblad.slot_expms": "count",
    "compat.root_us": "us",
    "compat.grad_us": "us",
    "compat.compatible_frac": "frac",
    "qubit_algebra.validate_us": "us",
    "trace.overhead_frac": "frac",
}


def import_program() -> None:
    """Put the checkout's src first on sys.path and import steerctl from it."""
    package = SRC / "steerctl"
    if not (package / "cli.py").is_file():
        raise SystemExit(f"error: {package} not found; run the benchmark inside a checkout")
    sys.path.insert(0, str(SRC))
    import steerctl

    if Path(steerctl.__file__).resolve().parent != package:
        raise SystemExit(f"error: steerctl imported from {steerctl.__file__}, not {package}")


def environment() -> dict[str, Any]:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


def calibrate() -> float:
    """Seconds the host takes for the fixed calibration kernel right now."""
    start = time.perf_counter()
    total = 0
    for i in range(CAL_LOOPS):
        total += i * i
    return time.perf_counter() - start


def host_scaled(seconds: list[float], cals: list[float]) -> list[float]:
    """Each time scaled by CAL_REF_S over the mean of the kernel times around it.

    cals[i] and cals[i + 1] are the calibration runs before and after
    seconds[i].
    """
    return [t * 2.0 * CAL_REF_S / (a + b) for t, a, b in zip(seconds, cals, cals[1:])]


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    With ten samples or fewer no such percentile exists and the maximum
    (percentile 100) is reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


@dataclass
class JobResult:
    seconds: float
    units: int
    headline: float | None
    output: bytes

    @property
    def ok(self) -> bool:
        return self.headline is not None


class Session:
    """Jobs of one workload and seed, with their failure count."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.references: dict[str, bytes] = {}

    def fail(self, tag: str, why: str) -> None:
        self.failed += 1
        print(f"FAIL {self.workload.name} seed {self.seed} job {tag}: {why}", file=sys.stderr)

    def job(self, job: int, tag: str, threads: str | None, tracer=None) -> JobResult:
        """Run config(seed, job) once through cli.run and check its output."""
        from steerctl import cli

        import tracing

        w = self.workload
        config = w.config(self.seed, job)
        config_path = self.workdir / f"{tag}-config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        prefix = self.workdir / tag
        if threads is None:
            os.environ.pop("STEERCTL_THREADS", None)
        else:
            os.environ["STEERCTL_THREADS"] = threads
        self.attempted += 1
        sink = io.StringIO()
        rc = None
        with redirect_stdout(sink), tracing.installed(tracer) if tracer else nullcontext():
            start = time.perf_counter()
            try:
                with tracer.span("cli.run") if tracer else nullcontext():
                    rc = cli.run(str(config_path), out=str(prefix))
            except Exception as exc:  # a crash is a failed job, not a stopped run
                error = f"cli.run raised {exc!r}"
            seconds = time.perf_counter() - start
        units = w.units_per_job(config)
        if rc != 0:
            self.fail(tag, error if rc is None else f"exit code {rc}")
            return JobResult(seconds, units, None, b"")
        output = prefix.with_suffix(w.output_suffix).read_bytes()
        try:
            headline = w.check(prefix, config)
        except Exception as exc:  # any malformed output fails the check
            self.fail(tag, f"output check: {exc!r}")
            return JobResult(seconds, units, None, output)
        key = json.dumps(config, sort_keys=True)
        if threads is None:
            self.references.setdefault(key, output)
        else:
            if key not in self.references:
                self.references[key] = self.job(job, "serial", None).output
            if output != self.references[key]:
                self.fail(tag, f"STEERCTL_THREADS={threads} output differs from the serial run")
                return JobResult(seconds, units, None, output)
        return JobResult(seconds, units, headline, output)


def setup_seconds(config_path: Path) -> float:
    """Wall time from starting a fresh interpreter to its first job being ready."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(PROBE), str(config_path)], stdout=subprocess.PIPE, env=env, text=True
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        rc = proc.wait(timeout=120)
    words = line.split()
    if rc != 0 or len(words) != 2 or Path(words[1]).resolve() != SRC / "steerctl" / "cli.py":
        raise RuntimeError(f"setup probe failed (exit {rc}, said {line!r})")
    return elapsed


def measure_end_to_end(session: Session, seconds: float) -> tuple[dict[str, float], dict[str, Any]]:
    w = session.workload
    session.job(0, "warm", None)
    jobs: list[JobResult] = []
    cals = [calibrate()]
    start = time.perf_counter()
    while len(jobs) < w.min_jobs or time.perf_counter() - start < seconds:
        jobs.append(session.job(len(jobs), f"job{len(jobs)}", w.threads))
        cals.append(calibrate())
    times = [j.seconds for j in jobs]
    ref_times = host_scaled(times, cals)
    tail_s, tail_pct = tail(times)
    ref_tail_s, _ = tail(ref_times)
    done = sum(j.units for j in jobs if j.ok)
    firsts = [j.headline for j in jobs[: w.min_jobs] if j.ok]
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # Set-up probes run last, so their memory stays out of peak_rss_mb.
    probe_config = session.workdir / "job0-config.json"
    setups = []
    setup_cals = [calibrate()]
    for _ in range(SETUP_REPEATS):
        setups.append(setup_seconds(probe_config))
        setup_cals.append(calibrate())
    metrics = {
        "work_per_ref_s": done / sum(ref_times),
        "job_ref_s.p50": statistics.median(ref_times),
        "job_ref_s.tail": ref_tail_s,
        "work_per_s": done / sum(times),
        "job_s.p50": statistics.median(times),
        "job_s.tail": tail_s,
        "setup_s": statistics.median(host_scaled(setups, setup_cals)),
        "setup_wall_s": statistics.median(setups),
        "peak_rss_mb": (own + workers) / 1024.0,
        "ok_frac": 1.0 - session.failed / session.attempted,
        "result_value": statistics.fmean(firsts) if firsts else 0.0,
    }
    samples = {
        "jobs": len(jobs),
        "job_seconds": times,
        "calibration_seconds": cals,
        "tail_percentile": tail_pct,
        "setup_seconds": setups,
        "setup_calibration_seconds": setup_cals,
        "work_unit": w.unit,
    }
    return metrics, samples


def measure_layers(session: Session, seconds: float) -> tuple[dict[str, float], dict[str, Any]]:
    import tracing

    w = session.workload
    session.job(0, "warm", None)
    untraced: list[float] = []
    traced: list[float] = []
    tracers = []
    counts = []
    start = time.perf_counter()
    while len(tracers) < TRACE_MIN_PAIRS or time.perf_counter() - start < seconds:
        j = len(tracers)
        plain = session.job(j, f"plain{j}", w.threads)
        tracer = tracing.Tracer()
        seen = session.job(j, f"traced{j}", w.threads, tracer)
        if plain.ok and seen.ok and plain.output != seen.output:
            session.fail(f"traced{j}", "traced output differs from the untraced one")
        untraced.append(plain.seconds)
        traced.append(seen.seconds)
        tracers.append(tracer)
        counts.append(tracing.job_layer_counts(tracer, w.threads is not None, len(seen.output)))

    def med(key: str) -> float:
        return statistics.median(c[key] for c in counts)

    def mean(key: str) -> float:
        return statistics.fmean(c[key] for c in counts)

    def ratio(num: str, den: str) -> float:
        total = sum(c[den] for c in counts)
        return sum(c[num] for c in counts) / total if total else 0.0

    replayed, mismatches = tracing.replay(tracers[0])
    if mismatches:
        session.fail("replay", f"{mismatches} replayed roots differ from the in-job values")
    metrics = {
        "cli.self_ms": med("cli.self_ms"),
        "cli.output_bytes": mean("cli.output_bytes"),
        "control.self_ms": med("control.self_ms"),
        "control.wait_ms": med("control.wait_ms"),
        "control.starts": mean("control.starts"),
        "control.lbfgs_iters": mean("control.lbfgs_iters"),
        "control.evals_per_start": ratio("steering.value_grad_calls", "control.starts"),
        "steering.value_grad_calls": mean("steering.value_grad_calls"),
        "steering.value_calls": mean("steering.value_calls"),
        "steering.channel_calls": mean("steering.channel_calls"),
        "steering.value_grad_us": tracing.median_us(tracers, "steering.value_grad"),
        "steering.channel_us": tracing.median_us(tracers, "steering.channel"),
        "steering.plateau_frac": ratio("steering.plateaus", "steering.value_grad_calls"),
        "steering.grad_fallbacks": mean("steering.grad_fallbacks"),
        **replayed,
        "lindblad.slot_expms": mean("lindblad.slot_expms"),
        "trace.overhead_frac": statistics.median(traced) / statistics.median(untraced) - 1.0,
    }
    samples = {"pairs": len(tracers), "untraced_seconds": untraced, "traced_seconds": traced}
    return metrics, samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    env = environment()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(workdir)
    session = Session(workload, args.seed, workdir)
    try:
        if args.trace:
            metrics, samples = measure_layers(session, args.seconds)
            units = PER_LAYER_UNITS
        else:
            metrics, samples = measure_end_to_end(session, args.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "samples": samples,
        "metrics": metrics,
    }
    (WORK / f"report-{workload.name}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    print("environment " + json.dumps(env, sort_keys=True))
    print("samples " + json.dumps({k: v for k, v in samples.items() if not isinstance(v, list)}))
    for name, unit in {**units, **WALL_UNITS}.items():
        if name in metrics:
            print(f"  {name:28s} {metrics[name]:14.6g} {unit}")
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
