"""Set-up, timed passes, answer checks and metrics for one benchmark run.

One run is one process.  The run alternates set-ups and passes:

- a set-up is a fresh import of coalgkit, input generation, file writing
  and a warm-up call, and its median over the run is reported, so that
  work moved into set-up shows;
- a pass runs the workload's job list once and is the timed unit;
- after each pass, outside its timing, every answer of the pass is
  checked and then dropped, so memory does not grow with the pass count.

Passes repeat until ``seconds`` of task time have run.  Every task has a
timeout and the whole run a deadline, so a blow-up counts as a failure
instead of hanging the run.  With tracing on, untraced and traced passes
alternate, and the per-layer split comes from the traced ones.

Reported times are in seconds at the reference speed of ``speed.py``: the
reference kernel is timed at least every half second during a pass and after
each set-up, and each timing is scaled by the kernel times around it.
"""

from __future__ import annotations

import gc
import importlib
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field

from speed import REFERENCE_S, reference_seconds
from tracer import Tracer, metric_units
from workloads import WORKLOADS

MIN_SETUPS = 5  # set-ups per run: one before each pass, the rest after the last
RUN_DEADLINE_S = 140.0  # from the start of the run to the last task started
PROBE_EVERY_S = 0.5  # longest stretch of tasks between two reference-kernel timings
clock = time.perf_counter


class TaskTimeout(BaseException):
    """Raised from SIGALRM inside a task that ran past its timeout.

    A BaseException, so that no ``except Exception`` in the code under test
    can swallow it.
    """


def _on_alarm(signum, frame):
    raise TaskTimeout()


@dataclass
class Pass:
    seconds: float  # task time of the pass, unscaled
    traced: bool
    latencies: list  # per task in job-list order, scaled; None where the task did not answer
    raw_latencies: list  # the same, unscaled
    failures: list  # (task name, reason)
    reference: list  # reference kernel seconds measured during the pass
    layers: dict = field(default_factory=dict)


def fresh_import():
    """Import coalgkit from scratch, as a new process would."""
    for name in [n for n in sys.modules if n == "coalgkit" or n.startswith("coalgkit.")]:
        del sys.modules[name]
    importlib.import_module("coalgkit")


def set_up(workload: str, seed: int, workdir: str):
    """Import, generate inputs, write files and warm up; returns (workload, seconds)."""
    t0 = clock()
    fresh_import()
    wl = WORKLOADS[workload](seed, workdir)
    wl.warm_up()
    return wl, clock() - t0


def run_task(task, timeout_s: float):
    """(answer, error) of one task under a SIGALRM timeout."""
    if timeout_s <= 0:
        return None, "not started: run deadline reached"
    try:
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
        try:
            return task.run(), None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except TaskTimeout:
        return None, f"timed out after {timeout_s:.1f} s"
    except Exception as exc:  # the task failed; the run goes on and counts it
        return None, f"{type(exc).__name__}: {exc}"


def check_answer(task, answer, error):
    """None when the answer is right, else the reason it is not."""
    if error is not None:
        return error
    try:
        return task.check(answer)
    except Exception as exc:  # a malformed answer can break a check
        return f"check raised {type(exc).__name__}: {exc}"


def _scales(probes, n_tasks: int) -> list:
    """Per task, REFERENCE_S over the mean of the kernel timings just before and after it."""
    out = []
    for i in range(n_tasks):
        before = [r for at, r in probes if at <= i][-1]
        after = next(r for at, r in probes if at > i)
        out.append(2 * REFERENCE_S / (before + after))
    return out


def run_pass(wl, deadline: float, tracer=None) -> Pass:
    """Run the job list once, then check its answers outside the timing."""
    outcomes = []
    probes = []  # (index of the next task, reference kernel seconds)
    last_probe = float("-inf")
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    if tracer:
        tracer.install()
    try:
        for i, task in enumerate(wl.tasks):
            if clock() - last_probe >= PROBE_EVERY_S:
                probes.append((i, reference_seconds()))
                last_probe = clock()
            t0 = clock()
            answer, error = run_task(task, min(task.timeout_s, deadline - t0))
            outcomes.append((task, answer, error, clock() - t0))
        probes.append((len(wl.tasks), reference_seconds()))
    finally:
        if tracer:
            tracer.uninstall()
        signal.signal(signal.SIGALRM, previous)
    failures = []
    for task, answer, error, _ in outcomes:
        reason = check_answer(task, answer, error)
        if reason is not None:
            failures.append((task.name, reason))
    scales = _scales(probes, len(outcomes))
    layers = {}
    if tracer:
        scale = REFERENCE_S / statistics.median(r for _, r in probes)
        layers = {k: v * scale if k.endswith("self_s") else v for k, v in tracer.metrics().items()}
    return Pass(
        seconds=sum(t for *_, t in outcomes),
        traced=tracer is not None,
        latencies=[None if error else t * k for (_, _, error, t), k in zip(outcomes, scales)],
        raw_latencies=[None if error else t for _, _, error, t in outcomes],
        failures=failures,
        reference=[r for _, r in probes],
        layers=layers,
    )


def run_passes(set_up_once, seconds: float, deadline: float, trace: bool):
    """Alternate set-ups and passes until `seconds` of task time have run.

    With trace, passes alternate untraced / traced, starting untraced, and
    at least one of each runs.  Returns (passes, set-up seconds, workload).
    """
    passes, setups = [], []
    while True:
        wl, took = set_up_once(len(setups))
        setups.append(took)
        gc.collect()
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(wl, deadline, Tracer() if traced else None))
        busy = sum(p.seconds for p in passes)
        enough = busy >= seconds and (not trace or len(passes) >= 2)
        if enough or clock() >= deadline:
            return passes, setups, wl


def _percentile(samples, q: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def _p90_or_median(samples) -> float:
    """The 90th percentile when at least ten samples lie beyond it, else the median."""
    return _percentile(samples, 90 if len(samples) >= 100 else 50)


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, work_root: str, log=print):
    """One run; returns the result object that run.py prints as its last line."""
    deadline = clock() + RUN_DEADLINE_S
    workdir = os.path.join(work_root, f"{workload}-{seed}-{os.getpid()}")

    def set_up_once(k):
        wl, took = set_up(workload, seed, os.path.join(workdir, str(k)))
        return wl, took * REFERENCE_S / reference_seconds()

    try:
        passes, setups, wl = run_passes(set_up_once, seconds, deadline, trace)
        while len(setups) < MIN_SETUPS:
            setups.append(set_up_once(len(setups))[1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(passes) * len(wl.tasks)
    failures = [f for p in passes for f in p.failures]
    failed = len(failures)
    for name, reason in failures[:10]:
        log(f"FAILED {name}: {reason}")
    log("pass seconds, unscaled: " + " ".join(f"{p.seconds:.3f}{'T' if p.traced else ''}" for p in passes))
    reference = statistics.median(r for p in passes for r in p.reference)
    log(f"reference kernel median {reference * 1000:.3f} ms; timings scaled to {REFERENCE_S * 1000} ms")
    log(f"wall_s unscaled: {job_list_seconds(passes, scaled=False):.6f} s")
    log(
        f"workload={workload} seed={seed} passes={len(passes)} tasks_per_pass={len(wl.tasks)} "
        f"attempted={attempted} failed={failed} fail_ratio={failed / attempted:.4f}"
    )
    if trace:
        metrics = _layer_metrics(passes)
    else:
        metrics = _end_to_end_metrics(wl, passes, setups, attempted, failed, log)
    for name, m in metrics.items():
        log(f"  {name} = {m['value']} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def job_list_seconds(passes, scaled: bool = True) -> float:
    """Time to answer the whole job list: each task's median latency over the passes, summed.

    Per-task medians over many short timings resist the bursts of host
    contention that a single long timing of the whole list would absorb.
    """
    total = 0.0
    for column in zip(*(p.latencies if scaled else p.raw_latencies for p in passes)):
        answered = [t for t in column if t is not None]
        if answered:
            total += statistics.median(answered)
    return total


def _end_to_end_metrics(wl, passes, setups, attempted, failed, log) -> dict:
    wall = job_list_seconds(passes)
    if wl.request_is_task:
        latencies = [t for p in passes for t in p.latencies if t is not None] or [wall]
        p50, p90 = _percentile(latencies, 50), _p90_or_median(latencies)
        tail = "p90" if len(latencies) >= 100 else "median (fewer than 100 samples)"
        log(f"request latency samples={len(latencies)}; req_p90_ms reports the {tail}")
    else:
        # the request is the whole job list, answered once per pass
        p50 = p90 = wall
        log(f"one request per job list, {len(passes)} samples; req_p50_ms = req_p90_ms = wall_s")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "success_ratio": ((attempted - failed) / attempted, "ratio"),
        "req_p50_ms": (1000 * p50, "ms"),
        "req_p90_ms": (1000 * p90, "ms"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def _layer_metrics(passes) -> dict:
    """Median over traced passes of every per-layer metric, plus the tracing overhead."""
    traced = [p for p in passes if p.traced]
    metrics = {
        name: {"value": statistics.median(p.layers[name] for p in traced), "unit": unit}
        for name, unit in metric_units().items()
    }
    traced_wall = job_list_seconds(traced)
    untraced_wall = job_list_seconds([p for p in passes if not p.traced])
    metrics["trace.traced_wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.untraced_wall_s"] = {"value": untraced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
    reference = statistics.median(r for p in passes for r in p.reference)
    metrics["host.reference_kernel_s"] = {"value": reference, "unit": "s"}
    return metrics
