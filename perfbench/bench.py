"""Measurement loops of the trustcbf benchmark; ``run.py`` is the entry point.

One measured run is what ``trustcbf run`` does after loading its scenario:
``sim.run``, ``sim.metrics`` and ``cli.write_outputs`` (CSV, summary and SVG
charts) into a scratch directory inside the checkout.  The benchmark repeats
it for the requested number of seconds and reports medians.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced runs
with runs under ``tracer.Tracer`` and reports the per-module metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import logging
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import checks
import workloads
from run import THREAD_VARS
from tracer import MODULES, TARGETS, Tracer
from trustcbf import cli, sim

ROOT = workloads.ROOT
SETUP_REPEATS = 5     # fresh interpreters per run; setup_s is their median
MIN_RUNS = 3          # measured runs at least, whatever --seconds says
WARMUP_RECORDS = 10   # length of the untimed warm-up run, in records
SETUP_TIMEOUT_S = 120


class CountingHandler(logging.Handler):
    """Formats and counts trustcbf's log records instead of printing them."""

    def __init__(self):
        super().__init__()
        self.counts: Counter = Counter()

    def emit(self, record: logging.LogRecord) -> None:
        self.format(record)
        self.counts[record.name] += 1


class ControlTimer:
    """Times every intact agent's control step at its one call site, sim.agent_step."""

    def __init__(self):
        self.samples: list[float] = []

    def __enter__(self) -> "ControlTimer":
        original = self.original = sim.agent_step
        samples = self.samples
        clock = time.perf_counter

        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return original(*args, **kwargs)
            finally:
                samples.append(clock() - t0)

        sim.agent_step = timed
        return self

    def __exit__(self, *exc) -> None:
        sim.agent_step = self.original


def full_run(s, scenario_path: Path, out: Path):
    """What ``trustcbf run`` does after loading: simulate, summarize, write outputs."""
    trace = sim.run(s)
    summary = {
        "config": {"scenario": str(scenario_path), "dt": s.dt, "duration": s.duration,
                   "seed": s.seed, "fixed_alpha": s.fixed_alpha,
                   "rho_bar_d": s.trust.rho_bar_d, "alpha0": s.trust.alpha0},
        "metrics": sim.metrics(trace, s),
    }
    written = cli.write_outputs(trace, summary, s, out)
    return trace, summary, written


@dataclasses.dataclass
class Input:
    """One scenario a measurement runs, named by its reference key."""

    key: str
    path: Path
    scenario: object


class Checker:
    """Collects output problems and trace digests over the runs of one process."""

    def __init__(self, out: Path):
        self.out = out
        self.problems: list[str] = []
        self.digests: dict[str, set[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.last: dict[str, tuple] = {}

    def timed_run(self, inp: Input, scenario=None):
        """One full run of ``inp`` (or of ``scenario``, a fresh load of it), timed.

        Returns (seconds, trace, summary, written), or None if the run raised.
        """
        scenario = scenario or inp.scenario
        self.attempted += 1
        gc.collect()
        t0 = time.perf_counter()
        try:
            result = full_run(scenario, inp.path, self.out)
        except Exception as exc:  # the program must not raise on a validated scenario
            self.failed += 1
            self.problems.append(f"{inp.key}: run raised {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - t0
        trace, summary, _ = result
        found = [f"{inp.key}: {p}" for p in checks.run_problems(trace, scenario)]
        self.failed += bool(found)
        self.problems.extend(found)
        self.digests.setdefault(inp.key, set()).add(checks.output_digest(self.out))
        self.last[inp.key] = (scenario, trace, summary)
        return (elapsed, *result)

    def finish(self) -> tuple[float, int, int]:
        """Digest and reference checks after the last run.

        Returns (trace drift, emergency fallbacks, intact agent-steps), the
        counts summed over the last run of each input.
        """
        for key, digests in self.digests.items():
            if len(digests) > 1:
                self.problems.append(f"{key}: {len(digests)} different trace digests "
                                     "over repeated runs")
        drift, fallbacks, agent_steps = 0.0, 0, 0
        for key, (s, trace, summary) in self.last.items():
            d, found = checks.compare_reference(checks.load_reference(key), trace, s,
                                                summary["metrics"]["min_h"])
            self.problems.extend(f"{key}: {p}" for p in found)
            drift = max(drift, d) if math.isfinite(d) else d
            f, n = checks.fallback_count(trace, s)
            fallbacks += f
            agent_steps += n
        return drift, fallbacks, agent_steps


def warm_up(inp: Input, out: Path) -> None:
    """One short untimed run, so lazy imports and first-call costs stay out of the timings."""
    s = inp.scenario
    full_run(dataclasses.replace(s, duration=WARMUP_RECORDS * s.dt), inp.path, out)


def measure_setup(workload: str, seed: int, scratch: Path) -> list[float]:
    """Seconds from starting a fresh interpreter to a validated Scenario, per probe."""
    cmd = [sys.executable, workloads.__file__, workload, str(seed), str(scratch)]
    times = []
    for k in range(SETUP_REPEATS + 1):   # the first probe only warms the file cache
        t0 = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=SETUP_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        if k:
            times.append(float(done.stdout.split()[-1]) - t0)
    return times


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def run_untraced(args, inputs: list[Input], out: Path, handler: CountingHandler):
    setup = measure_setup(args.workload, args.seed, out.parent)
    warm_up(inputs[0], out)
    checker = Checker(out)
    durations = []
    with ControlTimer() as timer:
        start = time.perf_counter()
        # Whole cycles over the inputs, so every seed measures the same mix.
        while (len(durations) < MIN_RUNS or len(durations) % len(inputs)
               or time.perf_counter() - start < args.seconds):
            done = checker.timed_run(inputs[len(durations) % len(inputs)])
            if done is None:
                break
            durations.append(done[0])
    drift, fallbacks, agent_steps = checker.finish()
    if not durations:
        return {}, checker, []
    ctl_ms = [1e3 * t for t in timer.samples]
    metrics = {
        "run_s": (statistics.median(durations), "s"),
        "control_ms.p50": (statistics.median(ctl_ms), "ms"),
        "control_ms.p95": (statistics.quantiles(ctl_ms, n=20)[18], "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "fallback_share": (fallbacks / agent_steps, "1"),
    }
    notes = [f"inputs {' '.join(i.key for i in inputs)}",
             f"runs {len(durations)}, control steps timed {len(ctl_ms)}, set-up probes {len(setup)}",
             f"run_s quartiles {quartiles(durations)}",
             f"emergency fallbacks {fallbacks} in {agent_steps} intact agent-steps",
             f"trace_drift {drift!r} (max |difference| from the stored references; not gated)",
             f"log records {dict(handler.counts)}"]
    return metrics, checker, notes


def layer_metrics(run_stats, setup_stats, traced_s: float, handler_counts: Counter,
                  bytes_written: int) -> dict:
    stats = dict(run_stats)
    stats["cli.load_scenario"] = setup_stats["cli.load_scenario"]
    m = {}
    for t in TARGETS:
        st = stats[t.name]
        m[f"{t.name}.calls"] = (st.calls, "count")
        if t.timed:
            m[f"{t.name}.self_s"] = (st.self_s, "s")
        if t.raises:
            m[f"{t.name}.{t.raises}"] = (st.raised, "count")
        if t.rows:
            m[f"{t.name}.rows_mean"] = (st.rows / st.calls if st.calls else 0.0, "rows")
    steps = stats["controller.agent_step"].calls
    m["barriers.eval_barrier.per_agent_step"] = (
        stats["barriers.eval_barrier"].calls / steps if steps else 0.0, "calls")
    m["controller.log_warnings"] = (handler_counts["trustcbf.controller"], "count")
    m["cli.bytes_written"] = (bytes_written, "B")
    module_self = 0.0
    for mod in MODULES:
        self_s = sum(st.self_s for name, st in run_stats.items() if name.startswith(mod + "."))
        m[f"{mod}.self_s"] = (self_s, "s")
        module_self += self_s
    m["trace.run_s"] = (traced_s, "s")
    m["trace.remainder_s"] = (traced_s - module_self, "s")
    m["trace.spans"] = (sum(st.calls for st in run_stats.values()), "count")
    return m


def run_traced(args, inputs: list[Input], out: Path, handler: CountingHandler):
    inp = inputs[0]   # counts must repeat exactly, so every traced run uses one input
    warm_up(inp, out)
    checker = Checker(out)
    tracer = Tracer()
    untraced, per_run = [], []
    start = time.perf_counter()
    while len(per_run) < 2 or time.perf_counter() - start < args.seconds:
        done = checker.timed_run(inp)
        if done is None:
            break
        untraced.append(done[0])
        with tracer:
            loaded = cli.load_scenario(inp.path)
            setup_stats = tracer.collect()
            before = Counter(handler.counts)
            done = checker.timed_run(inp, loaded)
            run_stats = tracer.collect()
        if done is None:
            break
        traced_s, _, _, written = done
        per_run.append(layer_metrics(run_stats, setup_stats, traced_s,
                                     handler.counts - before,
                                     sum(p.stat().st_size for p in written)))
    drift, fallbacks, agent_steps = checker.finish()
    if not per_run:
        return {}, checker, []
    for name, (value, unit) in per_run[0].items():
        if unit != "s" and any(r[name][0] != value for r in per_run):
            checker.problems.append(f"{name} differs between traced runs")
    # Times come from the run with the median traced run_s, so that module
    # self times plus the remainder add up to that run's run_s exactly.
    order = sorted(range(len(per_run)), key=lambda k: per_run[k]["trace.run_s"][0])
    metrics = dict(per_run[order[(len(order) - 1) // 2]])
    if metrics["trace.remainder_s"][0] < 0.0:
        checker.problems.append("traced self times exceed the traced run time")
    untraced_s = statistics.median(untraced)
    traced_s = statistics.median(r["trace.run_s"][0] for r in per_run)
    metrics["trace.untraced_run_s"] = (untraced_s, "s")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    metrics["controller.fallback_share"] = (fallbacks / agent_steps, "1")
    metrics["check.trace_drift"] = (drift, "abs")
    notes = [f"input {inp.key}, traced runs {len(per_run)}, untraced runs {len(untraced)}",
             f"wrapped import sites ({len(tracer.sites)}): {' '.join(tracer.sites)}"]
    return metrics, checker, notes


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return "n/a"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.4f} / {q2:.4f} / {q3:.4f}"


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    scratch = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    out = scratch / "run"
    out.mkdir(parents=True)
    logger = logging.getLogger("trustcbf")
    handler = CountingHandler()
    logger.addHandler(handler)
    try:
        inputs = []
        for key in workloads.input_keys(args.workload, args.seed):
            path = workloads.scenario_file(key, scratch)
            inputs.append(Input(key, path, cli.load_scenario(path)))
        measure = run_traced if args.trace else run_untraced
        metrics, checker, notes = measure(args, inputs, out, handler)
    finally:
        logger.removeHandler(handler)
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:   # another benchmark process still uses it
            pass

    print(f"env: {json.dumps(environment())}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes:
        print(f"  {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:>14.6g} {unit}")
    for problem in checker.problems:
        print(f"CHECK FAILED: {problem}")
    finite = all(math.isfinite(v) for v, _ in metrics.values())
    correct = finite and not checker.problems
    print(json.dumps({"correct": correct, "attempted": checker.attempted, "failed": checker.failed,
                      "metrics": {name: {"value": value if math.isfinite(value) else None,
                                         "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1
