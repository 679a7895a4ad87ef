"""Paired A/B comparison of two revisions on the benchmark's workloads.

    python3 tools/ab.py PARENT CHANGE [--workload W ...] [--pairs N] [--seconds S]

Both revisions are checked out with ``git worktree add --detach`` under
``.bench_build/``, and the worktrees are removed on every way out, errors and
interrupts included.  For each workload (by default every workload of
BENCHMARK.json) this runs N pairs of

    perfbench/run.py --workload W --seconds S --trace 0

one run per side, each side in its own checkout, with the parent first in odd
pairs and the change first in even ones.  S defaults to BENCHMARK.json's
``run_seconds``, and every run takes run.py's default seed.  Each run is one
process group with a timeout; on a timeout or an interrupt the whole group is
killed.

It prints every run's end-to-end metrics.  Then, for each end-to-end metric
of BENCHMARK.json, each side's median and quartiles, the pairs the change
won, and the two-sided sign-test p of that count.  A tied pair counts for
neither side, and the metric's ``better`` gives the direction of a win.
Last, each side's ``tools/work.py`` opcode total for each of the workload's
inputs, the ring12 files written by that side's ``perfbench/workloads.py``.

Exit status: 0, 1 if any run is not ``correct`` or has ``failed`` > 0, 2 on
a usage error.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
RUN_TIMEOUT_S = 300.0     # on top of --seconds, for the set-up probes and whole cycles
WORK_TIMEOUT_S = 900.0
# Prints the scenario files of workload argv[1] at seed 0, run.py's default; the
# ring12 ones are written into argv[2].
INPUTS = ("import sys; from pathlib import Path; sys.path.insert(0, 'perfbench'); "
          "import workloads as w; print(*(w.scenario_file(k, Path(sys.argv[2])) "
          "for k in w.input_keys(sys.argv[1], 0)), sep='\\n')")


def sign_test_p(wins: int, n: int) -> float:
    """Two-sided sign-test p of ``wins`` of ``n`` untied pairs."""
    tail = sum(math.comb(n, k) for k in range(min(wins, n - wins) + 1))
    return min(1.0, 2.0 * tail / 2 ** n)


def wins(pairs: list[tuple[float, float]], better: str) -> tuple[int, int]:
    """(pairs the change won, untied pairs) of (parent, change) values."""
    sign = 1.0 if better == "lower" else -1.0
    diffs = [sign * (p - c) for p, c in pairs if p != c]
    return sum(d > 0.0 for d in diffs), len(diffs)


def parse_result(stdout: str) -> dict:
    """The JSON object on the last line of a benchmark run's stdout; an empty
    dict when there is none."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {}
    return result if isinstance(result, dict) else {}


def run_ok(result: dict) -> bool:
    return result.get("correct") is True and result.get("failed") == 0


def exit_status(results: list[dict]) -> int:
    return 0 if all(run_ok(r) for r in results) else 1


def value(result: dict, name: str):
    v = result.get("metrics", {}).get(name, {}).get("value")
    return v if isinstance(v, (int, float)) else None


def summarize(values: list[float]) -> str:
    """Median [first quartile, third quartile]."""
    if not values:
        return "n/a"
    q1, q3 = statistics.quantiles(values, n=4)[::2] if len(values) > 1 else values * 2
    return f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}]"


def _call(cmd: list[str], cwd: Path, timeout: float) -> tuple[int | None, str, str]:
    """Run ``cmd`` as its own process group, and kill what is left of the
    group when it ends, times out or is interrupted.  A timeout returns code
    None."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
        return proc.returncode, out, err
    except subprocess.TimeoutExpired:
        return None, "", f"timed out after {timeout:.0f} s"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def _git(*args: str) -> str:
    done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"git {' '.join(args)}: {done.stderr.strip()}")
    return done.stdout.strip()


class Worktrees:
    """Detached worktrees of the two revisions, removed again on exit."""

    def __init__(self, revs: dict[str, str]):
        self.base = ROOT / ".bench_build" / f"ab-{os.getpid()}"
        self.paths = {side: self.base / side for side in revs}
        self.revs = revs

    def __enter__(self) -> dict[str, Path]:
        try:
            for side, path in self.paths.items():
                _git("worktree", "add", "--detach", str(path), self.revs[side])
        except BaseException:
            self.__exit__()
            raise
        return self.paths

    def __exit__(self, *exc) -> None:
        for path in self.paths.values():
            if path.exists():
                subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                                str(path)], capture_output=True)
        shutil.rmtree(self.base, ignore_errors=True)
        subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"], capture_output=True)


def bench_run(path: Path, args, workload: str) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seconds", str(args.seconds), "--trace", "0"]
    code, out, err = _call(cmd, path, RUN_TIMEOUT_S + args.seconds)
    result = parse_result(out)
    if code != 0 or not result:
        tail = (err.strip().splitlines() or ["no output"])[-1]
        print(f"    exit {code}: {tail}")
    return result


def work_totals(path: Path, workload: str) -> dict[str, int]:
    """Opcode total of each of the workload's inputs, by input file name."""
    if not (path / "tools" / "work.py").is_file():
        return {}
    scratch = path / ".bench_out" / "ab-inputs"
    scratch.mkdir(parents=True, exist_ok=True)
    code, out, _ = _call([sys.executable, "-c", INPUTS, workload, str(scratch)], path,
                         WORK_TIMEOUT_S)
    if code != 0:
        return {}
    _, out, _ = _call([sys.executable, "tools/work.py", *out.split()], path, WORK_TIMEOUT_S)
    totals = {}
    for line in out.splitlines():
        if line.endswith(" opcodes"):
            name, count = line.rsplit(": ", 1)
            totals[Path(name).stem] = int(count.split()[0].replace(",", ""))
    return totals


def compare(paths: dict[str, Path], args, workload: str, metrics: list[dict]) -> list[dict]:
    """Runs, prints and compares one workload; returns every run's result."""
    print(f"== {workload}: {args.pairs} pairs of {args.seconds:g} s")
    names = [m["name"] for m in metrics]
    results = {side: [] for side in SIDES}
    for pair in range(1, args.pairs + 1):
        for side in SIDES if pair % 2 else SIDES[::-1]:
            result = bench_run(paths[side], args, workload)
            results[side].append(result)
            shown = " ".join(f"{n}={value(result, n):.6g}" if value(result, n) is not None
                             else f"{n}=n/a" for n in names)
            flag = "" if run_ok(result) else "  NOT OK"
            print(f"  pair {pair:2d} {side:<6} {shown}{flag}", flush=True)

    print(f"  {'metric':<16}{'parent median [q1, q3]':>36}{'change median [q1, q3]':>36}"
          f"{'change wins':>14}{'sign p':>10}")
    for m in metrics:
        per_side = {side: [value(r, m["name"]) for r in results[side]] for side in SIDES}
        pairs = [(p, c) for p, c in zip(per_side["parent"], per_side["change"])
                 if p is not None and c is not None]
        won, n = wins(pairs, m["better"])
        cells = [summarize([v for v in per_side[side] if v is not None]) for side in SIDES]
        print(f"  {m['name']:<16}{cells[0]:>36}{cells[1]:>36}{f'{won}/{n}':>14}"
              f"{sign_test_p(won, n):>10.4g}")

    totals = {side: work_totals(paths[side], workload) for side in SIDES}
    for key in sorted(set(totals["parent"]) | set(totals["change"])):
        p, c = totals["parent"].get(key), totals["change"].get(key)
        change = f"  ({100.0 * (c - p) / p:+.2f}%)" if p and c is not None else ""
        print(f"  opcodes {key:<14} parent {p if p is None else f'{p:,}':>14}"
              f"  change {c if c is None else f'{c:,}':>14}{change}")
    if not any(totals.values()):
        print("  opcodes: no tools/work.py count on either side")
    return results["parent"] + results["change"]


def parse_args(argv: list[str], spec: dict) -> argparse.Namespace:
    workloads = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(prog="tools/ab.py", description=__doc__.splitlines()[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", action="append", choices=workloads,
                   help="a BENCHMARK.json workload; repeat for more (default: all)")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    args = p.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0.0:
        p.error("--pairs must be at least 1 and --seconds positive")
    args.workload = args.workload or workloads
    return args


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec)
    try:
        revs = {side: _git("rev-parse", "--verify", f"{rev}^{{commit}}")
                for side, rev in zip(SIDES, (args.parent, args.change))}
    except RuntimeError as exc:
        print(f"tools/ab.py: {exc}", file=sys.stderr)
        return 2
    for side in SIDES:
        print(f"{side}: {revs[side]}")
    signal.signal(signal.SIGTERM, _terminate)
    results = []
    try:
        with Worktrees(revs) as paths:
            for workload in args.workload:
                results += compare(paths, args, workload, spec["end_to_end"])
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    status = exit_status(results)
    print(f"{sum(run_ok(r) for r in results)} of {len(results)} runs correct with no failures")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
