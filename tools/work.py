"""Count the Python opcodes of trustcbf runs, and keep them in a work record.

    python3 tools/work.py
    python3 tools/work.py SCENARIO.json [SCENARIO.json ...]

Run with no arguments, this prints the work record as one JSON object: the
Python minor version and the C library it was made under, and for each input
the opcodes of one run in total and in each layer, its ``emergency_events``,
its intact agent-steps, its ``min_h`` as ``repr`` and the SHA-256 of each of
its seven output files.  The inputs are the benchmark's six (crossing,
headon and ring12-0…3, the ring files written by ``perfbench/workloads.py``)
and ``fixed_arc_ring(n)`` at n = 8, 16 and 24.  ``summary.json`` echoes an
empty scenario path, so where the checkout lies moves no digest.  Every
field is exact: two records differ only where the work or the outputs did.

It then compares the record with the newest ``BENCH_<n>.json`` that git
tracks, names on stderr every count and file that moved, and exits 1 if any
did.  A field recorded under another Python minor version or C library is
named as not comparable and does not fail: the bytecode differs between
Python versions, and a libm result can move a trajectory.  With no record
committed it exits 0.  A change that moves work or bytes commits its own
record, written with

    python3 tools/work.py > BENCH_<pr>.json

Run with scenario files, it prints each one's opcode total and layers
instead, the lines ``tools/ab.py`` reads.  A scenario that ``trustcbf
validate`` rejects ends the command as it ends ``trustcbf``: ``scenario
error: …`` on stderr and exit status 3.

How a run is counted.  It does what ``trustcbf run`` does after loading the
scenario: ``sim.run``, ``sim.summary`` and ``cli.write_outputs`` (CSV,
summary and SVG charts, into a temporary directory).  One untraced warm-up
run comes first, so that lazy imports and caches are settled; then one run is
counted with ``sys.settrace`` and ``frame.f_trace_opcodes``, one event per
executed opcode.  The cyclic garbage collector runs before each run and is
held off during it: a collection inside the counted run would charge the
opcodes of Python gc callbacks (hypothesis installs one) and of finalizers of
earlier objects to whichever layer allocated last.  The count does not drift
with the machine's load, so it can back a wall-time claim; it never replaces
one, since a call into C (``math.acos``, ``array.fromlist``) counts as one
opcode however long it takes.

Each frame's opcodes are charged to one layer.  A frame that the loop calls
(the loop is ``sim.run``, ``sim.summary``, ``controller.agent_step`` and
every helper they call that is not a layer of its own) starts the layer its
function names in ``LAYERS``, or stays in the loop; every other frame joins
its caller's layer.  So the adversary's goal descent counts as a policy, not
as a reference command, and the Euler step's ``AgentState`` as
``euler_step``.

Standard library and git only; it imports trustcbf from the ``src``
directory next to this one.
"""

from __future__ import annotations

import gc
import hashlib
import importlib.util
import json
import math
import platform
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from trustcbf import cli, controller, dynamics, sim, solvers, trust, world  # noqa: E402
from trustcbf.schema import ValidationError  # noqa: E402

FIXED_ARC_SIZES = (8, 16, 24)
# What a record's counts and bytes depend on besides the code.
ENVIRONMENT = ("python", "libc")

LOOP = "loop"
# Each layer and the functions that start it when the loop calls them, in
# the order a step runs them.
LAYERS = {
    "estimate_positions": (world.estimate_positions,),
    "pair_geometry": (controller.pair_geometry,),
    "contribution_lps": (trust.max_own_contribution,),
    "score_pairs": (controller.score_pairs,),
    "reference": (dynamics.track_reference, controller.clf_qp_reference),
    "solve_qp": (solvers.solve_qp,),
    "policies": (sim.adversary_policy, sim.uncooperative_policy),
    "euler_step": (dynamics.euler_step,),
    LOOP: (sim.run,),
    "metrics": (sim.metrics,),
    "writers": (cli.write_outputs,),
}


class _Counter:
    """The local trace function of every frame of one layer: counts their opcodes."""

    __slots__ = ("opcodes",)

    def __init__(self):
        self.opcodes = 0

    def __call__(self, frame, event, arg):
        if event == "opcode":
            self.opcodes += 1
        return self


def count(s, out: Path | None = None) -> dict[str, int]:
    """Opcodes of one run of scenario ``s`` after a warm-up run, by layer in
    ``LAYERS`` order.  The counted run writes its outputs into ``out``, a
    directory it creates, if one is given."""
    counters = {name: _Counter() for name in LAYERS}
    loop = counters[LOOP]
    starts = {fn.__code__: counters[name] for name, fns in LAYERS.items() for fn in fns}

    def on_call(frame, event, arg):
        caller = frame.f_back.f_trace if frame.f_back is not None else None
        if caller is loop or not isinstance(caller, _Counter):
            caller = starts.get(frame.f_code, loop)
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return caller

    previous = sys.gettrace()
    collecting = gc.isenabled()
    with tempfile.TemporaryDirectory() as tmp:
        # The warm-up run, then the counted one, each as ``trustcbf run`` does
        # it.  Only frames called from here are traced.
        runs = ((Path(tmp) / "warm-up", previous), (out or Path(tmp) / "counted", on_call))
        for written, tracer in runs:
            gc.collect()
            gc.disable()
            sys.settrace(tracer)
            try:
                trace = sim.run(s)
                cli.write_outputs(trace, sim.summary(trace, s, ""), s, written)
            finally:
                sys.settrace(previous)
                if collecting:
                    gc.enable()
    return {name: c.opcodes for name, c in counters.items()}


def fixed_arc_ring(n: int) -> dict:
    """n intact unicycles on an antipodal ring of radius 0.5 n m, for n / 3 s.

    Neighbors start about pi m apart along the ring whatever n is, and each
    is bound for the opposite point.  The start angles carry the benchmark's
    ring12 variant-0 jitter, uniform in +-0.02 rad from ``random.Random(0)``,
    and every other setting is ring12's, so n = 12 gives ring12-0.
    """
    rng = random.Random(0)
    agents = []
    for k in range(n):
        th = 2.0 * math.pi * k / n + rng.uniform(-0.02, 0.02)
        x, y = 0.5 * n * math.cos(th), 0.5 * n * math.sin(th)
        agents.append({"kind": "Intact", "model": "Unicycle", "start": [x, y, th + math.pi],
                       "target": [-x, -y], "d_min": 0.5, "box": [[-3.0, -3.0], [3.0, 3.0]]})
    return {"agents": agents, "duration": n / 3, "dt": 0.05,
            "trust": {"rho_bar_d": 0.5, "alpha_min": 0.01, "alpha_max": 2.0,
                      "gamma_alpha": 2.0},
            "gamma_nominal": 3.0, "lookahead": 0.1}


def inputs() -> dict:
    """The record's scenarios by key: the benchmark's inputs, then the fixed-arc rings."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {key: workloads.scenario_file(key, Path(tmp)) for key in workloads.all_keys()}
        for n in FIXED_ARC_SIZES:
            paths[f"fixed-arc-{n}"] = path = Path(tmp) / f"fixed-arc-{n}.json"
            path.write_text(json.dumps(fixed_arc_ring(n)))
        return {key: cli.load_scenario(path) for key, path in paths.items()}


def measure(s) -> dict:
    """One input's fields of the work record."""
    with tempfile.TemporaryDirectory() as tmp:
        # A directory the run creates, as in the scenario mode: writing into
        # one that exists costs the writers more opcodes.
        out = Path(tmp) / "counted"
        layers = count(s, out)
        m = json.loads((out / "summary.json").read_text())["metrics"]
        with open(out / "trace.csv") as f:
            records = (sum(1 for _ in f) - 1) // len(s.agents)
        sha256 = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in sorted(out.iterdir())}
    return {"opcodes": sum(layers.values()), "layers": layers,
            "emergency_events": m["emergency_events"], "agent_steps": records * len(m["agents"]),
            "min_h": repr(m["min_h"]), "sha256": sha256}


def record(scenarios: dict) -> dict:
    """The work record of the given scenarios, by key."""
    return {"python": "%d.%d" % sys.version_info[:2], "libc": " ".join(platform.libc_ver()),
            "inputs": {key: measure(s) for key, s in scenarios.items()}}


def committed() -> tuple[str, dict] | None:
    """The name and content of the newest ``BENCH_<n>.json`` git tracks, or None."""
    done = subprocess.run(["git", "-C", str(ROOT), "ls-files", "BENCH_*.json"],
                          capture_output=True, text=True)
    names = [name for name in done.stdout.split() if re.fullmatch(r"BENCH_\d+\.json", name)]
    if done.returncode or not names:
        return None
    newest = max(names, key=lambda name: int(name[6:-5]))
    return newest, json.loads((ROOT / newest).read_text())


def _fields(rec: dict) -> dict:
    """Every count and digest of a record, by ``input field[.layer or file]``."""
    flat = {}
    for key, values in rec["inputs"].items():
        for name, v in values.items():
            if isinstance(v, dict):
                flat.update((f"{key} {name}.{part}", w) for part, w in v.items())
            else:
                flat[f"{key} {name}"] = v
    return flat


def compare(old: dict, new: dict) -> tuple[list[str], bool]:
    """One line per field of ``old`` or ``new`` whose value moved, and whether
    any moved field was recorded under the same Python minor version and C
    library."""
    before, after = _fields(old), _fields(new)
    comparable = all(old[k] == new[k] for k in ENVIRONMENT)
    note = "" if comparable else "  (not comparable: recorded under " + ", ".join(
        f"{k} {old[k]}" for k in ENVIRONMENT) + ")"
    names = [*after, *(name for name in before if name not in after)]
    lines = [f"{name}: {before.get(name)} -> {after.get(name)}{note}"
             for name in names if before.get(name) != after.get(name)]
    return lines, comparable and bool(lines)


def main(argv: list[str]) -> int:
    if not argv:
        new, old = record(inputs()), committed()
        print(json.dumps(new, indent=1))
        if old is None:
            return 0
        lines, moved = compare(old[1], new)
        print(*lines, f"{len(lines)} fields moved from {old[0]}", sep="\n", file=sys.stderr)
        return int(moved)
    if argv[0].startswith("-"):
        print("usage: python3 tools/work.py [SCENARIO.json ...]", file=sys.stderr)
        return 2
    for path in argv:
        try:
            s = cli.load_scenario(Path(path))
        except ValidationError as exc:
            print(f"scenario error: {exc}", file=sys.stderr)
            return 3
        layers = count(s)
        total = sum(layers.values())
        print(f"{path}: {total:,} opcodes")
        for name, n in layers.items():
            print(f"  {name:<20}{n:>12,}{100.0 * n / total:>8.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
