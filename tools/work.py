"""Count the Python opcodes one trustcbf run executes, in total and per layer.

    python3 tools/work.py SCENARIO.json [SCENARIO.json ...]

For each scenario file this does what ``trustcbf run`` does after loading it:
``sim.run``, ``sim.summary`` and ``cli.write_outputs`` (CSV, summary and SVG
charts, into a temporary directory); a run logs nothing, so only the counts
are printed.  One untraced warm-up run comes first, so that lazy imports and
caches are settled; then one run is counted with ``sys.settrace`` and
``frame.f_trace_opcodes``, one event per executed opcode.  The count does
not drift with the machine's load, so it can back a wall-time claim; it never
replaces one, since a call into C (``math.acos``, ``array.fromlist``) counts
as one opcode however long it takes.

Each frame's opcodes are charged to one layer.  A frame that the loop calls
(the loop is ``sim.run``, ``sim.summary``, ``controller.agent_step`` and
every helper they call that is not a layer of its own) starts the layer its
function names in ``LAYERS``, or stays in the loop; every other frame joins
its caller's layer.  So the adversary's goal descent counts as a policy, not
as a reference command, and the Euler step's ``AgentState`` as
``euler_step``.

Standard library only; it imports trustcbf from the ``src`` directory next to
this one.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from trustcbf import cli, controller, dynamics, sim, solvers, trust, world  # noqa: E402

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


def count(s) -> dict[str, int]:
    """Opcodes of one run of scenario ``s`` after a warm-up run, by layer in
    ``LAYERS`` order."""
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
    with tempfile.TemporaryDirectory() as tmp:
        # The warm-up run, then the counted one, each as ``trustcbf run`` does
        # it.  Only frames called from here are traced.
        for out, tracer in ((Path(tmp) / "warm-up", previous), (Path(tmp) / "counted", on_call)):
            sys.settrace(tracer)
            try:
                trace = sim.run(s)
                cli.write_outputs(trace, sim.summary(trace, s, ""), s, out)
            finally:
                sys.settrace(previous)
    return {name: c.opcodes for name, c in counters.items()}


def main(argv: list[str]) -> int:
    if not argv or argv[0].startswith("-"):
        print("usage: python3 tools/work.py SCENARIO.json [SCENARIO.json ...]", file=sys.stderr)
        return 2
    for path in argv:
        layers = count(cli.load_scenario(Path(path)))
        total = sum(layers.values())
        print(f"{path}: {total:,} opcodes")
        for name, n in layers.items():
            print(f"  {name:<20}{n:>12,}{100.0 * n / total:>8.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
