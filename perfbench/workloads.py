"""The benchmark's workloads and the scenario files they hand to trustcbf.

``crossing`` and ``headon`` run the shipped scenario files unchanged.
``ring12`` is generated here and written as scenario files, so the workload
seed reaches the program only through those files.

Run as a script, this module is the set-up probe: a fresh interpreter that
turns a workload into a validated ``Scenario`` and prints the monotonic clock
reading at which it finished.

    python3 perfbench/workloads.py <workload> <seed> <scratch-dir>
"""

from __future__ import annotations

import json
import math
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from trustcbf import cli  # noqa: E402

WORKLOADS = ("crossing", "ring12", "headon")
SHIPPED = {"crossing": ROOT / "scenarios" / "crossing.json",
           "headon": ROOT / "scenarios" / "headon_stress.json"}

# ring12: intact unicycles on an antipodal ring, each bound for the opposite
# point.  Its start angles carry one of RING_VARIANTS seeded jitters, and a
# reference trace is stored for each.  The 12-agent jam is chaotic, so the
# variants differ in work and fallbacks; every measurement therefore cycles
# through all of them, starting at the seed's variant.
RING_AGENTS = 12
RING_RADIUS = 6.0
RING_JITTER = 0.02      # rad, breaks the ring's exact symmetry
RING_DURATION = 4.0     # s: approach plus the central encounter
RING_VARIANTS = 4


def ring12_scenario(variant: int) -> dict:
    """Scenario JSON object for one ring12 variant; trust settings match crossing."""
    rng = random.Random(variant)
    agents = []
    for k in range(RING_AGENTS):
        theta = 2.0 * math.pi * k / RING_AGENTS + rng.uniform(-RING_JITTER, RING_JITTER)
        x, y = RING_RADIUS * math.cos(theta), RING_RADIUS * math.sin(theta)
        agents.append({"kind": "Intact", "model": "Unicycle",
                       "start": [x, y, theta + math.pi], "target": [-x, -y],
                       "d_min": 0.5, "box": [[-3.0, -3.0], [3.0, 3.0]]})
    return {"agents": agents, "duration": RING_DURATION, "dt": 0.05,
            "trust": {"rho_bar_d": 0.5, "alpha_min": 0.01, "alpha_max": 2.0,
                      "gamma_alpha": 2.0},
            "gamma_nominal": 3.0, "lookahead": 0.1}


def input_keys(workload: str, seed: int) -> list[str]:
    """Keys of the inputs one measurement cycles through, in order.

    A key names both the scenario file and its stored reference.
    """
    if workload in SHIPPED:
        return [workload]
    if workload != "ring12":
        raise ValueError(f"unknown workload {workload!r}")
    return [f"ring12-{(seed + k) % RING_VARIANTS}" for k in range(RING_VARIANTS)]


def all_keys() -> list[str]:
    return sorted({key for w in WORKLOADS for key in input_keys(w, 0)})


def scenario_file(key: str, scratch: Path) -> Path:
    """Path of the input's scenario file, generating it into ``scratch`` for ring12."""
    if key in SHIPPED:
        return SHIPPED[key]
    path = scratch / f"{key}.json"
    path.write_text(json.dumps(ring12_scenario(int(key.split("-")[1])), indent=1) + "\n")
    return path


if __name__ == "__main__":
    name, seed, scratch = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    cli.load_scenario(scenario_file(input_keys(name, seed)[0], scratch))
    print(repr(time.monotonic()))
