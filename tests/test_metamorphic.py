"""Metamorphic tests: a transformed scenario must run the same as the original.

The transforms are written here on the scenario JSON, independently of the
package: a translation of every start and target, a reversal of the agent
ids, a turn by 90 degrees and a mirror image.  None changes the geometry the
agents see: the last two map every position, heading and integrator command
box along, and the box of a unicycle's (v, omega) command keeps v and, in the
mirror, negates omega.  So every agent keeps its fallback count exactly and
the run's worst barrier value moves only by rounding.
"""

import json
import math

import pytest

from trustcbf.cli import load_scenario
from trustcbf.sim import metrics, run

from conftest import SCENARIOS, ring12_dict

INPUTS = {
    "crossing": lambda: json.loads((SCENARIOS / "crossing.json").read_text()),
    "headon": lambda: json.loads((SCENARIOS / "headon_stress.json").read_text()),
    "ring12": ring12_dict,
}


def translated(d, dx=3.0, dy=-2.0):
    """Every start and known target moved by (dx, dy); headings stay."""
    for a in d["agents"]:
        a["start"] = [a["start"][0] + dx, a["start"][1] + dy, *a["start"][2:]]
        if isinstance(a.get("target"), list):
            a["target"] = [a["target"][0] + dx, a["target"][1] + dy]
    return d


def reversed_ids(d):
    """The agents in reverse order, each prey renamed to its new id."""
    n = len(d["agents"])
    d["agents"].reverse()
    for a in d["agents"]:
        if a.get("prey") is not None:
            a["prey"] = n - 1 - a["prey"]
    return d


def _transformed(d, point, heading, integrator_box, unicycle_box):
    """Every start and known target mapped by ``point``, every unicycle heading
    by ``heading`` (a start without one faces along +x), and every declared
    control box by the map of its model; an undeclared box is the default
    [-3, 3]^2, which both maps below keep."""
    for a in d["agents"]:
        unicycle = a["model"] == "Unicycle"
        x, y = point(*a["start"][:2])
        a["start"] = [x, y, heading(a["start"][2] if len(a["start"]) > 2 else 0.0)] \
            if unicycle else [x, y]
        if isinstance(a.get("target"), list):
            a["target"] = list(point(*a["target"]))
        if "box" in a:
            (lo0, lo1), (hi0, hi1) = a["box"]
            a["box"] = (unicycle_box if unicycle else integrator_box)(lo0, lo1, hi0, hi1)
    return d


def rotated(d):
    """The scenario turned by 90 degrees: (x, y) -> (-y, x), psi -> psi + pi/2.
    An integrator's command (vx, vy) turns to (-vy, vx), so its box becomes
    [-hi1, -lo1] x [lo0, hi0]; a unicycle's (v, omega) box stays."""
    return _transformed(d, lambda x, y: (-y, x), lambda psi: psi + math.pi / 2.0,
                        lambda lo0, lo1, hi0, hi1: [[-hi1, lo0], [-lo1, hi0]],
                        lambda lo0, lo1, hi0, hi1: [[lo0, lo1], [hi0, hi1]])


def mirrored(d):
    """The scenario mirrored in the y axis: x -> -x, psi -> pi - psi.  An
    integrator's x bounds and a unicycle's omega bounds change sign and
    swap."""
    return _transformed(d, lambda x, y: (-x, y), lambda psi: math.pi - psi,
                        lambda lo0, lo1, hi0, hi1: [[-hi0, lo1], [-lo0, hi1]],
                        lambda lo0, lo1, hi0, hi1: [[lo0, -hi1], [hi0, -lo1]])


def outcome(d, path):
    """Per-agent fallback counts and the run's min_h."""
    path.write_text(json.dumps(d))
    s = load_scenario(path)
    trace = run(s)
    fallbacks = [int(sum(trace.agent_column("fallback", i))) for i in range(len(s.agents))]
    return fallbacks, metrics(trace, s)["min_h"]


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_translation_and_reversed_ids_keep_the_outcome(name, tmp_path):
    fallbacks, min_h = outcome(INPUTS[name](), tmp_path / "base.json")
    assert sum(fallbacks) > 0, name   # every input exercises the fallbacks

    moved, moved_h = outcome(translated(INPUTS[name]()), tmp_path / "moved.json")
    assert moved == fallbacks
    # the ring's sustained emergency stops amplify the translation's rounding
    # to 2.3e-10 by the step of its worst barrier value
    assert abs(moved_h - min_h) <= 1e-9

    flipped, flipped_h = outcome(reversed_ids(INPUTS[name]()), tmp_path / "flipped.json")
    assert flipped[::-1] == fallbacks
    assert abs(flipped_h - min_h) <= 1e-10


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_rotation_and_mirror_keep_the_outcome(name, tmp_path):
    # Fails where the translation and the id reversal pass: on crossing with
    # the solvers' box read as [lo0, hi0] on both axes (its adversary's box is
    # not square), on crossing and ring12 with the bearing of a unicycle's
    # waypoint taken as atan2(ex, ey), and, under the mirror, on crossing and
    # ring12 with the motion's deflection angle in the direction score signed.
    fallbacks, min_h = outcome(INPUTS[name](), tmp_path / "base.json")
    for transform in (rotated, mirrored):
        got, got_h = outcome(transform(INPUTS[name]()), tmp_path / "moved.json")
        assert got == fallbacks, transform.__name__
        # the headings' rounding, amplified like the translation's: at most
        # 1.6e-10 (ring12, mirrored) by the step of the worst barrier value
        assert abs(got_h - min_h) <= 1e-9, transform.__name__
