"""Metamorphic tests: a transformed scenario must run the same as the original.

The transforms are written here on the scenario JSON, independently of the
package: a translation of every start and target, and a reversal of the agent
ids.  Neither changes the geometry the agents see, so every agent keeps its
fallback count exactly and the run's worst barrier value moves only by
rounding.
"""

import json

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
