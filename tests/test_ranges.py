"""The declared interval of every scenario number, and the validate-then-run
contract at the ends of each interval.

Every number a scenario file gives lies in an interval that its dataclass
field declares.  At a closed end, and one float inside it, a run must finish
with exit 0 or 5 and write only finite CSV values.  One float outside, any
value below an open lower end, NaN, either infinity and an integer too large
for a float must each make the scenario exit 3 with a message that names the
field.  The table is generated from the declared intervals, so it reaches
every element of every field on every agent kind.
"""

import json
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np

from trustcbf.cli import main
from trustcbf.oracles import read_trace_csv
from trustcbf.sim import AgentSpec, Scenario
from trustcbf.trust import TrustParams

REPO = Path(__file__).resolve().parents[1]

B = 1e6
INF = math.inf
# (lo, hi, lo_open), written out here independently of trustcbf.  Every
# number must be finite, so an infinite end is open.
BOUNDED = (0.0, B, False)
BOUNDED_POSITIVE = (0.0, B, True)
POSITIVE = (0.0, INF, True)
COORDINATE = (-B, B, False)
FINITE = (-INF, INF, False)

# Each scenario number's JSON path and interval; a tuple of intervals gives
# each element of a sequence its own, one interval covers every element.
RANGES = {
    "duration": BOUNDED,
    "dt": POSITIVE,
    "gamma_nominal": POSITIVE,
    "lookahead": BOUNDED_POSITIVE,
    "agents[i].start": (COORDINATE, COORDINATE, FINITE),
    "agents[i].target": COORDINATE,
    "agents[i].d_min": BOUNDED_POSITIVE,
    "agents[i].box": COORDINATE,
    "agents[i].speed": POSITIVE,
    "agents[i].gain": POSITIVE,
    "trust.rho_bar_d": (0.0, 1.0, False),
    "trust.beta": BOUNDED,
    "trust.k_blend": BOUNDED,
    "trust.gamma_alpha": BOUNDED,
    "trust.alpha0": BOUNDED_POSITIVE,
    "trust.alpha_min": BOUNDED_POSITIVE,
    "trust.alpha_max": BOUNDED_POSITIVE,
    "trust.L_F": BOUNDED,
    "trust.L_hdot": BOUNDED,
    "trust.v_max": BOUNDED,
}

FLAGS = {"fixed_alpha", "rate_floor"}


def _path(cls, name):
    if cls is AgentSpec:
        return f"agents[i].{name}"
    if cls is TrustParams:
        return f"trust.{name}"
    return f"flags.{name}" if name in FLAGS else name


def _fields():
    """(JSON path, dataclass field) of every field of the three scenario dataclasses."""
    return [(_path(cls, f.name), f) for cls in (Scenario, AgentSpec, TrustParams)
            for f in fields(cls)]


def test_declared_ranges_are_the_table():
    declared = {path: f.metadata["range"] for path, f in _fields() if "range" in f.metadata}
    assert declared == RANGES


# --- the README's field table ------------------------------------------------

def _fmt(interval):
    if isinstance(interval[0], tuple):
        return " × ".join(_fmt(i) for i in interval)
    lo, hi, lo_open = interval

    def num(x):
        return f"{x:g}".replace("e+0", "e").replace("inf", "∞")

    left = "(" if lo_open or lo == -INF else "["
    return f"{left}{num(lo)}, {num(hi)}{')' if hi == INF else ']'}"


def test_readme_table_shows_every_field_and_its_interval():
    readme = (REPO / "README.md").read_text()
    section = readme[readme.index("## Scenario files"):]
    rows = {}
    for line in section.splitlines():
        m = re.match(r"\| `([^`]+)` \| ([^|]+) \|", line)
        if m:
            rows[m.group(1)] = m.group(2).strip()
    for path, f in _fields():
        assert path in rows, path
        if path in RANGES:
            assert rows[path] == _fmt(RANGES[path]), path


# --- the ends of each interval -----------------------------------------------

def base():
    """One agent of each kind on a 0.2 s horizon; agent 0 is the intact unicycle."""
    return {
        "agents": [
            {"kind": "Intact", "model": "Unicycle", "start": [0.0, 0.0, 0.0],
             "target": [5.0, 0.0]},
            {"kind": "Adversarial", "model": "SingleIntegrator", "start": [4.0, 1.0],
             "prey": 0},
            {"kind": "Uncooperative", "model": "SingleIntegrator", "start": [2.0, -3.0],
             "target": [2.0, 3.0]},
        ],
        "duration": 0.2,
        "trust": {},
    }


# Every agent kind accepts every agent field, so each is set on every agent;
# psi, the third start element, only on the unicycle, agent 0.
AGENTS = (0, 1, 2)
ALPHAS = ("alpha0", "alpha_min", "alpha_max")
# Outside every interval: NaN, both infinities, and an integer that JSON
# holds but a float cannot.
NOT_A_NUMBER = (math.nan, INF, -INF, 10 ** 400)


def _scenario(path, agent, element, value, inside):
    """The base scenario with element ``element`` (None for a scalar) of the
    number at ``path`` set to ``value``, on agent ``agent`` for an agent
    field, and the path its message names."""
    d = base()
    section, _, name = path.rpartition(".")
    if section == "trust":
        # alpha_min <= alpha0 <= alpha_max holds when all three are equal.
        names = ALPHAS if inside and name in ALPHAS else (name,)
        d["trust"].update(dict.fromkeys(names, value))
        return d, path
    if not section:
        d[name] = value
        if name == "duration" and inside:
            d["dt"] = max(value, 0.05)   # at most two steps, even at 1e6
        return d, path
    spec = d["agents"][agent]
    if name == "box":
        # Each bound keeps the box around 0: lo moves to the lower end, hi to the upper.
        box = [[-3.0, -3.0], [3.0, 3.0]]
        box[element // 2][element % 2] = value
        spec["box"] = box
    elif element is None:
        spec[name] = value
    else:
        spec.setdefault(name, [1.0, 1.0])[element] = value   # the adversary has no target
    return d, f"agents[{agent}].{name}"


def _values(lo, hi, lo_open, name):
    """(value, inside) for every closed end with one float inside and one
    outside it, every finite open end, a value below an open lower end, and
    NOT_A_NUMBER."""
    for end, is_open, inward, outward in ((lo, lo_open or lo == -INF, hi, -INF),
                                          (hi, hi == INF, lo, INF)):
        if name == "box" and end == 0.0:
            continue   # the box must contain 0; its other end is the declared one
        if not is_open:
            yield end, True
            yield math.nextafter(end, inward), True
            yield math.nextafter(end, outward), False
        elif math.isfinite(end):
            yield end, False   # NOT_A_NUMBER holds the infinite ends
    if lo_open:
        yield math.nextafter(lo, -INF), False
    for value in NOT_A_NUMBER:
        yield value, False


def _cases():
    """(path, agent, element, value, inside) for each of ``_values`` at every
    element of every number, on every agent that accepts it (agent None off
    the agents)."""
    for path, interval in RANGES.items():
        section, _, name = path.rpartition(".")
        if isinstance(interval[0], tuple):
            per_element = list(enumerate(interval))
        elif name == "target":
            per_element = [(0, interval), (1, interval)]
        elif name == "box":
            # Elements 0, 1 are the lower bounds, 2, 3 the upper ones.
            lo, hi, lo_open = interval
            per_element = [(0, (lo, 0.0, lo_open)), (1, (lo, 0.0, lo_open)),
                           (2, (0.0, hi, False)), (3, (0.0, hi, False))]
        else:
            per_element = [(None, interval)]
        for element, (lo, hi, lo_open) in per_element:
            if section != "agents[i]":
                agents = (None,)
            else:
                agents = AGENTS[:1] if name == "start" and element == 2 else AGENTS
            for agent in agents:
                for value, inside in _values(lo, hi, lo_open, name):
                    yield path, agent, element, value, inside


def _run(tmp_path, d):
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps(d))
    out = tmp_path / "out"
    return main(["run", "--scenario", str(scn), "--out", str(out), "--no-svg", "--strict"]), out


def test_every_field_runs_at_its_ends_and_fails_just_outside(tmp_path, capsys):
    cases = list(_cases())
    assert {path for path, *_ in cases} == set(RANGES)
    for path, agent, element, value, inside in cases:
        d, named = _scenario(path, agent, element, value, inside)
        code, out = _run(tmp_path, d)
        err = capsys.readouterr().err
        case = (path, agent, element, value)
        if inside:
            assert code in (0, 5), (case, err)
            for name in ("trace.csv", "pairs.csv"):
                cols = read_trace_csv(out / name)
                assert all(np.all(np.isfinite(v)) for v in cols.values()), (case, name)
        else:
            assert code == 3, case
            # A finite value fails its range check; a value that is not a
            # number has one message of its own.
            if value in NOT_A_NUMBER:   # NaN is found by identity
                why = ": integer too large for a float" if isinstance(value, int) else " must be finite"
                assert f"scenario error: {named}{why}" in err, (case, err)
            else:
                assert f"{named} must be" in err, (case, err)
