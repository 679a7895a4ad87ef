"""Argument parsing, scenario files, CSV/SVG outputs, and CLI exit codes."""

import gc
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from trustcbf import controller, oracles, solvers
from trustcbf.cli import (PAIRS_HEADER, TRACE_HEADER, load_scenario, main, parse_args,
                          write_charts, write_outputs, write_pairs_csv, write_trace_csv)
from trustcbf.oracles import read_trace_csv
from trustcbf.schema import ValidationError
from trustcbf.sim import AgentSpec, Scenario, run
from trustcbf.world import AgentKind, Model

from conftest import benchmark_workloads, ring12_dict, shipped

REPO = Path(__file__).resolve().parents[1]


def minimal_dict():
    return {
        "agents": [
            {"kind": "Intact", "model": "Unicycle", "start": [0.0, 0.0, 0.0],
             "target": [5.0, 0.0]},
            {"kind": "Uncooperative", "model": "SingleIntegrator",
             "start": [3.0, 0.0], "target": [3.0, 0.0]},
        ],
        "duration": 1.0,
    }


def write_json(tmp_path, obj, name="scn.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return p


def test_parse_args_run_flags(capsys):
    args = parse_args(["run", "--scenario", "a.json", "--out", "o", "--no-svg", "--strict"])
    assert args.command == "run"
    assert args.scenario == Path("a.json") and args.out == Path("o")
    assert args.strict and args.no_svg
    # Every number of a run comes from its scenario file: no option sets one.
    with pytest.raises(SystemExit) as exc:
        parse_args(["run", "--help"])
    assert exc.value.code == 0
    assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) == {
        "--help", "--scenario", "--out", "--no-svg", "--strict"}


def test_parse_args_usage_errors_exit_2():
    for argv in (
        [],                                                   # missing subcommand
        ["run", "--scenario", "a.json"],                      # missing --out
        ["run", "--scenario", "a.json", "--out", "o", "--dt", "0.1"],   # dt is in the file
        ["frobnicate"],
    ):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 2


def test_parse_args_other_subcommands():
    args = parse_args(["validate", "--scenario", "x.json"])
    assert args.command == "validate" and args.scenario == Path("x.json")
    args = parse_args(["oracle", "--qp", "7", "--lp", "9", "--seed", "3"])
    assert (args.command, args.qp, args.lp, args.seed) == ("oracle", 7, 9, 3)


def test_load_scenario_minimal_defaults(tmp_path):
    s = load_scenario(write_json(tmp_path, minimal_dict()))
    assert s.dt == 0.05 and s.duration == 1.0
    assert s.trust.alpha0 == 0.8 and not s.fixed_alpha and s.rate_floor
    assert s.agents[0].target == (5.0, 0.0)
    assert s.agents[0].box.lo == (-3.0, -3.0)
    # Every key the file leaves out takes the dataclass default.
    assert s == Scenario(agents=[
        AgentSpec(AgentKind.INTACT, Model.UNICYCLE, (0.0, 0.0, 0.0), (5.0, 0.0)),
        AgentSpec(AgentKind.UNCOOPERATIVE, Model.SINGLE_INTEGRATOR, (3.0, 0.0), (3.0, 0.0)),
    ], duration=1.0)


def test_load_scenario_rejects_unknown_keys(tmp_path):
    base = minimal_dict()
    for mutate in (
        lambda d: d.update(extra=1),
        lambda d: d["agents"][0].update(color="red"),
        lambda d: d.update(trust={"betta": 1.0}),
        lambda d: d.update(flags={"fast": True}),
    ):
        d = json.loads(json.dumps(base))
        mutate(d)
        with pytest.raises(ValidationError):
            load_scenario(write_json(tmp_path, d))


def test_load_scenario_rejects_semantic_defects(tmp_path):
    d = minimal_dict()
    d["agents"].append({"kind": "Adversarial", "model": "SingleIntegrator",
                        "start": [8.0, 0.0]})      # adversary without prey
    with pytest.raises(ValidationError):
        load_scenario(write_json(tmp_path, d))
    d = minimal_dict()
    d["flags"] = {"fixed_alpha": "yes"}
    with pytest.raises(ValidationError):
        load_scenario(write_json(tmp_path, d))
    d = minimal_dict()
    d["agents"][0]["kind"] = "Sturdy"
    with pytest.raises(ValidationError):
        load_scenario(write_json(tmp_path, d))
    with pytest.raises(ValidationError):
        load_scenario(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValidationError):
        load_scenario(bad)


def test_load_scenario_unknown_target_and_trust_overrides(tmp_path):
    d = minimal_dict()
    d["agents"].append({"kind": "Adversarial", "model": "SingleIntegrator",
                        "start": [8.0, 0.0], "target": "unknown", "prey": 0,
                        "gain": 0.5})
    d["trust"] = {"alpha0": 0.3, "gamma_alpha": 5.0}
    d["flags"] = {"rate_floor": False, "fixed_alpha": True}
    s = load_scenario(write_json(tmp_path, d))
    assert s.agents[2].target is None and s.agents[2].gain == 0.5
    assert s.trust.alpha0 == 0.3 and s.trust.gamma_alpha == 5.0
    assert not s.rate_floor and s.fixed_alpha


def test_readme_scenario_example_loads(tmp_path):
    readme = (REPO / "README.md").read_text()
    section = readme[readme.index("## Scenario files"):]
    example = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    s = load_scenario(write_json(tmp_path, json.loads(example)))
    assert [a.kind for a in s.agents] == [AgentKind.INTACT, AgentKind.ADVERSARIAL,
                                          AgentKind.UNCOOPERATIVE]


def small_trace():
    s = Scenario(agents=load_scenario(REPO / "scenarios" / "crossing.json").agents,
                 duration=0.5)
    return run(s), s


def test_csv_round_trip_is_exact(tmp_path):
    trace, s = small_trace()
    tp, pp = tmp_path / "trace.csv", tmp_path / "pairs.csv"
    write_trace_csv(trace, tp)
    write_pairs_csv(trace, pp)
    assert tp.read_text().splitlines()[0] == TRACE_HEADER
    assert pp.read_text().splitlines()[0] == PAIRS_HEADER

    cols = read_trace_csv(tp)
    n = len(s.agents)
    assert len(cols["t"]) == len(trace.times) * n
    for k in range(len(trace.times)):
        for i in range(n):
            row = k * n + i
            rec = trace.agents[k][i]
            assert cols["px"][row] == rec.px          # 17 digits: bitwise
            assert cols["py"][row] == rec.py
            assert cols["psi"][row] == rec.psi
            assert cols["u1"][row] == rec.u[0]
            assert cols["fallback"][row] == rec.fallback

    pcols = read_trace_csv(pp)
    pair_keys = sorted(trace.pairs[0].keys())
    per_step = len(pair_keys)
    for k in range(len(trace.times)):
        for idx, (i, j) in enumerate(pair_keys):
            row = k * per_step + idx
            assert pcols["i"][row] == i and pcols["j"][row] == j
            assert pcols["h"][row] == trace.pairs[k][(i, j)].h
            assert pcols["alpha"][row] == trace.pairs[k][(i, j)].alpha


def test_csv_headers_are_the_file_format():
    # The headers are built from the record types' field names; a renamed
    # field must not change the file format unnoticed.
    assert TRACE_HEADER == "t,agent_id,px,py,psi,u1_ref,u2_ref,u1,u2,fallback"
    assert PAIRS_HEADER == "t,i,j,h,alpha,rho,rho_d,rho_theta,margin"


def _svg_points(svg: str) -> list[str]:
    return re.findall(r'<polyline points="([^"]*)"', svg)


def test_writers_match_per_field_formatting(tmp_path):
    trace, s = small_trace()
    write_outputs(trace, {}, s, tmp_path)

    def f(x):
        return "%.17g" % x

    lines = [TRACE_HEADER]
    for t, step in zip(trace.times, trace.agents):
        for i, r in enumerate(step):
            lines.append(",".join([f(t), str(i), f(r.px), f(r.py), f(r.psi), f(r.u_ref[0]),
                                   f(r.u_ref[1]), f(r.u[0]), f(r.u[1]), str(r.fallback)]))
    assert (tmp_path / "trace.csv").read_bytes() == ("\n".join(lines) + "\n").encode()
    lines = [PAIRS_HEADER]
    for t, step in zip(trace.times, trace.pairs):
        for (i, j), p in step.items():
            lines.append(",".join([f(t), str(i), str(j), f(p.h), f(p.alpha), f(p.rho),
                                   f(p.rho_d), f(p.rho_theta), f(p.margin)]))
    assert (tmp_path / "pairs.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


def test_chart_points_map_back_to_the_trace_columns(tmp_path):
    # The plot area is 580 x 510 at (70, 40), y upward, and spans the data
    # range on the root's data attributes: every point mapped back through
    # them lies within half a %.2f quantum of its trace value.  On the ring
    # the x range of the trajectories does not start at 0.
    s = load_scenario(write_json(tmp_path, dict(ring12_dict(), duration=0.5)))
    trace = run(s)
    write_charts(trace, s, tmp_path)
    charts = {"trajectories.svg": [(trace.agent_column("px", i), trace.agent_column("py", i))
                                   for i in range(trace.n_agents)]}
    for column, name in (("alpha", "alphas.svg"), ("h", "barriers.svg")):
        charts[name] = [(trace.times, trace.pair_column(column, slot))
                        for slot in range(len(trace.pair_keys))]
    for name, series in charts.items():
        svg = (tmp_path / name).read_text()
        root = {k: float(v) for k, v in re.findall(r'data-([xy]-m..)="([^"]+)"', svg)}
        xs, ys = (np.concatenate([column[axis] for column in series]) for axis in (0, 1))
        assert root == {"x-min": xs.min(), "x-max": xs.max(), "y-min": ys.min(),
                        "y-max": ys.max()}, name
        spans = root["x-max"] - root["x-min"], root["y-max"] - root["y-min"]
        assert min(spans) > 0.0, name
        points = _svg_points(svg)
        assert len(points) == len(series), name
        for pts, (x, y) in zip(points, series):
            sx, sy = np.array([p.split(",") for p in pts.split()], float).T
            back = (root["x-min"] + (sx - 70) / 580 * spans[0],
                    root["y-min"] + (550 - sy) / 510 * spans[1])
            for got, want, span, width in zip(back, (x, y), spans, (580, 510)):
                assert np.all(np.abs(got - want) <= (0.005 / width + 1e-12) * span), name


def test_trace_and_csv_writers_stay_small(tmp_path):
    # The trace keeps each record as flat floats, and the CSV writers write
    # step by step instead of building the file in memory.
    s = shipped("crossing", duration=5.0)
    warm = run(shipped("crossing", duration=0.2))   # first-call allocations stay out
    write_trace_csv(warm, tmp_path / "warm.csv")
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = run(s)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        write_trace_csv(trace, tmp_path / "trace.csv")
        write_pairs_csv(trace, tmp_path / "pairs.csv")
        transient = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    records = len(trace.times) * (len(s.agents) + len(trace.pairs[0]))
    written = sum((tmp_path / name).stat().st_size for name in ("trace.csv", "pairs.csv"))
    assert kept <= 120 * records, f"{kept / records:.0f} B per record"
    assert transient < 0.1 * written, f"{transient} B transient for {written} B written"


def test_run_command_end_to_end(tmp_path, capsys):
    scn = write_json(tmp_path, minimal_dict())
    out = tmp_path / "out"
    rc = main(["run", "--scenario", str(scn), "--out", str(out)])
    assert rc == 0
    for name in ("trace.csv", "pairs.csv", "summary.json", "trajectories.svg",
                 "alphas.svg", "trust.svg", "barriers.svg"):
        assert (out / name).exists(), name
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["dt"] == 0.05
    assert summary["metrics"]["min_h"] > 0.0
    # the barrier chart's plotted minimum equals the reported minimum exactly
    svg = (out / "barriers.svg").read_text()
    y_min = re.search(r'data-y-min="([^"]+)"', svg).group(1)
    assert y_min == "%.17g" % summary["metrics"]["min_h"]
    assert 'viewBox="0 0 800 600"' in svg and "<polyline" in svg
    assert "run complete" in capsys.readouterr().out


OUTPUT_NAMES = ("trace.csv", "pairs.csv", "summary.json", "trajectories.svg",
                "alphas.svg", "trust.svg", "barriers.svg")


def _run_without_pairs(tmp_path, agents):
    """Run a scenario in which no intact agent observes anyone; return the output dir."""
    d = minimal_dict()
    d["agents"] = agents
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(write_json(tmp_path, d)), "--out", str(out)]) == 0
    for name in OUTPUT_NAMES:
        assert (out / name).exists(), name
    assert (out / "pairs.csv").read_text() == PAIRS_HEADER + "\n"
    zero = "%.17g" % 0.0
    for name in ("alphas.svg", "trust.svg", "barriers.svg"):
        svg = (out / name).read_text()
        assert "<polyline" not in svg
        for key in ("x-min", "x-max", "y-min", "y-max"):
            assert f'data-{key}="{zero}"' in svg, (name, key)
    return out


def test_run_command_single_agent_writes_every_file(tmp_path):
    out = _run_without_pairs(tmp_path, minimal_dict()["agents"][:1])
    assert len(_svg_points((out / "trajectories.svg").read_text())) == 1
    assert len(read_trace_csv(out / "trace.csv")["t"]) == 21


def test_run_command_without_intact_agents_writes_every_file(tmp_path):
    crossing = {"kind": "Uncooperative", "model": "SingleIntegrator",
                "start": [0.0, 3.0], "target": [0.0, -3.0]}
    out = _run_without_pairs(tmp_path, minimal_dict()["agents"][1:] + [crossing])
    assert len(_svg_points((out / "trajectories.svg").read_text())) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["metrics"]["agents"] == {}


def test_run_command_no_svg(tmp_path):
    d = minimal_dict()
    d.update(duration=0.2, dt=0.1)
    out = tmp_path / "out"
    rc = main(["run", "--scenario", str(write_json(tmp_path, d)), "--out", str(out), "--no-svg"])
    assert rc == 0
    assert not list(out.glob("*.svg"))
    cols = read_trace_csv(out / "trace.csv")
    assert np.max(cols["t"]) == pytest.approx(0.2)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["duration"] == 0.2 and summary["config"]["dt"] == 0.1
    # unreachable goal in 0.2 s: the reach time serializes as JSON Infinity
    assert summary["metrics"]["agents"]["0"]["goal_reach_time"] == float("inf")


# Whole runs whose every contribution LP and safety QP carries a row with a
# zero normal: two intact integrators that start on the same point (their
# barrier gradient is 0), and a unicycle whose 1e-13 m look-ahead point is
# where its adversary starts.  Each row demands b > 0, so every intact
# agent-step stops.
ZERO_ROW_RUNS = {
    "coincident_integrators": ({
        "agents": [{"kind": "Intact", "model": "SingleIntegrator", "start": [0.0, 0.0],
                    "target": [1.0, 0.0]},
                   {"kind": "Intact", "model": "SingleIntegrator", "start": [0.0, 0.0],
                    "target": [-1.0, 0.0]}],
        "duration": 2.0}, 82),
    "adversary_on_the_lookahead_point": ({
        "agents": [{"kind": "Intact", "model": "Unicycle", "start": [0.0, 0.0, 0.0],
                    "target": [1.0, 0.0]},
                   {"kind": "Adversarial", "model": "SingleIntegrator", "start": [1e-13, 0.0],
                    "target": "unknown", "prey": 0}],
        "duration": 2.0, "lookahead": 1e-13}, 41),
}


@pytest.mark.parametrize("name", sorted(ZERO_ROW_RUNS))
def test_run_command_with_zero_normal_rows(tmp_path, monkeypatch, name):
    d, agent_steps = ZERO_ROW_RUNS[name]
    lps = []
    contribution = controller.max_own_contribution

    def spy(planes, box):
        lps.append(any(math.hypot(a0, a1) < 1e-12 for a0, a1, _ in planes))
        return contribution(planes, box)

    monkeypatch.setattr(controller, "max_own_contribution", spy)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(write_json(tmp_path, d)), "--out", str(out),
                 "--no-svg"]) == 0
    assert lps == [True] * agent_steps
    m = json.loads((out / "summary.json").read_text())["metrics"]
    assert m["emergency_events"] == agent_steps
    assert m["min_h"] == -0.25


def test_run_command_fixed_alpha_freezes_rate_columns(tmp_path):
    d = minimal_dict()
    d.update(duration=0.5, flags={"fixed_alpha": True})
    out = tmp_path / "out"
    rc = main(["run", "--scenario", str(write_json(tmp_path, d)), "--out", str(out), "--no-svg"])
    assert rc == 0
    cols = read_trace_csv(out / "pairs.csv")
    assert set(np.unique(cols["alpha"])) == {0.8}


def test_validate_command_writes_nothing(tmp_path, capsys):
    scn = write_json(tmp_path, minimal_dict())
    before = set(tmp_path.rglob("*"))
    assert main(["validate", "--scenario", str(scn)]) == 0
    assert set(tmp_path.rglob("*")) == before
    assert capsys.readouterr().out.startswith("OK:")


def test_exit_3_on_invalid_scenario(tmp_path, capsys):
    d = minimal_dict()
    d["extra"] = 1
    scn = write_json(tmp_path, d)
    assert main(["validate", "--scenario", str(scn)]) == 3
    assert main(["run", "--scenario", str(scn), "--out", str(tmp_path / "o")]) == 3
    assert "scenario error" in capsys.readouterr().err


def _assert_exit_3(tmp_path, d):
    scn = write_json(tmp_path, d)
    assert main(["validate", "--scenario", str(scn)]) == 3
    assert main(["run", "--scenario", str(scn), "--out", str(tmp_path / "o"), "--no-svg"]) == 3


def test_exit_3_on_nan_dt(tmp_path):
    d = minimal_dict()
    d["dt"] = math.nan   # json writes the NaN literal, which json.loads accepts
    _assert_exit_3(tmp_path, d)


def test_exit_3_on_infinite_duration(tmp_path):
    d = minimal_dict()
    d["duration"] = math.inf
    _assert_exit_3(tmp_path, d)


def test_exit_3_on_negative_lookahead(tmp_path):
    d = minimal_dict()
    d["lookahead"] = -1.0
    _assert_exit_3(tmp_path, d)


def test_exit_3_on_alpha_max_below_alpha_min(tmp_path):
    d = minimal_dict()
    d["trust"] = {"alpha_min": 0.5, "alpha_max": 0.1, "alpha0": 0.3}
    _assert_exit_3(tmp_path, d)


def test_exit_3_on_negative_motion_bound(tmp_path, capsys):
    # A negative v_max gives the first step's estimate ball a negative
    # radius, which turns its worst-case point into the best case.
    for name in ("v_max", "L_F", "L_hdot"):
        d = json.loads(CROSSING.read_text())
        d["trust"][name] = -1.0
        _assert_exit_3(tmp_path, d)
        assert f"trust.{name} must be nonnegative" in capsys.readouterr().err
    d = json.loads(CROSSING.read_text())
    d["trust"].update(v_max=0.0, L_F=0.0, L_hdot=0.0)
    assert main(["validate", "--scenario", str(write_json(tmp_path, d))]) == 0


def test_exit_3_on_trust_field_beyond_the_magnitude_bound(tmp_path, capsys):
    # At alpha 1e308, -alpha * h overflows and the run wrote inf into its CSVs.
    d = json.loads(CROSSING.read_text())
    d["trust"].update(alpha0=1e308, alpha_max=1e308)
    _assert_exit_3(tmp_path, d)
    assert "trust.alpha0 must be at most" in capsys.readouterr().err
    for name in ("rho_bar_d", "beta", "k_blend", "gamma_alpha", "alpha0", "alpha_min",
                 "alpha_max", "L_F", "L_hdot", "v_max"):
        d = json.loads(CROSSING.read_text())
        d["trust"][name] = 2e6
        assert main(["validate", "--scenario", str(write_json(tmp_path, d))]) == 3, name
        assert f"trust.{name} must be at most" in capsys.readouterr().err


# Values the schema rejects because they break the trust scores' documented
# ranges or invert adaptation, and the message each one gets.
NEW_REJECTIONS = {
    "negative_beta": (lambda d: d["trust"].update(beta=-1.0), "trust.beta must be nonnegative"),
    "negative_k_blend": (lambda d: d["trust"].update(k_blend=-1.0),
                         "trust.k_blend must be nonnegative"),
    "negative_gamma_alpha": (lambda d: d["trust"].update(gamma_alpha=-2.0),
                             "trust.gamma_alpha must be nonnegative"),
    "rho_bar_d_below_0": (lambda d: d["trust"].update(rho_bar_d=-0.5),
                          "trust.rho_bar_d must be nonnegative"),
    "rho_bar_d_above_1": (lambda d: d["trust"].update(rho_bar_d=5.0),
                          "trust.rho_bar_d must be at most 1"),
    # agent 1 of crossing is intact and agent 3 adversarial: neither reads speed
    "zero_speed_on_an_intact_agent": (lambda d: d["agents"][1].update(speed=0.0),
                                      "agents[1].speed must be positive"),
    "negative_speed_on_an_adversary": (lambda d: d["agents"][3].update(speed=-1.0),
                                       "agents[3].speed must be positive"),
    "zero_gain_on_an_intact_agent": (lambda d: d["agents"][0].update(gain=0.0),
                                     "agents[0].gain must be positive"),
}


@pytest.mark.parametrize("case", sorted(NEW_REJECTIONS))
def test_exit_3_on_values_outside_the_trust_score_ranges(tmp_path, capsys, case):
    mutate, message = NEW_REJECTIONS[case]
    d = json.loads(CROSSING.read_text())
    mutate(d)
    _assert_exit_3(tmp_path, d)
    assert message in capsys.readouterr().err


def test_zero_beta_k_blend_and_gamma_alpha_validate(tmp_path):
    d = json.loads(CROSSING.read_text())
    d["trust"].update(beta=0.0, k_blend=0.0, gamma_alpha=0.0, rho_bar_d=0.0)
    assert main(["validate", "--scenario", str(write_json(tmp_path, d))]) == 0
    d["trust"]["rho_bar_d"] = 1.0
    assert main(["validate", "--scenario", str(write_json(tmp_path, d))]) == 0


def test_exit_3_on_three_dimensional_box(tmp_path):
    d = minimal_dict()
    d["agents"][0]["box"] = [[-3.0, -3.0, -3.0], [3.0, 3.0, 3.0]]
    _assert_exit_3(tmp_path, d)


HEADON = REPO / "scenarios" / "headon_stress.json"
CROSSING = REPO / "scenarios" / "crossing.json"


def test_exit_3_on_step_count_overflow(tmp_path, capsys):
    # At dt 1e-310, duration / dt overflows to infinity, which no step count
    # can hold; the other two give finite step counts whose trace could never
    # be held in memory.
    for key, value in (("dt", 1e-310), ("dt", 1e-300), ("duration", 1e6)):
        d = json.loads(HEADON.read_text())
        d[key] = value
        _assert_exit_3(tmp_path, d)
        assert "records" in capsys.readouterr().err, (key, value)
    assert not (tmp_path / "o").exists()


def test_exit_3_on_integer_too_large_for_a_float(tmp_path, capsys):
    # More digits than Python converts to an int: the JSON parser itself refuses.
    scn = tmp_path / "digits.json"
    scn.write_text(HEADON.read_text().replace('"duration": 22.0', '"duration": 1' + "0" * 5000))
    assert main(["validate", "--scenario", str(scn)]) == 3
    assert "not valid JSON" in capsys.readouterr().err


def test_exit_3_on_alpha_update_order_flag(tmp_path, capsys):
    # The rate of each pair moves before the safety QP; no flag selects another order.
    d = json.loads(HEADON.read_text())
    d["flags"]["alpha_update_order"] = "before"
    assert main(["validate", "--scenario", str(write_json(tmp_path, d))]) == 3
    assert "alpha_update_order" in capsys.readouterr().err


def test_exit_3_on_magnitudes_that_overflow_the_geometry(tmp_path, capsys):
    # Each scenario is finite, yet its squared distances overflow: the barrier
    # gradient's norm becomes inf, so the safe normal is (-0, 0) and the
    # direction score divides by zero, or a far Euler step leaves the floats.
    far = {"agents": [
        {"kind": "Intact", "model": "SingleIntegrator", "start": [-1e200, 0.0],
         "target": [0.0, 0.0]},
        {"kind": "Uncooperative", "model": "SingleIntegrator", "start": [1e200, 0.0],
         "target": [1e200, 5.0]},
    ], "duration": 1.0}
    crossing = json.loads((REPO / "scenarios" / "crossing.json").read_text())
    for d, field in ((far, "agents[0]"),
                     (dict(crossing, dt=1e200, duration=2e201), "duration"),
                     (dict(crossing, lookahead=1e200), "lookahead")):
        _assert_exit_3(tmp_path, d)
        assert field in capsys.readouterr().err
    # At the bound itself a run finishes, and every value it writes is finite.
    big = dict(crossing, dt=1e3, duration=1e6, lookahead=1e6)
    big["agents"] = [dict(a, start=[1e6, -1e6, *a["start"][2:]], d_min=1e6,
                          box=[[-1e6, -1e6], [1e6, 1e6]])
                     for a in crossing["agents"]]
    for a, y in zip(big["agents"], (-1e6, 0.0, 1e6, 0.0, -1e6, 1e6)):
        a["start"][1] = y
        if a["target"] != "unknown":
            a["target"] = [-1e6, -y]
    scn = write_json(tmp_path, big)
    assert main(["validate", "--scenario", str(scn)]) == 0
    out = tmp_path / "big"
    assert main(["run", "--scenario", str(scn), "--out", str(out), "--no-svg"]) == 0
    for name in ("trace.csv", "pairs.csv"):
        cols = read_trace_csv(out / name)
        assert all(np.all(np.isfinite(v)) for v in cols.values()), name


def test_exit_0_on_overflowing_adversary_gain(tmp_path):
    # k * V overflows, so the adversary's saturated pursuit must not turn
    # inf * 0.0 into a NaN command.
    d = json.loads(HEADON.read_text())
    d["agents"][1]["gain"] = 1e308
    d["duration"] = 1.0
    scn = write_json(tmp_path, d)
    assert main(["validate", "--scenario", str(scn)]) == 0
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scn), "--out", str(out), "--no-svg"]) == 0
    cols = read_trace_csv(out / "trace.csv")
    assert all(np.all(np.isfinite(v)) for v in cols.values())


def test_exit_4_on_unwritable_output(tmp_path, capsys):
    scn = write_json(tmp_path, minimal_dict())
    blocker = tmp_path / "blocker"
    blocker.write_text("a plain file, not a directory")
    rc = main(["run", "--scenario", str(scn), "--out",
               str(blocker / "out"), "--no-svg"])
    assert rc == 4
    assert "i/o error" in capsys.readouterr().err


def test_exit_5_on_strict_emergency(tmp_path, capsys):
    d = minimal_dict()
    # plant the neighbor inside the safety radius: the filter has no feasible
    # command and must emergency-stop from the first step
    d["agents"][1]["start"] = [0.4, 0.0]
    d["agents"][1]["target"] = [0.4, 0.0]
    d["duration"] = 0.2
    scn = write_json(tmp_path, d)
    out = tmp_path / "out"
    rc = main(["run", "--scenario", str(scn), "--out", str(out),
               "--strict", "--no-svg"])
    assert rc == 5
    assert "strict mode" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["metrics"]["emergency_events"] > 0
    # without --strict the same run reports the events but exits cleanly
    assert main(["run", "--scenario", str(scn), "--out", str(out), "--no-svg"]) == 0


def test_oracle_command_self_test():
    assert main(["oracle", "--qp", "25", "--lp", "25", "--seed", "1"]) == 0


def test_oracle_command_checks_the_goal_descent(monkeypatch, capsys):
    assert main(["oracle", "--qp", "40", "--lp", "0", "--seed", "2"]) == 0
    goal = re.search(r"^goal: 40 instances, (\d+) clamped, (\d+) empty, .* 0 failures$",
                     capsys.readouterr().out, re.M)
    assert goal and int(goal[1]) > 0 and int(goal[2]) > 0

    # the foot clipped to the box componentwise leaves the line wherever the
    # foot leaves the box
    def clipped(row, box):
        a0, a1, b = row
        s = b / (a0 * a0 + a1 * a1)
        return box.clip((s * a0, s * a1))

    monkeypatch.setattr(solvers, "solve_min_norm", clipped)
    assert main(["oracle", "--qp", "40", "--lp", "0", "--seed", "2"]) == 1
    assert re.search(r"^goal: 40 instances, .* [1-9]\d* failures$",
                     capsys.readouterr().out, re.M)


def test_oracle_command_checks_the_emptiness_certificate(monkeypatch, capsys):
    assert main(["oracle", "--qp", "0", "--lp", "40", "--seed", "2"]) == 0
    cert = re.search(r"^cert: 40 instances, (\d+) certified, 0 unsound, 0 failures$",
                     capsys.readouterr().out, re.M)
    assert cert and int(cert[1]) > 0
    # a certificate that names the emptying plane alone is unsound wherever
    # that plane leaves a point in the box; the LPs it declares empty
    # without a clip then include some that solve_lp finds a value for
    monkeypatch.setattr(solvers, "_certify_empty", lambda planes, m, poly, box: (m,))
    assert main(["oracle", "--qp", "0", "--lp", "40", "--seed", "2"]) == 1
    assert re.search(r"^cert: .* [1-9]\d* unsound, [1-9]\d* failures$",
                     capsys.readouterr().out, re.M)


@pytest.mark.parametrize("flip", ["value_for_empty", "none_for_value"])
def test_oracle_command_checks_the_leave_one_out_verdicts(monkeypatch, capsys, flip):
    # on lists without a certificate, one leave-one-out LP gets the wrong
    # verdict: a value where solve_lp finds the LP empty, or None where it
    # finds a value
    leave_one_out = solvers.solve_lp_leave_one_out

    def flipped(planes, box):
        values, chain = leave_one_out(planes, box)
        if chain.cert is None:
            for k, v in enumerate(values):
                if (v is None) == (flip == "value_for_empty"):
                    values[k] = 0.0 if v is None else None
                    break
        return values, chain

    monkeypatch.setattr(solvers, "solve_lp_leave_one_out", flipped)
    assert main(["oracle", "--qp", "0", "--lp", "40", "--seed", "2"]) == 1
    assert re.search(r"^cert: 40 instances, \d+ certified, 0 unsound, [1-9]\d* failures$",
                     capsys.readouterr().out, re.M)


def test_oracle_command_fails_when_the_solver_and_the_oracle_disagree(monkeypatch, capsys):
    # every random QP is feasible, so an oracle that calls it empty disagrees
    monkeypatch.setattr(oracles, "qp_oracle", lambda *args, **kwargs: None)
    assert main(["oracle", "--qp", "5", "--lp", "0"]) == 1
    assert re.search(r"^qp: 5 instances, .* 5 failures$", capsys.readouterr().out, re.M)


def test_oracle_command_counts_a_raising_solver_as_a_failure(monkeypatch, capsys):
    def raising(*args):
        raise solvers.Infeasible("broken")

    monkeypatch.setattr(solvers, "solve_lp", raising)
    assert main(["oracle", "--qp", "0", "--lp", "3"]) == 1
    assert re.search(r"^lp: 3 instances, .* 3 failures$", capsys.readouterr().out, re.M)
    monkeypatch.setattr(solvers, "solve_lp_leave_one_out", raising)
    assert main(["oracle", "--qp", "0", "--lp", "3"]) == 1
    assert re.search(r"^cert: 3 instances, .* 3 failures$", capsys.readouterr().out, re.M)


def test_oracle_command_checks_the_lp_vertex(monkeypatch, capsys):
    # the right value at a vertex slid 1e-6 along the objective's level line,
    # out of the polygon: only the vertex check sees it
    solve_lp = solvers.solve_lp

    def slid(c, rows, box):
        value, (x, y) = solve_lp(c, rows, box)
        n = math.hypot(c[0], c[1])
        return value, (x - 1e-6 * c[1] / n, y + 1e-6 * c[0] / n)

    monkeypatch.setattr(solvers, "solve_lp", slid)
    assert main(["oracle", "--qp", "0", "--lp", "10"]) == 1
    assert re.search(r"^lp: 10 instances, .* [1-9]\d* failures$", capsys.readouterr().out, re.M)


def test_oracle_command_checks_that_the_qp_repeats_its_bits(monkeypatch, capsys):
    # one ulp on every second call: each instance's second answer differs
    solve_qp = solvers.solve_qp
    calls = itertools.count()

    def drifting(problem):
        x, y = solve_qp(problem)
        return (math.nextafter(x, math.inf), y) if next(calls) % 2 else (x, y)

    monkeypatch.setattr(solvers, "solve_qp", drifting)
    assert main(["oracle", "--qp", "10", "--lp", "0"]) == 1
    assert re.search(r"^qp: 10 instances, .* 10 failures$", capsys.readouterr().out, re.M)


@pytest.mark.parametrize("flag", ["--qp", "--lp", "--seed"])
def test_oracle_command_rejects_a_negative_count(flag, capsys):
    # a negative count used to check nothing and report 0 failures; a negative
    # seed ended in numpy's traceback
    with pytest.raises(SystemExit) as exc:
        main(["oracle", flag, "-3"])
    assert exc.value.code == 2
    assert "must be zero or more" in capsys.readouterr().err
    assert getattr(parse_args(["oracle", flag, "0"]), flag[2:]) == 0   # zero stays allowed


# --- the run path without numpy ----------------------------------------------

# Runs main() in a fresh interpreter in which every numpy and fractions
# import fails.
WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = sys.modules["fractions"] = None
from trustcbf.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _python(*args):
    paths = [str(REPO / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run([sys.executable, *args], env=env, cwd=REPO, capture_output=True,
                          text=True, timeout=120)


def test_run_validate_and_oracle_without_numpy(tmp_path):
    # the six benchmark inputs run without numpy, and without the solvers'
    # exact Fraction clip, which none of them reaches
    workloads = benchmark_workloads()
    scenarios = [workloads.scenario_file(key, tmp_path) for key in workloads.all_keys()]
    assert len(scenarios) == 6
    for k, scn in enumerate(scenarios):
        out = tmp_path / f"out{k}"
        r = _python("-c", WITHOUT_NUMPY, "run", "--scenario", str(scn), "--out", str(out))
        assert r.returncode == 0, r.stderr
        assert sorted(p.name for p in out.iterdir()) == [
            "alphas.svg", "barriers.svg", "pairs.csv", "summary.json", "trace.csv",
            "trajectories.svg", "trust.svg"]
    r = _python("-c", WITHOUT_NUMPY, "validate", "--scenario", str(scenarios[0]))
    assert r.returncode == 0, r.stderr
    r = _python("-c", WITHOUT_NUMPY, "oracle", "--qp", "1", "--lp", "1")
    assert r.returncode == 2
    assert r.stderr.splitlines() == [
        "oracle needs numpy: install the test extra, e.g. pip install -e '.[test]'"]


def test_module_entry_point_runs_without_warnings():
    r = _python("-W", "error", "-m", "trustcbf.cli", "validate", "--scenario",
                "scenarios/crossing.json")
    assert r.returncode == 0
    assert r.stderr == ""


# --- import boundary ---------------------------------------------------------

# Prints the trustcbf modules loaded after a bare package import, then after
# loading a scenario, one JSON list per line.
LOADED_MODULES = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m == "trustcbf" or m.startswith("trustcbf."))
import trustcbf
print(json.dumps(loaded()))
from trustcbf import cli
cli.load_scenario("scenarios/crossing.json")
print(json.dumps(loaded()))
"""


def test_loading_a_scenario_imports_only_the_schema():
    r = _python("-W", "error", "-c", LOADED_MODULES)
    assert r.returncode == 0, r.stderr
    bare, loaded = map(json.loads, r.stdout.splitlines())
    assert bare == ["trustcbf"]
    assert loaded == ["trustcbf", "trustcbf.cli", "trustcbf.schema"]
