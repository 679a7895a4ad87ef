"""The opcode counter and the work record, tools/work.py."""

import copy
import gc
import json
import subprocess

import pytest

from conftest import SCENARIOS, shipped, tool
from trustcbf.cli import load_scenario

OUTPUTS = ["alphas.svg", "barriers.svg", "pairs.csv", "summary.json", "trace.csv",
           "trajectories.svg", "trust.svg"]

work = tool("work")


@pytest.fixture(scope="module")
def crossing_record():
    """The work record of a 1 s crossing alone."""
    return work.record({"crossing": shipped("crossing", duration=1.0)})


def test_opcode_counts_repeat_and_the_layers_sum_to_the_total(monkeypatch):
    # a second run counts the same, and the split charges each opcode to
    # exactly one layer: its layers sum to the count with every frame in the loop
    s = shipped("crossing", duration=1.0)
    layers = work.count(s)
    assert list(layers) == list(work.LAYERS)
    assert all(n > 0 for n in layers.values()), layers
    assert work.count(s) == layers
    monkeypatch.setattr(work, "LAYERS", {work.LOOP: ()})
    total = work.count(s)
    assert list(total) == [work.LOOP]
    assert sum(layers.values()) == total[work.LOOP]


def test_a_collection_during_the_run_is_not_counted():
    # a gc callback written in Python (hypothesis installs one) runs on every
    # collection; with collections frequent, the count still does not see it
    s = shipped("crossing", duration=1.0)
    layers = work.count(s)

    def callback(phase, info):
        return phase == "start"

    threshold = gc.get_threshold()
    gc.set_threshold(50, 10, 10)
    gc.callbacks.append(callback)
    try:
        assert work.count(s) == layers
    finally:
        gc.callbacks.remove(callback)
        gc.set_threshold(*threshold)


def test_a_rejected_scenario_exits_3(tmp_path, capsys):
    assert work.main([str(tmp_path / "missing.json")]) == 3
    assert capsys.readouterr().err.startswith("scenario error: cannot read scenario file")


def test_records_repeat_and_each_inputs_layers_sum_to_its_total(crossing_record):
    assert work.record({"crossing": shipped("crossing", duration=1.0)}) == crossing_record
    fields = crossing_record["inputs"]["crossing"]
    assert list(fields["layers"]) == list(work.LAYERS)
    assert fields["opcodes"] == sum(fields["layers"].values())
    assert list(fields["sha256"]) == OUTPUTS
    assert fields["emergency_events"] == 3 and fields["agent_steps"] == 3 * 21


def _main(monkeypatch, capsys):
    """``work.main([])`` with the 1 s crossing as its only input: (exit status,
    the printed record, stderr lines)."""
    monkeypatch.setattr(work, "inputs", lambda: {"crossing": shipped("crossing", duration=1.0)})
    status = work.main([])
    out, err = capsys.readouterr()
    return status, json.loads(out), err.splitlines()


def test_a_moved_count_or_digest_is_named_and_exits_1(crossing_record, monkeypatch, capsys):
    old = copy.deepcopy(crossing_record)
    old["inputs"]["crossing"]["layers"]["score_pairs"] += 1
    old["inputs"]["crossing"]["sha256"]["pairs.csv"] = "0" * 64
    monkeypatch.setattr(work, "committed", lambda: ("BENCH_1.json", old))
    status, new, err = _main(monkeypatch, capsys)
    assert (status, new) == (1, crossing_record)
    moved = crossing_record["inputs"]["crossing"]
    assert err == [f"crossing layers.score_pairs: {moved['layers']['score_pairs'] + 1} -> "
                   f"{moved['layers']['score_pairs']}",
                   f"crossing sha256.pairs.csv: {'0' * 64} -> {moved['sha256']['pairs.csv']}",
                   "2 fields moved from BENCH_1.json"]
    monkeypatch.setattr(work, "committed", lambda: ("BENCH_1.json", crossing_record))
    assert _main(monkeypatch, capsys)[::2] == (0, ["0 fields moved from BENCH_1.json"])


@pytest.mark.parametrize("field, value", [("python", "3.10"), ("libc", "musl 1.2.4")])
def test_a_count_recorded_elsewhere_is_reported_not_failed(crossing_record, field, value):
    old = copy.deepcopy(crossing_record)
    old[field] = value
    old["inputs"]["crossing"]["opcodes"] += 1
    lines, moved = work.compare(old, crossing_record)
    assert not moved
    assert len(lines) == 1 and lines[0].startswith("crossing opcodes: ")
    assert "(not comparable: recorded under " in lines[0] and f"{field} {value}" in lines[0]


def test_with_no_committed_record_the_tool_prints_the_record_and_exits_0(
        crossing_record, monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(work, "ROOT", tmp_path)   # not a git checkout
    assert _main(monkeypatch, capsys) == (0, crossing_record, [])


def test_the_newest_committed_record_has_the_highest_number(tmp_path, monkeypatch):
    for n in (9, 10, 11):
        (tmp_path / f"BENCH_{n}.json").write_text(json.dumps({"n": n}))
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    subprocess.run(["git", "-C", str(tmp_path), "add", "BENCH_9.json", "BENCH_10.json"],
                   check=True)
    monkeypatch.setattr(work, "ROOT", tmp_path)
    assert work.committed() == ("BENCH_10.json", {"n": 10})


def test_ab_reads_the_totals_the_scenario_mode_prints(tmp_path, capsys):
    scenario = json.loads((SCENARIOS / "crossing.json").read_text())
    path = tmp_path / "crossing_1s.json"
    path.write_text(json.dumps({**scenario, "duration": 1.0}))
    assert work.main([str(path)]) == 0
    totals = tool("ab").parse_work_totals(capsys.readouterr().out)
    assert totals == {"crossing_1s": sum(work.count(load_scenario(path)).values())}
