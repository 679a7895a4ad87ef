"""The opcode counter, tools/work.py."""

import importlib.util
from pathlib import Path

from conftest import shipped


def _work():
    path = Path(__file__).resolve().parents[1] / "tools" / "work.py"
    spec = importlib.util.spec_from_file_location("work", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_opcode_counts_repeat_and_the_layers_sum_to_the_total(monkeypatch):
    # a second run counts the same, and the split charges each opcode to
    # exactly one layer: its layers sum to the count with every frame in the loop
    work = _work()
    s = shipped("crossing", duration=1.0)
    layers = work.count(s)
    assert list(layers) == list(work.LAYERS)
    assert all(n > 0 for n in layers.values()), layers
    assert work.count(s) == layers
    monkeypatch.setattr(work, "LAYERS", {work.LOOP: ()})
    total = work.count(s)
    assert list(total) == [work.LOOP]
    assert sum(layers.values()) == total[work.LOOP]
