"""The statistics and exit status of the A/B command, tools/ab.py; no run is started."""

import json
from pathlib import Path

import pytest

from conftest import tool

ab = tool("ab")


@pytest.mark.parametrize("won, n, p", [(9, 10, 0.021484375), (1, 10, 0.021484375),
                                       (10, 10, 0.001953125), (5, 10, 1.0), (0, 0, 1.0)])
def test_sign_test_p_is_the_two_sided_binomial_tail(won, n, p):
    assert ab.sign_test_p(won, n) == p


def test_tied_pairs_count_for_neither_side():
    pairs = [(1.0, 0.5), (1.0, 1.0), (2.0, 2.0), (1.0, 1.5)]
    assert ab.wins(pairs, "lower") == (1, 2)


def test_a_win_counts_the_other_way_when_higher_is_better():
    pairs = [(1.0, 0.5), (1.0, 0.9), (1.0, 1.5)]
    assert ab.wins(pairs, "lower") == (2, 3)
    assert ab.wins(pairs, "higher") == (1, 3)


def _stdout(**result):
    return "env: {}\nworkload headon, seed 0, trace 0\n" + json.dumps(
        {"correct": True, "attempted": 3, "failed": 0,
         "metrics": {"run_s": {"value": 0.04, "unit": "s"}}, **result}) + "\n"


def test_a_run_that_is_not_correct_or_failed_makes_the_exit_status_1():
    good = ab.parse_result(_stdout())
    assert ab.value(good, "run_s") == 0.04
    assert ab.exit_status([good, good]) == 0
    assert ab.exit_status([good, ab.parse_result(_stdout(correct=False))]) == 1
    assert ab.exit_status([good, ab.parse_result(_stdout(failed=1))]) == 1
    assert ab.exit_status([good, ab.parse_result("Traceback ...\n")]) == 1


def test_seconds_default_to_the_benchmark_run_seconds():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    args = ab.parse_args(["HEAD", "HEAD"], spec)
    assert args.seconds == spec["run_seconds"]
    assert args.workload == [w["name"] for w in spec["workloads"]]
