"""The summary of tools/bench_pairs.py on fixed numbers."""

import importlib.util
import os

import pytest

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_pairs.py")
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def result(ms, rows, correct=True):
    return {
        "correct": correct,
        "attempted": 10,
        "failed": 0,
        "metrics": {
            "request_ms_p50": {"value": ms, "unit": "ms"},
            "rows_per_s": {"value": rows, "unit": "rows/s"},
        },
    }


METRICS = {"request_ms_p50": "lower", "rows_per_s": "higher"}
PARENT_MS = [20.0, 22.0, 21.0, 23.0, 24.0]
CHANGE_MS = [15.0, 22.0, 16.0, 25.0, 14.0]  # wins 3, ties 1, loses 1
PARENT_ROWS = [100.0, 110.0, 90.0, 95.0, 105.0]
CHANGE_ROWS = [120.0, 100.0, 90.0, 130.0, 140.0]  # wins 3, ties 1, loses 1


def pairs(parent_correct=True, change_correct=True):
    return [
        (
            seed,
            result(p_ms, p_rows, parent_correct or seed != 12),
            result(c_ms, c_rows, change_correct or seed != 13),
        )
        for seed, p_ms, c_ms, p_rows, c_rows in zip(
            range(10, 15), PARENT_MS, CHANGE_MS, PARENT_ROWS, CHANGE_ROWS
        )
    ]


def test_summary_gives_quartiles_and_wins_over_pairs():
    block = bench_pairs.summarise("surrogate-score", "10-14", pairs(), METRICS)
    assert block["workload"] == "surrogate-score"
    assert block["seeds"] == "10-14" and block["pairs"] == 5
    ms = block["metrics"]["request_ms_p50"]
    # statistics.quantiles(n=4), exclusive method, on 20 21 22 23 24
    assert ms["parent"] == {"median": 22.0, "q1": 20.5, "q3": 23.5}
    # on 14 15 16 22 25
    assert ms["change"] == {"median": 16.0, "q1": 14.5, "q3": 23.5}
    assert ms["change_better"] == "3/5"
    rows = block["metrics"]["rows_per_s"]
    assert rows["parent"]["median"] == 100.0
    assert rows["change"]["median"] == 120.0
    assert rows["change_better"] == "3/5"


@pytest.mark.parametrize(
    "bad, named", [("parent", "parent run at seed 12"), ("change", "change run at seed 13")]
)
def test_summary_refuses_a_pair_with_an_incorrect_run(bad, named):
    runs = pairs(parent_correct=bad != "parent", change_correct=bad != "change")
    with pytest.raises(ValueError, match=named):
        bench_pairs.summarise("surrogate-score", "10-14", runs, METRICS)


def test_seed_lists():
    assert bench_pairs.parse_seeds("3401-3404,3410") == [3401, 3402, 3403, 3404, 3410]
    with pytest.raises(ValueError):
        bench_pairs.parse_seeds("5,5")
