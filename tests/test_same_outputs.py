"""The comparison of tools/same_outputs.py on fabricated output trees."""

import importlib.util
import os

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "same_outputs.py")
spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
same_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_outputs)

FILES = {
    "pin.csv": b"f0,f1,label\n0.5,1.5,0\n",
    "run/metrics.csv": b"epoch,loss\n1,3.25\n",
    "run/timings.csv": b"epoch,wallclock\n1,0.5\n",
}


def make_tree(root, files):
    for rel, payload in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(payload)
    return str(root)


def test_equal_trees_have_no_difference(tmp_path):
    a = make_tree(tmp_path / "a", FILES)
    b = make_tree(tmp_path / "b", FILES)
    assert same_outputs.compare_dirs(a, b) == []


def test_one_changed_byte_is_named(tmp_path):
    a = make_tree(tmp_path / "a", FILES)
    b = make_tree(tmp_path / "b", {**FILES, "run/metrics.csv": b"epoch,loss\n1,3.26\n"})
    assert same_outputs.compare_dirs(a, b) == [
        f"differs: {os.path.join('run', 'metrics.csv')}"
    ]


def test_a_missing_file_is_named(tmp_path):
    a = make_tree(tmp_path / "a", FILES)
    b = make_tree(tmp_path / "b", {k: v for k, v in FILES.items() if k != "pin.csv"})
    assert same_outputs.compare_dirs(a, b) == ["only in parent: pin.csv"]
    assert same_outputs.compare_dirs(b, a) == ["only in change: pin.csv"]


def test_timings_are_ignored(tmp_path):
    a = make_tree(tmp_path / "a", FILES)
    b = make_tree(tmp_path / "b", {**FILES, "run/timings.csv": b"epoch,wallclock\n"})
    os.remove(os.path.join(a, "run", "timings.csv"))
    b2 = make_tree(tmp_path / "b2", {**FILES, "run/timings.csv": b"other"})
    assert same_outputs.compare_dirs(a, b) == []
    assert same_outputs.compare_dirs(b, b2) == []


def test_exit_codes_and_stdout_are_compared():
    parent = [("train a", 0, "loss 1\n"), ("eval b", 0, "ok\n"), ("sample c", 1, "")]
    change = [("train a", 0, "loss 1\n"), ("eval b", 0, "ok!\n"), ("sample c", 1, "")]
    assert same_outputs.compare_runs(parent, change) == [
        "stdout differs: eval b",
        "exit code 1 (parent), 1 (change): sample c",
    ]
