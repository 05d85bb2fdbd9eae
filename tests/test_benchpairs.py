"""``tools/benchpairs.py`` checks its arguments before any checkout, and
writes every traced run it takes."""

import importlib.util
import json
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "benchpairs.py"


@pytest.fixture
def benchpairs(monkeypatch):
    spec = importlib.util.spec_from_file_location("benchpairs", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def extract(rev, dest):
        raise AssertionError("a checkout was extracted")

    monkeypatch.setattr(module, "extract", extract)
    return module


def _argv(seeds="1-2", trace_seeds="1-2"):
    return ["--parent", "HEAD", "--change", "HEAD", "--workload", "witness",
            "--metric", "setup_s", "--seeds", seeds, "--all-seed", "1",
            "--trace-workload", "witness", "--trace-seeds", trace_seeds,
            "--layer", "trace.wall_s", "--out", "unused.json"]


@pytest.mark.parametrize("seeds", ["5", "5-5", "5-3", "x-3", "5-"])
def test_bad_seed_ranges_stop_before_any_checkout(benchpairs, seeds, capsys):
    for flag, argv in [("--seeds", _argv(seeds=seeds)), ("--trace-seeds", _argv(trace_seeds=seeds))]:
        with pytest.raises(SystemExit) as info:
            benchpairs.main(argv)
        assert info.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err


def test_seed_range_reads_first_and_last(benchpairs):
    assert benchpairs.seed_range("1101-1103") == [1101, 1102, 1103]
    assert benchpairs.seed_range("7-8") == [7, 8]


def test_traced_runs_alternate_sides_and_keep_every_value(benchpairs, monkeypatch, tmp_path):
    """One traced run per seed and side, the first side alternating, and
    every run's value with each side's median in the BENCH file."""
    calls = []

    def bench(tree, workload, seed, trace):
        calls.append((tree.name, seed, trace))
        value = seed + (0.5 if tree.name == "change" else 0)
        return {"metrics": {"setup_s": {"value": value}, "trace.wall_s": {"value": value}},
                "rounds": 1, "env": {"cpu": "cpu", "nproc": "1", "python": "3"}}

    monkeypatch.setattr(benchpairs, "extract", lambda rev, dest: None)
    monkeypatch.setattr(benchpairs, "git", lambda *args: "0" * 40)
    monkeypatch.setattr(benchpairs, "bench", bench)
    argv = _argv(trace_seeds="7-9")
    argv[-1] = str(tmp_path / "bench.json")
    assert benchpairs.main(argv) == 0
    assert [call for call in calls if call[2] == 1] == [
        ("parent", 7, 1), ("change", 7, 1), ("change", 8, 1), ("parent", 8, 1),
        ("parent", 9, 1), ("change", 9, 1)]
    traced = json.loads((tmp_path / "bench.json").read_text())["traced"]
    assert traced["seeds"] == [7, 8, 9]
    assert traced["metrics"] == {"trace.wall_s": {
        "runs": {"parent": [7, 8, 9], "change": [7.5, 8.5, 9.5]},
        "median": {"parent": 8, "change": 8.5}}}
