"""``tools/benchpairs.py`` checks its arguments before any checkout,
writes every traced and in-process run it takes, and, stopped by a
signal, ends its child and removes its checkouts."""

import argparse
import importlib.util
import json
import os
import signal
import subprocess
import sys
import time
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


def test_walk_names_read_a_lattice_and_an_optional_set_limit(benchpairs):
    assert benchpairs.walk_name("lat6_14") == "lat6_14"
    assert benchpairs.walk_name("lat6_15@20000") == "lat6_15@20000"
    for bad in ["m4", "lat6", "lat6_15@", "lat6_15@0", "lat6_15@x"]:
        with pytest.raises(argparse.ArgumentTypeError):
            benchpairs.walk_name(bad)


def test_in_process_walks_alternate_sides_and_keep_every_run(benchpairs, monkeypatch, tmp_path):
    """``PASSES`` passes over the named walks, one run a side each, the
    first side alternating by pass; every run, each side's median and
    each side's output go into the ``in_process`` key."""
    calls = []

    def time_walk(tree, walk):
        calls.append((tree.name, walk))
        seconds = len(calls) / 10
        return seconds, f"{walk} out"

    monkeypatch.setattr(benchpairs, "extract", lambda rev, dest: None)
    monkeypatch.setattr(benchpairs, "git", lambda *args: "0" * 40)
    monkeypatch.setattr(benchpairs, "bench", lambda *args: {
        "metrics": {"setup_s": {"value": 1}, "trace.wall_s": {"value": 1}},
        "rounds": 1, "env": {"cpu": "cpu", "nproc": "1", "python": "3"}})
    monkeypatch.setattr(benchpairs, "time_walk", time_walk)
    argv = [*_argv()[:-1], str(tmp_path / "bench.json"),
            "--in-process", "lat6_10", "--in-process", "lat6_15@20000"]
    assert benchpairs.main(argv) == 0
    a, b = "lat6_10", "lat6_15@20000"
    assert calls == [("parent", a), ("change", a), ("parent", b), ("change", b),
                     ("change", a), ("parent", a), ("change", b), ("parent", b),
                     ("parent", a), ("change", a), ("parent", b), ("change", b)]
    walks = json.loads((tmp_path / "bench.json").read_text())["in_process"]["walks"]
    assert walks["lat6_10"] == {"output": {"parent": "lat6_10 out", "change": "lat6_10 out"},
                                "parent": {"median_s": 0.6, "runs_s": [0.1, 0.6, 0.9]},
                                "change": {"median_s": 0.5, "runs_s": [0.2, 0.5, 1.0]}}
    assert list(walks) == ["lat6_10", "lat6_15@20000"]


# the tool with its checkouts faked under argv[2] and its first run replaced
# by a child that writes its pid to argv[3] and sleeps
STOPPED_TOOL = """
import importlib.util, sys
from pathlib import Path

spec = importlib.util.spec_from_file_location("benchpairs", sys.argv[1])
bp = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bp)
bp.ROOT = Path(sys.argv[2])
bp.git = lambda *args: "0" * 40
bp.extract = lambda rev, dest: dest.mkdir(parents=True)
CHILD = "import os, sys, time; open(sys.argv[1], 'w').write(str(os.getpid())); time.sleep(60)"

def bench(tree, workload, seed, trace):
    bp.run_child([sys.executable, "-c", CHILD, sys.argv[3]], tree)
    raise AssertionError("the child ran to its end")

bp.bench = bench
sys.exit(bp.main(sys.argv[4:]))
"""


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT], ids=["SIGTERM", "SIGINT"])
def test_a_stopping_signal_ends_the_child_and_removes_the_build(signum, tmp_path):
    """Stopped while a run is under way, the tool terminates and reaps the
    run, removes ``.bench_build`` and exits with 128 plus the signal."""
    pidfile = tmp_path / "child.pid"
    argv = [*_argv()[:-1], str(tmp_path / "bench.json")]
    tool = subprocess.Popen([sys.executable, "-c", STOPPED_TOOL, str(PATH), str(tmp_path),
                             str(pidfile), *argv], stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 30
        while not (pidfile.exists() and pidfile.read_text()):
            assert time.monotonic() < deadline and tool.poll() is None, "no child started"
            time.sleep(0.05)
        assert (tmp_path / ".bench_build" / "parent").is_dir()
        tool.send_signal(signum)
        _, err = tool.communicate(timeout=30)
    finally:
        if tool.poll() is None:
            tool.kill()
            tool.wait()
    assert tool.returncode == 128 + signum, err
    assert f"stopped by {signal.Signals(signum).name}" in err
    assert not (tmp_path / ".bench_build").exists()
    with pytest.raises(ProcessLookupError):
        os.kill(int(pidfile.read_text()), 0)
