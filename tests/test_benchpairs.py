"""``tools/benchpairs.py`` checks its arguments before any checkout,
writes every traced and in-process run it takes and each paired run's
raw round time and calibration mean, times in-process walks and the
lattice enumeration per call to the microsecond, and, stopped by a
signal, ends its child and removes its checkouts."""

import argparse
import hashlib
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
                "rounds": 1, "info": {"wall_s": value, "calibration_mean_ms": 1.0},
                "env": {"cpu": "cpu", "nproc": "1", "python": "3"}}

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


def test_info_numbers_read_the_raw_round_time_and_the_calibration_mean(benchpairs):
    lines = ["info workload walk6 seed 1 trace 0 rounds 3 items 27",
             "info wall_s 0.0152 item_ms_p50 0.1 item_ms_p99 5.0 item_cpu_ms_p50 0.1 "
             "item_cpu_ms_p99 5.0",
             "info calibration passes 12 mean_ms 0.912 cpu_median_ms 0.9",
             "metric wall_ref_s 0.0167 ref_s"]
    assert benchpairs.info_numbers(lines) == {"wall_s": 0.0152, "calibration_mean_ms": 0.912}
    assert benchpairs.info_numbers(lines[:1]) == {"wall_s": None, "calibration_mean_ms": None}


def test_pairs_keep_every_raw_round_time_and_calibration_mean(benchpairs, monkeypatch,
                                                              tmp_path):
    """Beside the metrics, ``pairs`` holds each side's summary of the raw
    ``info`` numbers, every run's value, and the pairs the change won."""
    def bench(tree, workload, seed, trace):
        change = tree.name == "change"
        return {"metrics": {"setup_s": {"value": 1}, "trace.wall_s": {"value": 1}},
                "rounds": 1, "env": {"cpu": "cpu", "nproc": "1", "python": "3"},
                "info": {"wall_s": seed - change, "calibration_mean_ms": seed + change}}

    monkeypatch.setattr(benchpairs, "extract", lambda rev, dest: None)
    monkeypatch.setattr(benchpairs, "git", lambda *args: "0" * 40)
    monkeypatch.setattr(benchpairs, "bench", bench)
    argv = _argv(seeds="1-3")
    argv[-1] = str(tmp_path / "bench.json")
    assert benchpairs.main(argv) == 0
    raw = json.loads((tmp_path / "bench.json").read_text())["pairs"]["raw"]
    assert raw["wall_s"]["runs"] == {"parent": [1, 2, 3], "change": [0, 1, 2]}
    assert raw["wall_s"]["change_wins"] == "3/3"
    assert raw["calibration_mean_ms"]["parent"] == {"q1": 1.5, "median": 2, "q3": 2.5}
    assert raw["calibration_mean_ms"]["change_wins"] == "0/3"


def test_walk_names_read_a_lattice_and_an_optional_set_limit(benchpairs):
    assert benchpairs.walk_name("lat6_14") == "lat6_14"
    assert benchpairs.walk_name("lat6_15@20000") == "lat6_15@20000"
    assert benchpairs.walk_name("enumerate@7") == "enumerate@7"
    for bad in ["m4", "lat6", "lat6_15@", "lat6_15@0", "lat6_15@x", "enumerate",
                "enumerate@", "enumerate@0", "enumerate@x", "enumerate@7@1"]:
        with pytest.raises(argparse.ArgumentTypeError):
            benchpairs.walk_name(bad)


def test_in_process_walks_alternate_sides_and_keep_every_run(benchpairs, monkeypatch, tmp_path):
    """``PASSES`` passes over the named walks, one run a side each, the
    first side alternating by pass; every run, each side's median and
    each side's output go into the ``in_process`` key, and the ``run``
    line names the pass count."""
    calls = []
    monkeypatch.setattr(benchpairs, "PASSES", 3)

    def time_walk(tree, walk):
        calls.append((tree.name, walk))
        seconds = len(calls) / 10 + 0.0000014
        return seconds, f"{walk} out"

    monkeypatch.setattr(benchpairs, "extract", lambda rev, dest: None)
    monkeypatch.setattr(benchpairs, "git", lambda *args: "0" * 40)
    monkeypatch.setattr(benchpairs, "bench", lambda *args: {
        "metrics": {"setup_s": {"value": 1}, "trace.wall_s": {"value": 1}},
        "rounds": 1, "info": {"wall_s": 1.0, "calibration_mean_ms": 1.0},
        "env": {"cpu": "cpu", "nproc": "1", "python": "3"}})
    monkeypatch.setattr(benchpairs, "time_walk", time_walk)
    argv = [*_argv()[:-1], str(tmp_path / "bench.json"),
            "--in-process", "lat6_10", "--in-process", "lat6_15@20000"]
    assert benchpairs.main(argv) == 0
    a, b = "lat6_10", "lat6_15@20000"
    assert calls == [("parent", a), ("change", a), ("parent", b), ("change", b),
                     ("change", a), ("parent", a), ("change", b), ("parent", b),
                     ("parent", a), ("change", a), ("parent", b), ("change", b)]
    entry = json.loads((tmp_path / "bench.json").read_text())["in_process"]
    assert entry["calls"] == benchpairs.CALLS
    assert "3 passes" in entry["run"]
    walks = entry["walks"]
    assert walks["lat6_10"] == {
        "output": {"parent": "lat6_10 out", "change": "lat6_10 out"},
        "parent": {"median_s": 0.600001, "runs_s": [0.100001, 0.600001, 0.900001]},
        "change": {"median_s": 0.500001, "runs_s": [0.200001, 0.500001, 1.000001]}}
    assert list(walks) == ["lat6_10", "lat6_15@20000"]


def test_the_timer_times_the_enumeration_and_hashes_names_and_tables(benchpairs, monkeypatch,
                                                                     tmp_path):
    """``enumerate@N`` times ``enumerate_lattices(N, limit=N)`` per call, and
    its output is the number of lattices and the sha256 of the ``repr`` of
    their (name, join table) pairs, from a stand-in that records its
    arguments in the names."""
    monkeypatch.setattr(benchpairs, "CALLS", 3)
    package = tmp_path / "src" / "semirings"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "closure.py").write_text("SET_LIMIT = 100000\n")
    (package / "errors.py").write_text("class SizeLimit(Exception):\n    pass\n")
    (package / "endo.py").write_text("def enumerate_sr(lat):\n    raise AssertionError\n")
    (package / "lattice.py").write_text(
        "import time\n\n"
        "class Lat:\n"
        "    def __init__(self, name, join):\n"
        "        self.name, self.join = name, join\n\n"
        "def enumerate_lattices(size, limit):\n"
        "    start = time.process_time()\n"
        "    while time.process_time() - start < 0.01:\n        pass\n"
        "    return [Lat(f'lat{size}_{limit}', ((0,),)), Lat('b', ((0, 1), (1, 1)))]\n")
    seconds, output = benchpairs.time_walk(tmp_path, "enumerate@5")
    tables = repr([("lat5_5", ((0,),)), ("b", ((0, 1), (1, 1)))]).encode()
    assert output == f"2 lattices, sha256 {hashlib.sha256(tables).hexdigest()}"
    assert 0.01 <= seconds < 0.05


def test_the_timer_reports_seconds_per_call(benchpairs, monkeypatch, tmp_path):
    """The timing script divides the time of its ``CALLS`` calls by their
    number, with a stand-in ``enumerate_sr`` that counts its calls and a
    stand-in ``enumerate_lattices``: three calls are made, and the output
    is the last call's.  Each member's ``packed`` form is the child's
    ``PYTHONHASHSEED``, which the tool sets to 0 whatever the caller's
    environment holds."""
    monkeypatch.setattr(benchpairs, "CALLS", 3)
    monkeypatch.setenv("PYTHONHASHSEED", "random")
    package = tmp_path / "src" / "semirings"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "closure.py").write_text("SET_LIMIT = 100000\n")
    (package / "errors.py").write_text("class SizeLimit(Exception):\n    pass\n")
    (package / "lattice.py").write_text(
        "class Lat:\n    name = 'lat6_1'\n\n"
        "def enumerate_lattices(size, limit):\n    return [Lat()]\n")
    (package / "endo.py").write_text(
        "import os, time\nCALLS = []\n\n"
        "class Fam:\n    packed = os.environ.get('PYTHONHASHSEED', 'unset').encode()\n\n"
        "def enumerate_sr(lat):\n"
        "    CALLS.append(lat)\n"
        "    start = time.process_time()\n"
        "    while time.process_time() - start < 0.01:\n        pass\n"
        "    return [Fam()] * len(CALLS)\n")
    seconds, output = benchpairs.time_walk(tmp_path, "lat6_1")
    assert output == f"3 sets, sha256 {hashlib.sha256(b'000').hexdigest()[:16]}"
    assert 0.01 <= seconds < 0.05


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
