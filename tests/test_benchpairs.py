"""``tools/benchpairs.py`` checks its arguments before any checkout."""

import importlib.util
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


def _argv(seeds):
    return ["--parent", "HEAD", "--change", "HEAD", "--workload", "witness",
            "--metric", "setup_s", "--seeds", seeds, "--all-seed", "1",
            "--trace-workload", "witness", "--trace-seed", "1",
            "--layer", "trace.wall_s", "--out", "unused.json"]


@pytest.mark.parametrize("seeds", ["5", "5-5", "5-3", "x-3", "5-"])
def test_bad_seed_ranges_stop_before_any_checkout(benchpairs, seeds, capsys):
    with pytest.raises(SystemExit) as info:
        benchpairs.main(_argv(seeds))
    assert info.value.code == 2
    assert "--seeds" in capsys.readouterr().err


def test_seed_range_reads_first_and_last(benchpairs):
    assert benchpairs.seed_range("1101-1103") == [1101, 1102, 1103]
    assert benchpairs.seed_range("7-8") == [7, 8]
