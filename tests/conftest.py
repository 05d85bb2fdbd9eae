import os

import pytest

from semirings.endo import end_semiring, enumerate_sr
from semirings.fixtures import FIXTURE_NAMES, load_fixture
from semirings.semimodule import descend_to_irreducible
from semirings.semiring import subsemirings

from reference import restrict


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(num, description): acceptance criterion line")
    config.addinivalue_line(
        "markers", "size6: opt-in sweep over size-6 lattices or larger, run only when "
                   "SEMIRINGS_SIZE6=1")


def pytest_collection_modifyitems(config, items):
    """Skip every ``size6`` test unless SEMIRINGS_SIZE6=1, the one switch
    of the opt-in sweeps."""
    if os.environ.get("SEMIRINGS_SIZE6") == "1":
        return
    skip = pytest.mark.skip(reason="set SEMIRINGS_SIZE6=1 to run the opt-in sweeps")
    for item in items:
        if item.get_closest_marker("size6"):
            item.add_marker(skip)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when != "call":
        return
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    status = "PASS" if rep.passed else ("SKIP" if rep.skipped else "FAIL")
    terminal = item.config.pluginmanager.get_plugin("terminalreporter")
    if terminal is not None:
        terminal.write_line(
            f"criterion {marker.args[0]:>2} {status}: {marker.args[1]}")


@pytest.fixture(scope="session")
def lats():
    return {name: load_fixture(name) for name in FIXTURE_NAMES}


@pytest.fixture(scope="session")
def ends(lats):
    """End(M) as (FiniteSemiring, member tuple) per fixture name."""
    return {name: end_semiring(lat) for name, lat in lats.items()}


@pytest.fixture(scope="session")
def sr_families(lats):
    """Dense subsemiring families per fixture name, ascending by size."""
    return {name: enumerate_sr(lat) for name, lat in lats.items()}


@pytest.fixture(scope="session")
def sr_rings(sr_families):
    """The same families converted to abstract semirings."""
    return {
        name: [fam.to_semiring() for fam in fams]
        for name, fams in sr_families.items()
    }


@pytest.fixture(scope="session")
def descents(sr_rings):
    """(semiring, descent chain) per member of the pipeline families."""
    return {
        name: [(r, descend_to_irreducible(r)) for r in sr_rings[name]]
        for name in ("chain3", "n5", "m3")
    }


@pytest.fixture(scope="session")
def end_subsemirings(ends):
    """Every subsemiring of End(chain3), End(diamond) and End(chain4), as
    restricted Cayley tables, per lattice name."""
    out = {}
    for name in ("chain3", "diamond", "chain4"):
        rend, _ = ends[name]
        out[name] = [restrict(rend, subset) for subset in subsemirings(rend)]
    return out
