"""Bundled lattice fixtures."""

from __future__ import annotations

from importlib import resources

from .lattice import parse_lat

FIXTURE_NAMES = (
    "l2", "chain3", "chain4", "diamond",
    "chain5", "lat50a", "lat50b", "n5", "m3",
)


def fixture_text(name):
    if name not in FIXTURE_NAMES:
        raise KeyError(f"unknown fixture {name!r}")
    return resources.files("semirings.data").joinpath(f"{name}.lat").read_text()


def load_fixture(name):
    return parse_lat(fixture_text(name))

