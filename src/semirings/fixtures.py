"""Bundled lattice fixtures and small reference semirings."""

from __future__ import annotations

from importlib import resources

from .lattice import parse_lat
from .semiring import validate_semiring

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


def boolean_semiring():
    """Two elements, 1 + 1 = 1 and 1 * 1 = 1 (the max/and semiring)."""
    return validate_semiring([[0, 1], [1, 1]], [[0, 0], [0, 1]], 0, name="boolean")


def two_element_trivial_mul():
    """Two elements with idempotent addition and all products zero."""
    return validate_semiring([[0, 1], [1, 1]], [[0, 0], [0, 0]], 0, name="two_trivial")


def field_f2():
    """The two-element field viewed as a semiring (addition is xor)."""
    return validate_semiring([[0, 1], [1, 0]], [[0, 0], [0, 1]], 0, name="f2")
