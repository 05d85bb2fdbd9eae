"""Quotients, restrictions and submodules against the relabelling loops
they replaced, kept here as references.

Each reference builds the tables of the new structure by its own loop: a
quotient finds the first element of each block and relabels its row and
column by block ids, and a restriction reindexes the sorted members.  The
package builds all of them with ``closure.relabel`` and the block
representatives of ``Congruence.reps``; the tables must be equal on every
principal congruence and every subsemiring of End(chain3) and
End(diamond), and on the principal congruences and single-generated
submodules of the modules of the fixture descents.
"""

import random

import pytest

from semirings.closure import principal_test_pairs
from semirings.endo import end_semiring
from semirings.fixtures import load_fixture
from semirings.semimodule import (
    _pairs_of,
    close_module_subset,
    module_principal,
    quotient_module,
    submodule,
)
from semirings.semiring import (
    Congruence,
    principal_congruence,
    quotient_semiring,
    restrict,
    subsemirings,
)


def reference_reps(cong):
    reps = [None] * cong.num_blocks
    for x in range(cong.n):
        if reps[cong.blocks[x]] is None:
            reps[cong.blocks[x]] = x
    return reps


def reference_quotient_semiring(r, cong):
    reps = reference_reps(cong)
    add = tuple(tuple(cong.blocks[r.add[a][b]] for b in reps) for a in reps)
    mul = tuple(tuple(cong.blocks[r.mul[a][b]] for b in reps) for a in reps)
    return len(reps), add, mul, cong.blocks[r.zero]


def reference_restrict(r, subset):
    members = sorted(subset)
    index = {m: i for i, m in enumerate(members)}
    add = tuple(tuple(index[r.add[a][b]] for b in members) for a in members)
    mul = tuple(tuple(index[r.mul[a][b]] for b in members) for a in members)
    return len(members), add, mul, index[r.zero]


def reference_quotient_module(mod, cong):
    reps = reference_reps(cong)
    madd = tuple(tuple(cong.blocks[mod.madd[a][b]] for b in reps) for a in reps)
    act = tuple(tuple(cong.blocks[mod.act[r][b]] for b in reps) for r in range(mod.ring.n))
    return len(reps), madd, act, cong.blocks[mod.mzero]


def reference_submodule(mod, subset):
    members = sorted(subset)
    index = {x: i for i, x in enumerate(members)}
    madd = tuple(tuple(index[mod.madd[a][b]] for b in members) for a in members)
    act = tuple(tuple(index[mod.act[r][b]] for b in members) for r in range(mod.ring.n))
    return len(members), madd, act, index[mod.mzero]


def tables(r):
    return r.n, r.add, r.mul, r.zero


def module_tables(mod):
    return mod.m, mod.madd, mod.act, mod.mzero


@pytest.mark.parametrize("name, count", [("chain3", 20), ("diamond", 222)])
def test_quotients_and_restrictions_match_the_relabel_loops(name, count):
    r, _ = end_semiring(load_fixture(name))
    subs = subsemirings(r)
    assert len(subs) == count
    proper = 0
    for s in subs:
        sub = restrict(r, s)
        assert tables(sub) == reference_restrict(r, s)
        for x in range(sub.n):
            for y in range(x + 1, sub.n):
                cong = principal_congruence(sub, x, y)
                assert tables(quotient_semiring(sub, cong)) == reference_quotient_semiring(sub, cong)
                proper += not cong.is_total()
    assert proper > 0


def descent_cases(mod):
    """Pairs whose principal congruences the test quotients by: every pair
    of a module of at most 12 elements, and on the larger regular modules
    the covering pairs of ``closure.principal_test_pairs``, as closing all
    of their ~1000 pairs each takes seconds."""
    if mod.m <= 12:
        return [(x, y) for x in range(mod.m) for y in range(x + 1, mod.m)]
    return principal_test_pairs(mod.madd)


def test_module_quotients_and_submodules_match_the_relabel_loops(descents):
    mods = [mod for chains in descents.values() for _, chain in chains for mod in chain]
    assert len(mods) == 20
    proper_quotients = proper_subs = 0
    for mod in mods:
        for x in range(mod.m):
            s = close_module_subset(mod, (x,))
            assert module_tables(submodule(mod, s)) == reference_submodule(mod, s)
            proper_subs += len(s) < mod.m
        for x, y in descent_cases(mod):
            cong = module_principal(mod, x, y)
            assert module_tables(quotient_module(mod, cong)) == reference_quotient_module(mod, cong)
            proper_quotients += not cong.is_total()
    assert proper_quotients > 0 and proper_subs > 0


def test_reps_do_not_need_ids_numbered_by_first_use():
    cong = Congruence(6, (2, 0, 2, 1, 0, 1))
    assert cong.reps == reference_reps(cong) == [1, 3, 0]
    assert _pairs_of(cong) == [(0, 2), (1, 4), (3, 5)]
    r, _ = end_semiring(load_fixture("diamond"))
    rng = random.Random(0)
    for x in range(1, r.n):
        cong = principal_congruence(r, 0, x)
        perm = list(range(cong.num_blocks))
        rng.shuffle(perm)
        renumbered = Congruence(r.n, tuple(perm[b] for b in cong.blocks))
        assert renumbered.reps == reference_reps(renumbered)
        assert [renumbered.reps[perm[b]] for b in range(cong.num_blocks)] == cong.reps
