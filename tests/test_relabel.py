"""Quotients, restrictions and submodules against the relabelling loops
they replaced, kept here as references.

Each reference builds the tables of the new structure by its own loop: a
quotient finds the first element of each block and relabels its row and
column by block ids, and a restriction reindexes the sorted members.  The
package builds all of them with ``closure.relabel`` and the block
representatives of ``Congruence.reps``; the tables must be equal on every
principal congruence and every subsemiring of End(chain3) and
End(diamond), and on the principal congruences and single-generated
submodules of the modules of the fixture descents.  A partition may be
given by any labels, and every structure reads its zero from its tables.
"""

import random

import pytest

from semirings.closure import principal_test_pairs
from semirings.endo import end_semiring, zero_map
from semirings.errors import ValidationError
from semirings.fixtures import load_fixture
from semirings.lattice import dual, hom_to_l2
from semirings.semimodule import (
    close_module_subset,
    ideal_module,
    maximal_nontotal_congruence,
    minimal_nonzero_submodule,
    module_lattice,
    module_principal,
    quotient_module,
    regular_module,
    submodule,
)
from semirings.semiring import (
    Congruence,
    absorbing_ideal,
    opposite,
    principal_congruence,
    quotient_semiring,
    recover_monoid,
    subsemirings,
)

from reference import natural_module, restrict


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


def test_labels_are_renumbered_by_first_use():
    cong = Congruence((2, 0, 2, 1, 0, 1))
    assert cong.n == 6 and cong.blocks == (0, 1, 0, 2, 1, 2)
    assert cong.reps == reference_reps(cong) == [0, 1, 3]
    assert cong.pairs == [(0, 2), (1, 4), (3, 5)]
    assert Congruence("abacbc") == cong
    r, _ = end_semiring(load_fixture("diamond"))
    rng = random.Random(0)
    for x in range(1, r.n):
        cong = principal_congruence(r, 0, x)
        perm = list(range(cong.num_blocks))
        rng.shuffle(perm)
        assert Congruence(perm[b] for b in cong.blocks) == cong
        assert Congruence(frozenset({perm[b]}) for b in cong.blocks).blocks == cong.blocks


def test_quotients_take_any_labels_and_reject_a_wrong_length():
    r, _ = end_semiring(load_fixture("chain3"))
    mod = regular_module(r)
    quotients = ((quotient_semiring, r, tables), (quotient_module, mod, module_tables))
    for quotient, structure, shape in quotients:
        for labels in [(0, 1, 2, 3, 4), (0, 1, 2, 3, 4, 5, 6), (), (0,) * 7]:
            with pytest.raises(ValidationError, match="^partition is not a (semiring|module) "
                               "congruence$"):
                quotient(structure, Congruence(labels))
        assert shape(quotient(structure, Congruence((0, 1, 2, 3, 4, 6)))) == shape(structure)
    # labels out of first-use order give what the renumbered partition gives
    rng = random.Random(1)
    cases = [((2, 0, 2, 1, 0, 1), (0, 1, 0, 2, 1, 2))]
    for _ in range(300):
        labels = [rng.choice((0, 1, 2, 7, "x")) for _ in range(rng.randrange(4, 9))]
        ids = {}
        cases.append((labels, tuple(ids.setdefault(b, len(ids)) for b in labels)))
    for labels, renumbered in cases:
        for quotient, structure, shape in quotients:
            try:
                got = shape(quotient(structure, Congruence(labels)))
            except ValidationError:
                with pytest.raises(ValidationError):
                    quotient(structure, Congruence(renumbered))
            else:
                assert got == shape(quotient(structure, Congruence(renumbered)))
    # principal congruences relabelled, on every subsemiring of End(chain3)
    proper = 0
    for sub in (restrict(r, s) for s in subsemirings(r)):
        sub_mod = regular_module(sub)
        for x in range(sub.n):
            for y in range(x + 1, sub.n):
                cong = principal_congruence(sub, x, y)
                labels = [f"block{9 - b}" for b in cong.blocks]
                want = tables(quotient_semiring(sub, cong))
                assert tables(quotient_semiring(sub, Congruence(labels))) == want
                cong = module_principal(sub_mod, x, y)
                labels = [(9 - b,) for b in cong.blocks]
                want = module_tables(quotient_module(sub_mod, cong))
                assert module_tables(quotient_module(sub_mod, Congruence(labels))) == want
                proper += 1 < cong.num_blocks < sub.n
    assert proper > 0


def test_derived_zeros_equal_the_zeros_the_builders_passed(lats, ends, sr_families, sr_rings,
                                                           end_subsemirings, descents):
    """Each structure reads its zero from its tables; it is the one the
    constructors were given before: 0 for a parsed lattice, the top for a
    dual, the zero map for a hom lattice and for End(M) and its dense
    subsemirings, the position of the zero in a restriction, its block in a
    quotient, the ring's zero in a regular module and the lattice's zero in
    a natural module."""
    for lat in lats.values():
        assert lat.zero == 0 and dual(lat).zero == lat.top
        hom_lat, _, homs = hom_to_l2(lat)
        assert homs[hom_lat.zero] == (0,) * lat.n
    for name, (r, members) in ends.items():
        assert members[r.zero] == zero_map(lats[name])
    for name, fams in sr_families.items():
        for fam, r in zip(fams, sr_rings[name], strict=True):
            assert fam.sorted_members()[r.zero] == zero_map(fam.lattice)
        assert natural_module(fams[0]).mzero == lats[name].zero
    count = 0
    for name, subs in end_subsemirings.items():
        rend, _ = ends[name]
        for subset, sub in zip(subsemirings(rend), subs, strict=True):
            assert sub.zero == sorted(subset).index(rend.zero)
            assert opposite(sub).zero == regular_module(sub).mzero == sub.zero
            ideal = absorbing_ideal(sub)
            if ideal is not None:
                assert recover_monoid(sub).zero == ideal.index(sub.zero)
                assert ideal_module(sub).mzero == ideal.index(sub.zero)
            for x in range(1, sub.n):
                cong = principal_congruence(sub, sub.zero, x)
                assert quotient_semiring(sub, cong).zero == cong.blocks[sub.zero]
            count += 1
    assert count == 20 + 222 + 710
    # 0_R acts as the zero map, so its row of the action holds only the zero
    # the builder passed: the block or the position of the zero of M0
    for chains in descents.values():
        for r, chain in chains:
            assert all(set(mod.act[r.zero]) == {mod.mzero} for mod in chain)
    # the m3 members (orders 44 to 50) take seconds to find their congruence
    for r, chain in descents["chain3"] + descents["n5"]:
        m0, m1 = chain[:2]
        assert m0.mzero == r.zero
        assert m1.mzero == maximal_nontotal_congruence(m0).blocks[m0.mzero]
        if len(chain) == 3:
            members = sorted(minimal_nonzero_submodule(m1))
            assert chain[2].mzero == members.index(m1.mzero)
        assert module_lattice(chain[-1]).zero == chain[-1].mzero
