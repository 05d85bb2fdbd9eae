"""The incremental closure, the walk and the congruence closure against
from-scratch references.

The reference below re-closes every set from scratch, pairing each popped
element with every member, and walks by closing ``s | {x}`` anew.  It is
the algorithm the incremental one replaced, kept here only as an oracle.
The dense-family walk over maps is also compared with the same walk over
the Cayley table of End(M), which could replace it.
The least dense subsemiring, now built as the join-span of the elementary
maps, is checked against the generic closure under join and both
compositions that it replaced, and its fold over maps encoded as ``bytes``
(n² <= 256) or ``str`` against the same fold over image tuples.  The
congruence reference relabels blocks until every translation of every
element lands in the block of the translation of its block's first element.
The compatibility checks of semiring and module congruences are compared
with the pair-by-pair definition on every partition of every subsemiring
of End(chain3).  Simplicity, decided on the covering pairs of the additive
order, is checked against closing every pair.  Closures that stop once they relate the zero
and the additive top are checked against closures that run to one block,
and the greedy maximal nontotal module congruence against the same greedy
with the one-block stop, over the covering pairs it walks and, on the
descents, over every pair.  Its result must be maximal against every pair,
covering or not.  The one isomorphism search and check are
compared with the lattice search, the semiring search and the semiring
check they replaced, kept here as references: both searches must agree on
whether an isomorphism exists, and each mapping found must pass the old
check.  Two graph structures that colour refinement cannot tell apart
drive the search through every branch.  The colour refinement, which
codes each profile entry as an integer, must colour exactly as the tuple
profiles it replaced.  The
Cayley tables and the closedness test of a subsemiring of End(M), built
from maps encoded as strings, are compared with the tuple loops they
replaced.
"""

import itertools
import random

import pytest

from semirings import closure
from semirings.closure import (
    _joint_colors,
    close,
    close_congruence,
    closed_sets,
    idempotent,
    is_table_iso,
    principal_test_pairs,
    table_iso,
    table_products,
    zero_top_pair,
)
from semirings.endo import (
    EndoSubsemiring,
    _products,
    compose,
    dense_closure,
    elementary,
    elementary_maps,
    end_semiring,
    endomorphisms,
    enumerate_sr,
    identity_map,
    pointwise_join,
    zero_map,
)
from semirings.errors import SizeLimit, ValidationError
from semirings.fixtures import (
    FIXTURE_NAMES,
    boolean_semiring,
    field_f2,
    load_fixture,
    two_element_trivial_mul,
)
from semirings.lattice import (
    LatticeIso,
    _poset_colors,
    dual,
    enumerate_lattices,
    lattice_iso,
    validate_lattice,
)
from semirings.semimodule import (
    _only_trivial_congruences,
    is_module_congruence,
    maximal_nontotal_congruence,
    module_congruences,
    module_principal,
    regular_module,
    subsemimodules,
)
from semirings.semiring import (
    Congruence,
    check_iso,
    close_subset,
    is_congruence_simple,
    is_semiring_congruence,
    principal_congruence,
    opposite,
    product_semiring,
    restrict,
    semiring_anti_iso,
    semiring_iso,
    structure_flags,
    subsemirings,
    validate_semiring,
)


def reference_close(seed, binary, unary=()):
    members = set(seed)
    work = list(members)
    while work:
        x = work.pop()
        new = [op(x, y) for y in list(members) for op in binary]
        new += [op(y, x) for y in list(members) for op in binary]
        new += [op(x) for op in unary]
        for z in new:
            if z not in members:
                members.add(z)
                work.append(z)
    return frozenset(members)


def reference_walk(base, universe, close_from_scratch):
    seen = {base}
    stack = [base]
    while stack:
        s = stack.pop()
        for x in universe:
            if x not in s:
                t = close_from_scratch(s | {x})
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
    return sorted(seen, key=lambda s: (len(s), sorted(s)))


def endo_ops(lat):
    return (lambda f, g: pointwise_join(lat, f, g), compose)


def reference_dense_closure(lat):
    return reference_close([zero_map(lat), *elementary_maps(lat)], endo_ops(lat))


def ring_ops(r):
    return (lambda x, y: r.add[x][y], lambda x, y: r.mul[x][y])


def module_ops(mod):
    actions = [lambda x, row=row: row[x] for row in mod.act]
    return (lambda x, y: mod.madd[x][y],), actions


def small_lattices():
    return list(enumerate_lattices(5)) + [load_fixture(n) for n in FIXTURE_NAMES]


def test_enumerate_sr_matches_reference():
    for lat in small_lattices():
        ops = endo_ops(lat)
        want = reference_walk(reference_dense_closure(lat), endomorphisms(lat),
                              lambda s: reference_close(s, ops))
        assert [f.members for f in enumerate_sr(lat)] == want, lat.name


def dense_family_over_the_end_table(lat):
    """The dense family walked over the Cayley table of End(M): the closed
    sets of ``end_semiring(lat)`` under + and both products, started from
    the indices of ``dense_closure``, with each index set mapped back to
    its maps."""
    r, members = end_semiring(lat)
    index = {f: i for i, f in enumerate(members)}
    base = frozenset(index[f] for f in dense_closure(lat).members)
    products = table_products((r.add, r.mul, r.mul_t))
    sets = closed_sets(base, range(r.n), lambda s, x: close(s, (x,), products),
                       noun="dense subsemirings")
    return [frozenset(members[i] for i in s) for s in sets]


def test_enumerate_sr_matches_the_walk_over_the_end_table():
    for lat in small_lattices():
        assert [f.members for f in enumerate_sr(lat)] == dense_family_over_the_end_table(lat), \
            lat.name


@pytest.mark.size6
@pytest.mark.parametrize("k", range(1, 14))
def test_enumerate_sr_matches_the_walk_over_the_end_table_on_size_six(k):
    lat = next(lat for lat in enumerate_lattices(6) if lat.name == f"lat6_{k}")
    assert [f.members for f in enumerate_sr(lat)] == dense_family_over_the_end_table(lat)


def test_closed_sets_raise_size_limit_past_set_limit(monkeypatch):
    # under the identity closure every subset of range(3) is closed: 8 sets
    def walk():
        return closed_sets(frozenset(), range(3), lambda s, x: s | {x}, noun="sets")

    monkeypatch.setattr(closure, "SET_LIMIT", 8)
    assert len(walk()) == 8
    monkeypatch.setattr(closure, "SET_LIMIT", 7)
    with pytest.raises(SizeLimit, match="more than 7 sets"):
        walk()


@pytest.mark.parametrize("name, count", [("chain3", 20), ("diamond", 222)])
def test_subsemirings_match_reference(name, count):
    r, _ = end_semiring(load_fixture(name))
    ops = ring_ops(r)
    want = reference_walk(reference_close([r.zero], ops), range(r.n),
                          lambda s: reference_close(s, ops))
    assert len(want) == count
    assert subsemirings(r) == want


@pytest.mark.parametrize("name", ["chain3", "diamond"])
def test_subsemimodules_match_reference(name):
    r, _ = end_semiring(load_fixture(name))
    mod = regular_module(r)
    binary, unary = module_ops(mod)
    want = reference_walk(reference_close([mod.mzero], binary, unary), range(mod.m),
                          lambda s: reference_close(s, binary, unary))
    assert subsemimodules(mod) == want


def test_dense_closure_matches_reference_on_size_six():
    sizes = []
    for lat in enumerate_lattices(6):
        if lat.n == 6:
            got = dense_closure(lat).members
            assert got == reference_dense_closure(lat), lat.name
            sizes.append(len(got))
    assert len(sizes) == 15
    assert min(sizes) == 98


def closure_of_elementary_maps(lat):
    """The path ``dense_closure`` replaced: the incremental closure of the
    zero map and the elementary maps under join and both compositions."""
    return close(frozenset(), [zero_map(lat), *elementary_maps(lat)], _products(lat))


def test_dense_closure_is_the_closure_of_the_elementary_maps():
    for lat in small_lattices():
        sub = dense_closure(lat)
        assert sub.members == closure_of_elementary_maps(lat), lat.name
        assert sub.is_closed(), lat.name


@pytest.mark.size6
def test_dense_closure_is_the_closure_of_the_elementary_maps_on_size_seven():
    sevens = [lat for lat in enumerate_lattices(7) if lat.n == 7]
    assert len(sevens) == 53
    for lat in sevens:
        assert dense_closure(lat).members == closure_of_elementary_maps(lat), lat.name


def tuple_fold_dense_closure(lat):
    """The fold of ``dense_closure`` on image tuples, one lattice join per
    coordinate of each sum, as it ran before maps were encoded as strings."""
    join = lat.join
    span = {zero_map(lat)}
    for e in elementary_maps(lat):
        if e in span:
            continue
        span.update([tuple([join[a][b] for a, b in zip(f, e)]) for f in span])
    return frozenset(span)


def m_lattice(k):
    """M_k: a bottom 0, k pairwise incomparable atoms 1..k, and a top k + 1."""
    n, top = k + 2, k + 1
    return validate_lattice([[x if x == y else y if x == 0 else x if y == 0 else top
                              for y in range(n)] for x in range(n)], name=f"M{k}")


def test_dense_closure_matches_the_tuple_fold_up_to_size_seven():
    lats = list(enumerate_lattices(7)) + [load_fixture(n) for n in FIXTURE_NAMES]
    assert len(lats) == 78 + len(FIXTURE_NAMES)
    for lat in lats:
        assert dense_closure(lat).members == tuple_fold_dense_closure(lat), lat.name


@pytest.mark.parametrize("k", range(1, 9))
def test_dense_closure_matches_the_tuple_fold_on_m_k(k):
    lat = m_lattice(k)
    assert dense_closure(lat).members == tuple_fold_dense_closure(lat)


def test_dense_closure_on_m15_above_the_bytes_encoding():
    lat = m_lattice(15)
    assert lat.n ** 2 > 256
    with pytest.raises(SizeLimit):
        dense_closure(lat)
    assert dense_closure(lat, max_size=None).size == 22532


@pytest.mark.size6
@pytest.mark.parametrize("k", [13, 14, 15, 16])
def test_dense_closure_matches_the_tuple_fold_around_the_bytes_boundary(k):
    lat = m_lattice(k)
    got = dense_closure(lat, max_size=None).members
    assert got == tuple_fold_dense_closure(lat)


@pytest.mark.parametrize("name", ["chain3", "diamond", "n5", "m3"])
def test_dense_closure_size_limit_boundary(name):
    lat = load_fixture(name)
    size = dense_closure(lat).size
    assert dense_closure(lat, max_size=size).size == size
    with pytest.raises(SizeLimit):
        dense_closure(lat, max_size=size - 1)


def test_each_pair_is_combined_once_and_base_pairs_never():
    r, _ = end_semiring(load_fixture("diamond"))
    pairs = []

    def products(x, y):
        pairs.append(frozenset((x, y)))
        return r.add[x][y], r.mul[x][y], r.mul[y][x]

    full = close(frozenset(), range(r.n), products)
    assert len(full) == r.n
    assert len(pairs) == len(set(pairs)) == r.n * (r.n + 1) // 2

    base = next(s for s in subsemirings(r) if 1 < len(s) < r.n - 1)
    x = min(set(range(r.n)) - base)
    pairs.clear()
    grown = close(base, (x,), products)
    new = grown - base
    assert len(pairs) == len(set(pairs)) == len(base) * len(new) + len(new) * (len(new) + 1) // 2
    assert all(p & new for p in pairs)


def reference_congruence(n, pairs, translations):
    """Least partition of range(n) containing ``pairs`` and mapped into
    itself by every unary map in ``translations``, by fixpoint iteration."""
    label = list(range(n))

    def merge(a, b):
        la, lb = label[a], label[b]
        if la == lb:
            return False
        for i in range(n):
            if label[i] == lb:
                label[i] = la
        return True

    for x, y in pairs:
        merge(x, y)
    changed = True
    while changed:
        changed = False
        for x in range(n):
            first = label.index(label[x])
            for t in translations:
                changed |= merge(t(first), t(x))
    ids = {}
    return Congruence(tuple(ids.setdefault(b, len(ids)) for b in label))


def ring_translations(r):
    return [f for a in range(r.n) for f in (lambda x, a=a: r.add[a][x],
                                            lambda x, a=a: r.mul[a][x],
                                            lambda x, a=a: r.mul[x][a])]


def module_translations(mod):
    return ([lambda x, a=a: mod.madd[a][x] for a in range(mod.m)]
            + [lambda x, row=row: row[x] for row in mod.act])


def reference_module_congruences(mod):
    ts = module_translations(mod)
    principals = {reference_congruence(mod.m, [(x, y)], ts)
                  for x in range(mod.m) for y in range(x + 1, mod.m)}
    found = {Congruence(tuple(range(mod.m)))} | principals
    work = list(found)
    while work:
        c = work.pop()
        for p in principals:
            joined = reference_congruence(mod.m, c.pairs + p.pairs, ts)
            if joined not in found:
                found.add(joined)
                work.append(joined)
    return found


def congruence_test_rings():
    """Every subsemiring of End(chain3), and the dense ones of End(diamond)."""
    r, _ = end_semiring(load_fixture("chain3"))
    params = [pytest.param(restrict(r, s), id=f"chain3-sub{i}-n{len(s)}")
              for i, s in enumerate(subsemirings(r))]
    return params + [pytest.param(f.to_semiring(), id=f"diamond-dense{i}-n{f.size}")
                     for i, f in enumerate(enumerate_sr(load_fixture("diamond")))]


@pytest.mark.parametrize("r", congruence_test_rings())
def test_congruence_closure_matches_reference(r):
    ts = ring_translations(r)
    simple = True
    for x in range(r.n):
        for y in range(x + 1, r.n):
            want = reference_congruence(r.n, [(x, y)], ts)
            assert principal_congruence(r, x, y) == want, (x, y)
            simple = simple and want.is_total()
    assert is_congruence_simple(r) == simple

    mod = regular_module(r)
    ts = module_translations(mod)
    for x in range(mod.m):
        for y in range(x + 1, mod.m):
            assert module_principal(mod, x, y) == reference_congruence(mod.m, [(x, y)], ts)
    assert set(module_congruences(mod)) == reference_module_congruences(mod)


def covering_pairs_by_definition(add):
    """Every pair x < y when + is not idempotent; otherwise every c < b of
    the order x <= y iff x + y = y with no element strictly between."""
    n = len(add)
    if any(add[x][x] != x for x in range(n)):
        return [(x, y) for x in range(n) for y in range(x + 1, n)]

    def below(x, y):
        return x != y and add[x][y] == y

    return [(c, b) for c in range(n) for b in range(n)
            if below(c, b) and not any(below(c, z) and below(z, b) for z in range(n))]


def all_pairs_simple(r):
    return all(principal_congruence(r, x, y).is_total()
               for x in range(r.n) for y in range(x + 1, r.n))


def all_pairs_trivial(mod):
    return all(module_principal(mod, x, y).is_total()
               for x in range(mod.m) for y in range(x + 1, mod.m))


def residue_ring(n):
    """Z/n as a semiring: a ring, so + is not idempotent."""
    return validate_semiring([[(x + y) % n for y in range(n)] for x in range(n)],
                             [[x * y % n for y in range(n)] for x in range(n)], 0,
                             name=f"Z/{n}")


def saturating_semiring():
    """{0, 1, 2} with the sums and products of naturals capped at 2: not a
    ring, and 1 + 1 = 2, so + is not idempotent."""
    return validate_semiring([[min(x + y, 2) for y in range(3)] for x in range(3)],
                             [[min(x * y, 2) for y in range(3)] for x in range(3)], 0,
                             name="sat2")


def lemma_rings(name):
    if name == "not-idempotent":
        return [residue_ring(2), residue_ring(3), residue_ring(4), saturating_semiring()]
    r, _ = end_semiring(load_fixture(name))
    return [restrict(r, s) for s in subsemirings(r)]


@pytest.mark.parametrize("name, count, simple", [
    ("chain3", 20, 7), ("diamond", 222, 16), ("not-idempotent", 4, 2)])
def test_covering_pair_simplicity_matches_all_pairs(name, count, simple):
    rings = lemma_rings(name)
    assert len(rings) == count
    verdicts = []
    for r in rings:
        assert sorted(principal_test_pairs(r.add)) == covering_pairs_by_definition(r.add)
        verdicts.append(is_congruence_simple(r))
        assert verdicts[-1] == all_pairs_simple(r), (name, r.n, r.name)
        mod = regular_module(r)
        assert _only_trivial_congruences(mod) == all_pairs_trivial(mod), (name, r.n, r.name)
    assert sum(verdicts) == simple


def test_module_congruences_match_the_reference_without_idempotent_addition():
    # + is not idempotent, so every pair x < y is a test pair of the walk
    counts = []
    for r in lemma_rings("not-idempotent") + [residue_ring(5), residue_ring(6)]:
        mod = regular_module(r)
        assert len(principal_test_pairs(mod.madd)) == mod.m * (mod.m - 1) // 2
        congs = module_congruences(mod)
        assert set(congs) == reference_module_congruences(mod), r.name
        assert congs == sorted(congs, key=lambda c: (c.num_blocks, c.blocks), reverse=True)
        counts.append(len(congs))
    assert counts == [2, 2, 3, 3, 2, 4]


def test_covering_pair_irreducibility_matches_all_pairs_on_the_descents(descents):
    mods = [mod for chains in descents.values() for _, chain in chains for mod in chain]
    for mod in mods:
        assert sorted(principal_test_pairs(mod.madd)) == covering_pairs_by_definition(mod.madd)
        assert _only_trivial_congruences(mod) == all_pairs_trivial(mod), mod.m
    assert {_only_trivial_congruences(mod) for mod in mods} == {False, True}


def set_partitions(n):
    """Every partition of range(n), as block ids numbered by first use."""
    out = [()]
    for x in range(n):
        out = [p + (b,) for p in out for b in range(max(p, default=-1) + 2)]
    return out


def compatible_by_definition(blocks, translations):
    n = len(blocks)
    return all(blocks[t(x)] == blocks[t(y)]
               for x in range(n) for y in range(x + 1, n) if blocks[x] == blocks[y]
               for t in translations)


def test_compatibility_matches_the_definition():
    rings = lemma_rings("chain3")
    assert len(rings) == 20
    checked = 0
    verdicts = set()
    for r in rings:
        mod = regular_module(r)
        ring_ts, module_ts = ring_translations(r), module_translations(mod)
        for blocks in set_partitions(r.n):
            cong = Congruence(blocks)
            want = compatible_by_definition(blocks, ring_ts)
            assert is_semiring_congruence(r, cong) == want, (r.n, blocks)
            want_module = compatible_by_definition(blocks, module_ts)
            assert is_module_congruence(mod, cong) == want_module, (r.n, blocks)
            verdicts |= {("ring", want), ("module", want_module)}
            checked += 1
    assert checked == 366
    assert verdicts == {("ring", False), ("ring", True), ("module", False), ("module", True)}


def principal_closures(n, pairs, tables, stop=None):
    """The closure of each pair, as its partition when it is nontotal and
    None when it is total: with the one-block stop, or with the stop on
    ``stop``."""
    out = []
    for pair in pairs:
        labels = close_congruence(n, [pair], tables, stop)
        out.append(None if labels is None else Congruence(labels))
    return out


def all_pairs(n):
    return [(x, y) for x in range(n) for y in range(x + 1, n)]


def one_block_maximal_nontotal_congruence(mod, pairs):
    """The greedy pass of ``maximal_nontotal_congruence`` over ``pairs``,
    as it ran before the zero-top stop: every closure runs until it is
    nontotal or has one block."""
    m = mod.m
    tables = (mod.madd, mod.act_t)
    current = []
    blocks = Congruence(tuple(range(m)))
    for x, y in pairs:
        if blocks.same(x, y):
            continue
        labels = close_congruence(m, current + [(x, y)], tables)
        if labels is not None:
            current.append((x, y))
            blocks = Congruence(labels)
    return blocks


def assert_zero_top_pair(add, zero):
    """The pair exists iff + is idempotent; its top absorbs every element."""
    n = len(add)
    stop = zero_top_pair(add, zero)
    if any(add[x][x] != x for x in range(n)):
        assert stop is None
        return None
    assert stop[0] == zero
    top = stop[1]
    assert all(add[x][top] == top == add[top][x] for x in range(n))
    return stop


def row_scan_absorbing(r):
    """The elements z with z + x = z for every x, by scanning every row."""
    return [z for z in range(r.n) if all(r.add[z][x] == z for x in range(r.n))]


def test_absorbing_matches_a_row_scan_on_every_semiring(sr_rings, ends, end_subsemirings):
    """``structure_flags(r).absorbing`` (``closure.absorbing``) is the one
    element a row scan finds, or None where it finds none, on the rings of
    the suite: dense families, End(M) of every fixture, the subsemirings
    of End(chain3), End(diamond) and End(chain4) and their renamings, the
    rings without idempotent addition, the two-element semirings, and
    products and opposites of small ones."""
    small = [boolean_semiring(), field_f2(), two_element_trivial_mul(), residue_ring(3),
             saturating_semiring()]
    rings = [r for fam in sr_rings.values() for r in fam]
    rings += [r for r, _ in ends.values()]
    subs = [r for subs in end_subsemirings.values() for r in subs]
    rings += subs + [reversed_ring(r) for r in subs]
    rings += lemma_rings("not-idempotent") + [residue_ring(5), residue_ring(7)] + small
    rings += [product_semiring(a, b) for a in small for b in small]
    rings += [opposite(r) for r in rings]
    found = []
    for r in rings:
        scan = row_scan_absorbing(r)
        assert len(scan) <= 1
        assert structure_flags(r).absorbing == (scan[0] if scan else None)
        found.append(bool(scan))
    # none in Z/2, Z/3, Z/4, Z/5, Z/7, F2, Z/3 again and the 16 products
    # with F2 or Z/3 as a factor, each also as its opposite
    assert found.count(False) == 2 * (7 + 16)
    assert all(found[i] for i, r in enumerate(rings) if idempotent(r.add))


def reversed_ring(r):
    """``r`` with each element x renamed n - 1 - x.  Subsemirings of End(L)
    list their members in ascending order, so their additive top is the
    last element; renamed, it is the first."""
    n = r.n

    def rename(table):
        return [[n - 1 - table[n - 1 - x][n - 1 - y] for y in range(n)] for x in range(n)]

    return validate_semiring(rename(r.add), rename(r.mul), n - 1 - r.zero)


@pytest.mark.parametrize("name, count", [("chain3", 20), ("diamond", 222), ("not-idempotent", 4)])
def test_zero_top_stop_matches_the_one_block_stop(name, count):
    rings = lemma_rings(name)
    assert len(rings) == count
    rings += [reversed_ring(r) for r in rings]
    stopped = 0
    for r in rings:
        stop = assert_zero_top_pair(r.add, r.zero)
        assert (stop is None) == (name == "not-idempotent")
        pairs = all_pairs(r.n)
        tables = (r.add, r.mul, r.mul_t)
        assert (principal_closures(r.n, pairs, tables, stop)
                == principal_closures(r.n, pairs, tables)), (name, r.n)
        covers = principal_closures(r.n, principal_test_pairs(r.add), tables)
        assert is_congruence_simple(r) == all(c is None for c in covers)

        mod = regular_module(r)
        assert zero_top_pair(mod.madd, mod.mzero) == stop
        tables = (mod.madd, mod.act_t)
        assert (principal_closures(mod.m, pairs, tables, stop)
                == principal_closures(mod.m, pairs, tables)), (name, r.n)
        covers = principal_closures(mod.m, principal_test_pairs(mod.madd), tables)
        assert _only_trivial_congruences(mod) == all(c is None for c in covers)
        assert (maximal_nontotal_congruence(mod)
                == one_block_maximal_nontotal_congruence(mod, principal_test_pairs(mod.madd)))
        stopped += stop is not None and stop[0] != stop[1]
    assert stopped == (0 if name == "not-idempotent" else 2 * (count - 1))


def test_zero_top_stop_matches_the_one_block_stop_on_the_descents(descents):
    mods = [mod for chains in descents.values() for _, chain in chains for mod in chain]
    for mod in mods:
        stop = assert_zero_top_pair(mod.madd, mod.mzero)
        assert stop is not None
        assert (maximal_nontotal_congruence(mod)
                == one_block_maximal_nontotal_congruence(mod, all_pairs(mod.m))), mod.m


def assert_maximal_nontotal(mod):
    """The θ of ``maximal_nontotal_congruence`` is a nontotal module
    congruence, and closing it with any pair it does not relate, covering
    or not, gives the total congruence."""
    theta = maximal_nontotal_congruence(mod)
    assert is_module_congruence(mod, theta) and not theta.is_total(), mod.m
    tables = (mod.madd, mod.act_t)
    for x, y in all_pairs(mod.m):
        if not theta.same(x, y):
            assert close_congruence(mod.m, theta.pairs + [(x, y)], tables) is None, (mod.m, x, y)
    return theta


def test_maximal_nontotal_congruence_is_maximal_against_every_pair(descents, end_subsemirings):
    """On the regular modules of the lemma rings and their reversals (the
    ``chain3`` and ``diamond`` lemma rings are the subsemirings of their
    End), of every subsemiring of End(chain4), and on every module of the
    descents."""
    lemma = lemma_rings("not-idempotent") + end_subsemirings["chain3"] + end_subsemirings["diamond"]
    rings = lemma + [reversed_ring(r) for r in lemma] + end_subsemirings["chain4"]
    mods = [regular_module(r) for r in rings if r.n > 1]
    mods += [mod for chains in descents.values() for _, chain in chains for mod in chain]
    thetas = [assert_maximal_nontotal(mod) for mod in mods]
    assert len(mods) == 1217
    assert {theta.is_identity() for theta in thetas} == {False, True}


class CountedRows:
    """A translation table that counts the rows read from it."""

    def __init__(self, table, reads):
        self.table, self.reads = table, reads

    def __getitem__(self, u):
        self.reads.append(u)
        return self.table[u]


def test_zero_top_stop_ends_a_total_closure_before_one_block():
    r, _ = end_semiring(load_fixture("diamond"))
    stop = zero_top_pair(r.add, r.zero)
    reads = []
    tables = [CountedRows(t, reads) for t in (r.add, r.mul, r.mul_t)]
    # the first merge relates the zero and the top: no translation is read,
    # so the forest still holds n - 1 > 1 blocks when the closure stops
    assert close_congruence(r.n, [stop], tables, stop) is None
    assert reads == [] and r.n > 2
    # without the stop it merges until one block: each of the n - 2 merges
    # before the last reads the rows of both roots in all three tables
    assert close_congruence(r.n, [stop], tables) is None
    assert len(reads) == 6 * (r.n - 2)


# ---------------------------------------------------------------------------
# the one isomorphism search against the lattice and semiring searches it
# replaced


def _down_masks(up, n):
    """Transpose a relation stored as row bitmasks: the down-sets of a
    poset from its up-sets (and its up-sets from its down-sets)."""
    down = [0] * n
    for x in range(n):
        m = up[x]
        y = 0
        while m:
            if m & 1:
                down[y] |= 1 << x
            m >>= 1
            y += 1
    return down


def reference_lattice_iso(lat1, lat2):
    """The lattice search that ``closure.table_iso`` replaced: poset
    colours, elements taken in order of fewest candidates, and each
    candidate checked against the joins with every mapped element and the
    mapped pairs joining to it.  The image tuple, or None."""
    if lat1.n != lat2.n:
        return None
    n = lat1.n
    c1 = _poset_colors(_down_masks(lat1.down, n), list(lat1.down), n)
    c2 = _poset_colors(_down_masks(lat2.down, n), list(lat2.down), n)
    if sorted(c1) != sorted(c2):
        return None
    candidates = [[y for y in range(n) if c2[y] == c1[x]] for x in range(n)]
    order = sorted(range(n), key=lambda x: (len(candidates[x]), x))
    mapping = [None] * n
    used = [False] * n
    j1, j2 = lat1.join, lat2.join
    decomp = [[] for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            z = j1[a][b]
            if z != a and z != b:
                decomp[z].append((a, b))

    def consistent(x, y):
        for x2 in range(n):
            y2 = mapping[x2] if x2 != x else y
            if y2 is None:
                continue
            w = mapping[j1[x][x2]] if j1[x][x2] != x else y
            if w is not None and j2[y][y2] != w:
                return False
        for a, b in decomp[x]:
            ya, yb = mapping[a], mapping[b]
            if ya is not None and yb is not None and j2[ya][yb] != y:
                return False
        return True

    def rec(k):
        if k == n:
            return True
        x = order[k]
        for y in candidates[x]:
            if used[y] or not consistent(x, y):
                continue
            mapping[x] = y
            used[y] = True
            if rec(k + 1):
                return True
            mapping[x] = None
            used[y] = False
        return False

    return tuple(mapping) if rec(0) else None


def reference_lattice_check(src, dst, f):
    """``LatticeIso.check`` as it was before ``closure.is_table_iso``."""
    if sorted(f) != list(range(src.n)) or f[src.zero] != dst.zero:
        return False
    return all(f[src.join[x][y]] == dst.join[f[x]][f[y]]
               for x in range(src.n) for y in range(src.n))


def reference_joint_colors(rings):
    cols = [[(x == r.zero, r.mul[x][x] == x, r.mul[x][x] == r.zero, r.add[x][x] == x)
             for x in range(r.n)] for r in rings]
    while True:
        sigs = [[(col[x], tuple(sorted(
                    (col[y], col[r.add[x][y]], col[r.mul[x][y]], col[r.mul[y][x]])
                    for y in range(r.n))))
                 for x in range(r.n)] for r, col in zip(rings, cols)]
        ranks = {s: i for i, s in enumerate(sorted({s for cur in sigs for s in cur}))}
        new = [[ranks[s] for s in cur] for cur in sigs]
        stable = all((old[x] == old[y]) == (cur[x] == cur[y])
                     for old, cur in zip(cols, new)
                     for x in range(len(cur)) for y in range(len(cur)))
        shared = len({c for cur in cols for c in cur}) == len({c for cur in new for c in cur})
        if stable and shared:
            return new
        cols = new


def reference_semiring_iso(r1, r2):
    """The semiring search that ``closure.table_iso`` replaced: joint colour
    refinement on the Cayley tables, generators from rare colour classes,
    and propagation of each assignment through + and both products."""
    if r1.n != r2.n:
        return None
    n = r1.n
    c1, c2 = reference_joint_colors((r1, r2))
    if sorted(c1) != sorted(c2):
        return None
    class_size = {}
    for c in c1:
        class_size[c] = class_size.get(c, 0) + 1
    members = close_subset(r1, ())
    gens = []
    while len(members) < n:
        g = min((x for x in range(n) if x not in members),
                key=lambda x: (class_size[c1[x]], x))
        gens.append(g)
        members = close_subset(r1, members | {g})
    fwd = [None] * n
    bwd = [None] * n
    add1, mul1, add2, mul2 = r1.add, r1.mul, r2.add, r2.mul

    def assign(u, v, trail):
        stack = [(u, v)]
        while stack:
            a, b = stack.pop()
            if fwd[a] is not None:
                if fwd[a] != b:
                    return False
                continue
            if bwd[b] is not None or c1[a] != c2[b]:
                return False
            fwd[a] = b
            bwd[b] = a
            trail.append((a, b))
            for w in range(n):
                fw = fwd[w]
                if fw is not None:
                    stack.append((add1[a][w], add2[b][fw]))
                    stack.append((mul1[a][w], mul2[b][fw]))
                    stack.append((mul1[w][a], mul2[fw][b]))
        return True

    def undo(trail, mark):
        while len(trail) > mark:
            a, b = trail.pop()
            fwd[a] = None
            bwd[b] = None

    trail = []
    if not assign(r1.zero, r2.zero, trail):
        return None

    def rec(k):
        if k == len(gens):
            return all(v is not None for v in fwd)
        g = gens[k]
        if fwd[g] is not None:
            return rec(k + 1)
        for v in range(n):
            if bwd[v] is not None or c2[v] != c1[g]:
                continue
            mark = len(trail)
            if assign(g, v, trail) and rec(k + 1):
                return True
            undo(trail, mark)
        return False

    return tuple(fwd) if rec(0) else None


def reference_check_iso(r1, r2, mapping, anti=False):
    """``check_iso`` as it was before ``closure.is_table_iso``."""
    if sorted(mapping) != list(range(r1.n)) or mapping[r1.zero] != r2.zero:
        return False
    for x in range(r1.n):
        for y in range(r1.n):
            if mapping[r1.add[x][y]] != r2.add[mapping[x]][mapping[y]]:
                return False
            image = r2.mul[mapping[y]][mapping[x]] if anti else r2.mul[mapping[x]][mapping[y]]
            if mapping[r1.mul[x][y]] != image:
                return False
    return True


def shuffled(n, seed):
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return perm


def renamed(table, perm):
    """``table`` with each element x renamed ``perm[x]``."""
    n = len(table)
    out = [[None] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[perm[x]][perm[y]] = perm[table[x][y]]
    return out


def swapped(mapping):
    """``mapping`` with the images of its first and last element swapped."""
    f = list(mapping)
    f[0], f[-1] = f[-1], f[0]
    return tuple(f)


def test_lattice_iso_matches_the_reference_search():
    lats = enumerate_lattices(6)
    assert len(lats) == 25
    found = []
    for a in lats:
        perm = shuffled(a.n, a.n)
        relabelled = validate_lattice(renamed(a.join, perm), zero=perm[a.zero])
        for b in [b for b in lats if b.n == a.n] + [dual(a), relabelled]:
            iso = lattice_iso(a, b)
            assert (iso is None) == (reference_lattice_iso(a, b) is None), (a.name, b)
            if iso is not None:
                assert reference_lattice_check(a, b, iso.mapping) and iso.check()
                bad = LatticeIso(a, b, swapped(iso.mapping))
                assert bad.check() == reference_lattice_check(a, b, bad.mapping)
            found.append(iso is not None)
    # each lattice is isomorphic to itself, to its relabelled copy and,
    # for the 15 self-dual ones, to its dual
    assert (len(found), sum(found)) == (257 + 2 * 25, 2 * 25 + 15)


def catalog5_members():
    return [f.to_semiring() for lat in enumerate_lattices(5) if lat.n >= 2
            for f in enumerate_sr(lat)]


def assert_same_semiring_iso(r1, r2, anti=False):
    """The one search and the reference find an isomorphism of r1 onto r2
    (onto ``opposite(r2)`` when ``anti``) alike, and the new and the old
    check agree on the one found and on a broken copy of it."""
    found = semiring_anti_iso(r1, r2) if anti else semiring_iso(r1, r2)
    want = reference_semiring_iso(r1, opposite(r2) if anti else r2)
    assert (found is None) == (want is None), (r1.n, anti)
    if found is not None:
        assert reference_check_iso(r1, r2, found, anti) and check_iso(r1, r2, found, anti)
        bad = swapped(found)
        assert check_iso(r1, r2, bad, anti) == reference_check_iso(r1, r2, bad, anti)
    return found is not None


@pytest.mark.parametrize("name, count, pairs, isomorphic, self_anti", [
    ("chain3", 20, 64, 27, 12),
    ("diamond", 222, 3653, 394, 70),
    ("catalog5", 16, 22, 19, 14),
    ("not-idempotent", 4, 5, 4, 4),
])
def test_semiring_iso_matches_the_reference_search(name, count, pairs, isomorphic, self_anti):
    """Every pair of equal order, each ring against a relabelled copy, and
    each against its opposite; the counts of isomorphic pairs and of
    self-anti-isomorphic rings are pinned."""
    rings = catalog5_members() if name == "catalog5" else lemma_rings(name)
    assert len(rings) == count
    found = []
    anti = 0
    for i, a in enumerate(rings):
        found += [assert_same_semiring_iso(a, b) for b in rings[i:] if b.n == a.n]
        perm = shuffled(a.n, i)
        relabelled = validate_semiring(renamed(a.add, perm), renamed(a.mul, perm), perm[a.zero])
        assert assert_same_semiring_iso(a, relabelled)
        anti += assert_same_semiring_iso(a, a, anti=True)
    assert (len(found), sum(found), anti) == (pairs, isomorphic, self_anti)


def graph_structure(edges):
    """The tables ``(t, t^T)`` on 0..6 of a graph on the vertices 1..6:
    0 is the zero, with t[0][a] = 0 and t[x][0] = x, and for two vertices
    t[x][a] = a when x and a are adjacent and x otherwise.  Every set
    holding 0 is closed, so the zero and the six vertices are all
    generators, and an isomorphism is a graph isomorphism fixing 0."""
    adjacent = {frozenset(e) for e in edges}
    t = tuple(tuple(0 if x == 0 else x if a == 0 or frozenset((x, a)) not in adjacent else a
                    for a in range(7)) for x in range(7))
    return t, tuple(zip(*t))


HEXAGON = graph_structure([(x, x % 6 + 1) for x in range(1, 7)])
TRIANGLES = graph_structure([(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])


def test_table_iso_backtracks_to_exhaustion_when_colours_cannot_tell():
    """C6 and two triangles are both 2-regular, so colour refinement gives
    every vertex one colour; the search tries every branch and finds
    nothing, as brute force over the 720 bijections fixing 0 confirms."""
    c1, c2 = _joint_colors(((HEXAGON, 0), (TRIANGLES, 0)))
    assert c1 == c2 and len(set(c1[1:])) == 1
    assert table_iso(HEXAGON, 0, TRIANGLES, 0) is None
    assert not any(is_table_iso((0, *perm), HEXAGON, 0, TRIANGLES, 0)
                   for perm in itertools.permutations(range(1, 7)))


@pytest.mark.parametrize("tables", [HEXAGON, TRIANGLES], ids=["hexagon", "triangles"])
def test_table_iso_finds_a_relabelled_graph_structure(tables):
    for seed in range(5):
        perm = shuffled(7, seed)
        copy = tuple(renamed(t, perm) for t in tables)
        mapping = table_iso(tables, 0, copy, perm[0])
        assert mapping is not None and is_table_iso(mapping, tables, 0, copy, perm[0])


def test_table_iso_of_tables_of_different_sizes_is_none():
    chain2, chain3 = ((0, 1), (1, 1)), ((0, 1, 2), (1, 1, 2), (2, 2, 2))
    assert table_iso((chain2,), 0, (chain3,), 0) is None
    assert table_iso(HEXAGON, 0, (chain3, chain3), 0) is None


def tuple_joint_colors(structures):
    """``closure._joint_colors`` as it was before its profile entries were
    coded as integers: each entry is the tuple of colours itself."""
    cols = [[(x == zero, *(t[x].count(x) for t in tables), *(t[x][x] == zero for t in tables))
             for x in range(len(tables[0]))]
            for tables, zero in structures]
    count = len({c for col in cols for c in col})
    while True:
        sigs = [[(col[x], tuple(sorted(zip(col, *(map(col.__getitem__, t[x]) for t in tables)))))
                 for x in range(len(col))]
                for (tables, _), col in zip(structures, cols)]
        ranks = {}
        cols = [[ranks.setdefault(s, len(ranks)) for s in sig] for sig in sigs]
        if len(ranks) == count:
            return cols
        count = len(ranks)


def colour_cases(name):
    """``(tables, zero)`` structures and the duals that ``table_iso``
    meets them with: opposites of rings, duals of lattices."""
    if name == "lattices7":
        lats = [lat for lat in enumerate_lattices(7) if lat.n >= 2]
        return ([((lat.join,), lat.zero) for lat in lats],
                [((d.join,), d.zero) for d in map(dual, lats)])
    rings = catalog5_members() if name == "catalog5" else lemma_rings(name)
    return ([((r.add, r.mul, r.mul_t), r.zero) for r in rings],
            [((r.add, r.mul_t, r.mul), r.zero) for r in rings])


@pytest.mark.parametrize("name, count, pairs", [
    ("catalog5", 16, 22 + 16),
    ("lattices7", 77, 1571 + 77),
    ("chain3", 20, 64 + 20),
    ("diamond", 222, 3653 + 222),
])
def test_joint_colors_match_the_tuple_profiles(name, count, pairs):
    """Every equal-order pair and each structure against its dual get the
    same colour numbers from the integer profiles as from the tuples."""
    structures, duals = colour_cases(name)
    assert len(structures) == count
    cases = [(a, b) for i, a in enumerate(structures) for b in structures[i:]
             if len(a[0][0]) == len(b[0][0])]
    cases += list(zip(structures, duals))
    assert len(cases) == pairs
    for case in cases:
        assert _joint_colors(case) == tuple_joint_colors(case)


# ---------------------------------------------------------------------------
# Cayley tables and closedness over encoded maps against the tuple loops
# they replaced


def reference_to_semiring(sub):
    """The tuple ``to_semiring``: one join or composition of image tuples
    and one tuple-keyed lookup per entry, as (add, mul, zero)."""
    members = sub.sorted_members()
    index = {m: i for i, m in enumerate(members)}
    lat = sub.lattice
    add = tuple(tuple(index[pointwise_join(lat, f, g)] for g in members) for f in members)
    mul = tuple(tuple(index[compose(f, g)] for g in members) for f in members)
    return add, mul, index[zero_map(lat)]


def reference_is_closed(sub):
    """The tuple ``is_closed``: the zero map, then every join and composite."""
    ms = sub.members
    if zero_map(sub.lattice) not in ms:
        return False
    for f in ms:
        for g in ms:
            if pointwise_join(sub.lattice, f, g) not in ms or compose(f, g) not in ms:
                return False
    return True


def relabelled_lattice(lat, seed):
    """``lat`` renamed by a seeded permutation that moves its zero off 0."""
    perm = shuffled(lat.n, seed)
    if perm[lat.zero] == 0:
        perm = perm[1:] + perm[:1]
    return validate_lattice(renamed(lat.join, perm), zero=perm[lat.zero], name=lat.name)


def endo_subsemiring_cases(name):
    """The closed member sets of one case: the dense families and End(M)
    of lattices, or every subsemiring of End(chain3) or End(diamond)."""
    if name in ("chain3", "diamond"):
        lat = load_fixture(name)
        r, members = end_semiring(lat)
        return [EndoSubsemiring(lat, frozenset(members[i] for i in s))
                for s in subsemirings(r)]
    if name == "sizes 2-5":
        lats = [lat for lat in enumerate_lattices(5) if lat.n >= 2]
    else:
        lats = [relabelled_lattice(load_fixture(f), seed)
                for seed, f in enumerate(("chain3", "diamond", "n5", "m3"))]
        assert all(lat.zero != 0 for lat in lats)
    subs = []
    for lat in lats:
        subs += enumerate_sr(lat)
        subs.append(EndoSubsemiring(lat, frozenset(endomorphisms(lat))))
    return subs


def assert_same_cayley_tables(sub):
    r = sub.to_semiring()
    assert (r.add, r.mul, r.zero) == reference_to_semiring(sub)
    assert sub.is_closed() and reference_is_closed(sub)


def assert_same_closedness(sub):
    """``is_closed`` agrees with the tuple loops, and ``to_semiring`` of a
    set that is not closed raises the typed error."""
    closed = reference_is_closed(sub)
    assert sub.is_closed() == closed
    if closed:
        assert_same_cayley_tables(sub)
    else:
        with pytest.raises(ValidationError,
                           match="^member set is not closed under join and composition$"):
            sub.to_semiring()
    return closed


@pytest.mark.parametrize("name, count", [
    ("sizes 2-5", 16 + 9), ("chain3", 20), ("diamond", 222), ("relabelled", 11 + 4)])
def test_cayley_tables_match_the_tuple_loops(name, count):
    """Equal tables on every closed set, and equal closedness on each set
    minus one nonzero member and plus one endomorphism it lacks."""
    subs = endo_subsemiring_cases(name)
    assert len(subs) == count
    variants = closed = 0
    for sub in subs:
        assert_same_cayley_tables(sub)
        lat, ms = sub.lattice, sub.members
        zero = zero_map(lat)
        for f in ms - {zero}:
            variants += 1
            closed += assert_same_closedness(EndoSubsemiring(lat, ms - {f}))
        for f in endomorphisms(lat):
            if f not in ms:
                variants += 1
                closed += assert_same_closedness(EndoSubsemiring(lat, ms | {f}))
    assert 0 < closed < variants


def test_cayley_tables_on_m15_above_the_bytes_encoding():
    lat = m_lattice(15)
    assert lat.n ** 2 > 256
    gens = [zero_map(lat), identity_map(lat), elementary(lat, 1, 2), elementary(lat, 3, 4)]
    sub = EndoSubsemiring(lat, close(frozenset(), gens, _products(lat)))
    assert sub.size == 25
    assert_same_cayley_tables(sub)
    for f in sorted(sub.members)[1:4]:
        assert not assert_same_closedness(EndoSubsemiring(lat, sub.members - {f}))
    assert not assert_same_closedness(EndoSubsemiring(lat, sub.members - {zero_map(lat)}))
