"""The incremental closure, the walk and the congruence closure against
from-scratch references.

The reference below re-closes every set from scratch, pairing each popped
element with every member, and walks by closing ``s | {x}`` anew.  It is
the algorithm the incremental one replaced, kept here only as an oracle.
The Close-by-One walk is compared with that walk on every sweep, builds
each closed set once, and follows the caller's order of the elements.
At every step of the subsemiring walks of End(chain3), End(diamond) and
End(chain4), and of the dense-family walks up to size 5, the closure
stopped at ``floor=x`` is None exactly when the full closure adds an
element below x, and is the full closure otherwise; the 23,991
subsemirings of End(N5) are pinned by count and digest.  At every step of
the dense-family walks up to size 5 and of ``lat6_10``, the closure that
reads ``mul`` and ``mul_t`` only outside the least dense subsemiring
(``ideal``) is the closure without the hook.  On every lattice up to size
7 the least dense subsemiring is End(M) exactly when the lattice is
distributive, and then it is the one member of the family.
The masks of the dense family over End(M)'s rows are compared with the
same from-scratch walk over the indices of End(M)'s tables as the tuple
loops build them, and the family is pinned on two six-element lattices
whose walk the reference takes too long to repeat, ``lat6_10`` and
``lat6_14``.
The least dense subsemiring, now built as the join-span of the elementary
maps, is checked against the generic closure under join and both
compositions that it replaced, and its fold over maps encoded as ``bytes``
(n² <= 256) or ``str`` against the same fold over image tuples.  Its
count, ``dense_order``, which decodes no map, is checked against the size
of the decoded subsemiring, and against its ``SizeLimit`` at the bounds
|D| − 1 and |D|, and at 0 and 1.  The
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
replaced: End(M)'s tables built from the walk's packed rows, and the
chunked encoding at chunk widths of 15, 6 and 1 positions.
"""

import hashlib
import itertools
import random
from collections import Counter

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
    zero_top_pair,
)
from semirings.endo import (
    END_SIZE_LIMIT,
    EndoSubsemiring,
    compose,
    dense_closure,
    dense_order,
    elementary,
    elementary_maps,
    end_semiring,
    endomorphisms,
    enumerate_sr,
    identity_map,
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
    FiniteLattice,
    LatticeIso,
    _poset_colors,
    dual,
    enumerate_lattices,
    is_distributive,
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
    close_subset,
    is_congruence_simple,
    is_semiring_congruence,
    principal_congruence,
    opposite,
    semiring_anti_iso,
    semiring_iso,
    structure_flags,
    subsemirings,
    validate_semiring,
)

from reference import check_iso, pointwise_join, product_semiring, restrict


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


def reference_enumerate_sr(lat):
    """The dense family from the references alone, as sets of indices into
    the lex-sorted endomorphisms: the from-scratch walk and closure over
    those indices, from the closure of the zero map and the elementary
    maps, each product looked up in End(M)'s tables as the tuple loops
    build them.  Faster than the walk over tuples, so it also serves the
    opt-in size-6 twin."""
    maps = endomorphisms(lat)
    index = {f: i for i, f in enumerate(maps)}
    add = [[index[pointwise_join(lat, f, g)] for g in maps] for f in maps]
    mul = [[index[compose(f, g)] for g in maps] for f in maps]
    ops = (lambda x, y: add[x][y], lambda x, y: mul[x][y])
    base = reference_close([index[f] for f in (zero_map(lat), *elementary_maps(lat))], ops)
    return reference_walk(base, range(len(maps)), lambda s: reference_close(s, ops))


def assert_masks_match_the_walk_over_the_end_table(lat):
    """Each member's mask keeps exactly the rows of End(M) whose indices
    the reference walk gives, read off the bits with no member decoded;
    the tuple-form test above checks the decoded ``members`` instead."""
    fams = enumerate_sr(lat)
    width = len(fams[-1].rows) // lat.n
    got = [frozenset(k for k in range(width) if f.mask >> k & 1) for f in fams]
    assert got == [frozenset(s) for s in reference_enumerate_sr(lat)], lat.name
    assert fams[-1].rows == b"".join(map(bytes, endomorphisms(lat))), lat.name


def test_enumerate_sr_matches_the_walk_over_the_end_table():
    for lat in small_lattices():
        assert_masks_match_the_walk_over_the_end_table(lat)


@pytest.mark.size6
@pytest.mark.parametrize("k", range(1, 14))
def test_enumerate_sr_matches_the_walk_over_the_end_table_on_size_six(k):
    lat = next(lat for lat in enumerate_lattices(6) if lat.name == f"lat6_{k}")
    assert_masks_match_the_walk_over_the_end_table(lat)


# the dense families of two six-element lattices, taken from the walk
# that kept every set it had seen: the number of members and the sha256
# of their ``packed`` forms joined in the walk's order
SIZE_SIX_FAMILIES = {
    "lat6_10": (601, "43cd5ea0212880dd61efd0ea50891d355d728e0d075e34872adb5992f7cad646"),
    "lat6_14": (6370, "dc62880748c4ea259cee0b0bba8895b3a13fc773626c34d50a0489cf7da7bb5d"),
}


@pytest.mark.parametrize("name", ["lat6_10", "lat6_14"])
def test_enumerate_sr_matches_the_pinned_size_six_families(name):
    lat = next(lat for lat in enumerate_lattices(6) if lat.name == name)
    fams = enumerate_sr(lat)
    digest = hashlib.sha256(b"".join(f.packed for f in fams)).hexdigest()
    assert (len(fams), digest) == SIZE_SIX_FAMILIES[name]


def assert_floor_stops_match_full_closures(base, n, tables):
    """Walk the closed sets of ``close`` over ``tables`` from ``base``
    with full closures, and at every step from s by x check the stopped
    closure ``close(s, (x,), tables, floor=x)``: None exactly when the full
    closure adds an element below x, and otherwise the full closure.
    Returns a Counter of the steps that stopped (True) and of those that
    ran in full (False)."""
    outcomes = Counter()

    def extend(s, x):
        full = close(s, (x,), tables)
        below = any(y < x for y in full - s)
        stopped = close(s, (x,), tables, floor=x)
        assert stopped is None if below else stopped == full, (sorted(s), x)
        outcomes[below] += 1
        return full

    closed_sets(base, range(n), extend, noun="sets")
    return outcomes


@pytest.mark.parametrize("name", ["chain3", "diamond", "chain4"])
def test_floor_stop_matches_full_closures_on_the_subsemiring_walks(name):
    r, _ = end_semiring(load_fixture(name))
    steps = assert_floor_stops_match_full_closures(close_subset(r, ()), r.n,
                                                   (r.add, r.mul, r.mul_t))
    assert steps[True] and steps[False]


def test_floor_stop_matches_full_closures_on_the_dense_family_walks():
    """The walk of ``enumerate_sr``: End(M)'s table over the indices of
    the lex-sorted endomorphisms, from the indices of ``dense_closure``."""
    steps = Counter()
    for lat in enumerate_lattices(5):
        r, base = dense_walk(lat)
        steps += assert_floor_stops_match_full_closures(base, r.n, (r.add, r.mul, r.mul_t))
    assert steps[True] and steps[False]


def assert_ideal_closures_match_full_closures(base, n, tables, ideal):
    """Walk the closed sets of ``close`` over ``tables`` from ``base``
    with full closures, and at every step from s by x check the closure
    with the ``ideal`` hook: the full closure, and with ``floor=x`` the
    stopped closure without the hook.  Returns the number of steps."""
    steps = 0

    def extend(s, x):
        nonlocal steps
        full = close(s, (x,), tables)
        assert close(s, (x,), tables, ideal=ideal) == full, (sorted(s), x)
        assert (close(s, (x,), tables, floor=x, ideal=ideal)
                == close(s, (x,), tables, floor=x)), (sorted(s), x)
        steps += 1
        return full

    closed_sets(base, range(n), extend, noun="sets")
    return steps


def dense_walk(lat):
    """End(M)'s Cayley table and the indices of the least dense
    subsemiring in it, as ``enumerate_sr`` walks them."""
    r, maps = end_semiring(lat)
    index = {f: i for i, f in enumerate(maps)}
    return r, frozenset(index[f] for f in dense_closure(lat).members)


def test_ideal_hook_matches_full_closures_on_the_dense_family_walks():
    """``ideal=D``, the indices of the least dense subsemiring, at every
    step of the dense-family walks up to size 5 and of ``lat6_10``."""
    lats = [*enumerate_lattices(5), next(lat for lat in enumerate_lattices(6)
                                         if lat.name == "lat6_10")]
    steps = 0
    for lat in lats:
        r, base = dense_walk(lat)
        steps += assert_ideal_closures_match_full_closures(base, r.n, (r.add, r.mul, r.mul_t),
                                                           base)
    assert steps


def test_distributive_lattices_walk_to_end_alone():
    """On every lattice up to size 7 the least dense subsemiring is all
    of End(M) exactly when M is distributive, the lemma ``enumerate_sr``
    relies on; and on each distributive one its single member equals
    ``dense_closure`` in ``rows`` and ``mask``."""
    distributive = 0
    for lat in enumerate_lattices(7):
        least = dense_closure(lat)
        flag = is_distributive(lat)
        assert (least.size == len(endomorphisms(lat))) == flag, lat.name
        if flag:
            (only,) = enumerate_sr(lat, max_end=END_SIZE_LIMIT)
            assert (only.rows, only.mask) == (least.rows, least.mask), lat.name
            distributive += 1
    assert distributive


# every subsemiring of End(N5), taken from the walk of full closures: the
# number and the sha256 of their sorted members, one line per set
END_N5_SUBSEMIRINGS = (23991, "f976140ce2a9ac4ae4587480d9b0d8995e5e93d94327705057b05163a1b832fc")


def test_subsemirings_of_end_n5_are_pinned():
    r, _ = end_semiring(load_fixture("n5"))
    sets = subsemirings(r)
    text = "\n".join(" ".join(map(str, sorted(s))) for s in sets)
    assert (len(sets), hashlib.sha256(text.encode()).hexdigest()) == END_N5_SUBSEMIRINGS


def test_closed_sets_build_each_set_once():
    # under the identity closure every subset of range(10) is closed; the
    # walk that extended each set by every element it lacked made
    # 10 · 2^9 = 5120 calls, Close-by-One one per nonempty subset
    calls = []

    def extend(s, x):
        calls.append((s, x))
        return s | {x}

    sets = closed_sets(frozenset(), range(10), extend, noun="sets")
    assert len(calls) == 2 ** 10 - 1
    assert len(sets) == len(set(sets)) == 2 ** 10
    assert sets == sorted(sets, key=lambda s: (len(s), sorted(s)))
    assert {s | {x} for s, x in calls} == set(sets) - {frozenset()}


@pytest.mark.parametrize("name", ["chain3", "diamond"])
def test_closed_sets_follow_the_callers_order(name):
    """Any order of the universe gives the same sets, each kept once (a
    set kept twice would be listed twice)."""
    r, _ = end_semiring(load_fixture(name))
    ops = ring_ops(r)
    want = reference_walk(reference_close([r.zero], ops), range(r.n),
                          lambda s: reference_close(s, ops))
    tables = (r.add, r.mul, r.mul_t)
    for universe in (range(r.n - 1, -1, -1), shuffled(r.n, 7)):
        got = closed_sets(close_subset(r, ()), universe, lambda s, x: close(s, (x,), tables),
                          noun="subsemirings")
        assert got == want


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


def test_dense_closure_is_the_closure_of_the_elementary_maps():
    for lat in small_lattices():
        sub = dense_closure(lat)
        assert sub.members == reference_dense_closure(lat), lat.name
        assert sub.is_closed(), lat.name


@pytest.mark.size6
def test_dense_closure_is_the_closure_of_the_elementary_maps_on_size_seven():
    sevens = [lat for lat in enumerate_lattices(7) if lat.n == 7]
    assert len(sevens) == 53
    for lat in sevens:
        assert dense_closure(lat).members == reference_dense_closure(lat), lat.name


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


# sha256 of the packed least dense subsemiring of M_15: its sorted image
# tuples as bytes, joined; the opt-in test below derives it from the fold
M15_DENSE_DIGEST = "c7647d2acf580c57aa6d0e45905a8dc61e33c9dd06c847b4983638026960d2e9"


def test_dense_closure_on_m15_above_the_bytes_encoding():
    """M_15 has 17 elements, so its maps are translated in chunks."""
    lat = m_lattice(15)
    assert lat.n ** 2 > 256
    with pytest.raises(SizeLimit):
        dense_closure(lat)
    sub = dense_closure(lat, max_size=None)
    assert sub.size == 22532 and "members" not in vars(sub)
    assert hashlib.sha256(sub.packed).hexdigest() == M15_DENSE_DIGEST
    members = sub.sorted_members()
    assert members == sorted(sub.members) and len(sub.members) == 22532
    assert b"".join(map(bytes, members)) == sub.packed


@pytest.mark.size6
def test_m15_dense_digest_is_the_packed_tuple_fold():
    fold = sorted(tuple_fold_dense_closure(m_lattice(15)))
    assert hashlib.sha256(b"".join(map(bytes, fold))).hexdigest() == M15_DENSE_DIGEST


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


def test_dense_closure_and_dense_order_at_bounds_zero_and_one():
    """The zero map alone exceeds a bound of 0, also on the one-element
    lattice, which folds no step; a bound of 1 holds only that lattice."""
    for lat in enumerate_lattices(4):
        for fn in (dense_order, dense_closure):
            with pytest.raises(SizeLimit):
                fn(lat, max_size=0)
            if lat.n > 1:
                with pytest.raises(SizeLimit):
                    fn(lat, max_size=1)
    one = enumerate_lattices(1)[0]
    assert dense_order(one, max_size=1) == dense_closure(one, max_size=1).size == 1


def outcome(fn, lat, max_size):
    """The size ``fn`` gives, or ``SizeLimit`` when it raises that."""
    try:
        return fn(lat, max_size=max_size)
    except SizeLimit:
        return SizeLimit


def assert_dense_order_matches_the_closure(lat):
    """``dense_order`` is the size of ``dense_closure``, and at the bounds
    |D| − 1 and |D| both raise ``SizeLimit`` or both succeed."""
    size = dense_closure(lat, max_size=None).size
    assert dense_order(lat, max_size=None) == size, lat.name
    closure_size = lambda lat, max_size: dense_closure(lat, max_size=max_size).size
    for bound in (size - 1, size):
        assert outcome(dense_order, lat, bound) == outcome(closure_size, lat, bound), lat.name


def test_dense_order_is_the_closure_size_up_to_size_seven_and_on_m_k():
    lats = (list(enumerate_lattices(7)) + [load_fixture(n) for n in FIXTURE_NAMES]
            + [m_lattice(k) for k in range(1, 9)])
    for lat in lats:
        assert_dense_order_matches_the_closure(lat)


def test_dense_order_is_the_closure_size_on_the_lattices_of_size_eight():
    lats = [lat for lat in enumerate_lattices(8, limit=8) if lat.n == 8]
    assert len(lats) == 222
    for lat in lats:
        assert dense_order(lat) == dense_closure(lat).size, lat.name


def test_dense_order_on_m15_counts_the_chunked_span():
    lat = m_lattice(15)
    assert lat.n ** 2 > 256
    assert dense_order(lat, max_size=22532) == 22532
    assert outcome(dense_order, lat, 22531) is SizeLimit


@pytest.mark.size6
def test_dense_order_is_the_closure_size_on_the_lattices_of_size_nine():
    lats = [lat for lat in enumerate_lattices(9, limit=9) if lat.n == 9]
    assert len(lats) == 1078
    for lat in lats:
        assert dense_order(lat, max_size=None) == dense_closure(lat, max_size=None).size, lat.name


class LoggedRow:
    """Row x of a table that logs each entry read, at y, as the unordered
    pair {x, y}."""

    def __init__(self, x, row, pairs):
        self.x, self.row, self.pairs = x, row, pairs

    def __getitem__(self, y):
        self.pairs.append(frozenset((self.x, y)))
        return self.row[y]


def test_each_pair_is_combined_once_and_base_pairs_never():
    """Each pair is read once per table, and no pair of base members;
    with an ideal, only the first table meets its members."""
    r, _ = end_semiring(load_fixture("diamond"))
    pairs = []
    # ``close`` reads every table at the same pairs, so logging one suffices
    products = ([LoggedRow(x, row, pairs) for x, row in enumerate(r.add)], r.mul, r.mul_t)
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

    # with an ideal, mul and mul_t are read only at columns outside it and
    # add at every one: the least dense subsemiring of End(N5), grown by
    # its least missing map
    r, ideal = dense_walk(load_fixture("n5"))
    reads = [[], [], []]
    products = [[LoggedRow(x, row, log) for x, row in enumerate(t)]
                for t, log in zip((r.add, r.mul, r.mul_t), reads)]
    x = min(set(range(r.n)) - ideal)
    grown = close(ideal, (x,), products, ideal=ideal)
    assert grown == close(ideal, (x,), (r.add, r.mul, r.mul_t))
    new = grown - ideal
    add_reads, mul_reads, mul_t_reads = map(set, reads)
    new_pairs = len(new) * (len(new) + 1) // 2
    assert len(add_reads) == len(reads[0]) == len(ideal) * len(new) + new_pairs
    assert len(mul_reads) == len(reads[1]) and len(mul_t_reads) == len(reads[2])
    assert mul_reads == mul_t_reads == {p for p in add_reads if not p & ideal}
    assert len(mul_reads) == new_pairs < len(add_reads)


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


@pytest.mark.parametrize("size", [5, pytest.param(6, marks=pytest.mark.size6)])
def test_end_tables_match_the_tuple_loops(size):
    """``end_semiring`` builds End(M)'s tables from the walk's packed rows:
    they are the tuple loops' tables over the same maps on every lattice
    up to size 5 and the fixtures, and opt-in on the 15 lattices of size 6."""
    if size == 5:
        lats = enumerate_lattices(5) + [load_fixture(name) for name in FIXTURE_NAMES]
    else:
        lats = [lat for lat in enumerate_lattices(6) if lat.n == 6]
    assert len(lats) == {5: 19, 6: 15}[size]
    for lat in lats:
        r, members = end_semiring(lat)
        assert list(members) == endomorphisms(lat)
        sub = EndoSubsemiring._masked(lat, b"".join(map(bytes, members)))
        assert (r.add, r.mul, r.zero) == reference_to_semiring(sub), lat.name


def test_cayley_tables_on_m15_above_the_bytes_encoding():
    lat = m_lattice(15)
    assert lat.n ** 2 > 256
    gens = [zero_map(lat), identity_map(lat), elementary(lat, 1, 2), elementary(lat, 3, 4)]
    sub = EndoSubsemiring(lat, reference_close(gens, endo_ops(lat)))
    assert sub.size == 25
    assert_same_cayley_tables(sub)
    for f in sorted(sub.members)[1:4]:
        assert not assert_same_closedness(EndoSubsemiring(lat, sub.members - {f}))
    assert not assert_same_closedness(EndoSubsemiring(lat, sub.members - {zero_map(lat)}))


def test_m15_least_dense_subsemiring_without_a_member_is_not_closed():
    """On the chunked path (17 elements, chunks of 15 positions), M_15's
    least dense subsemiring without its largest member, which is nonzero,
    raises the typed error from ``to_semiring``."""
    lat = m_lattice(15)
    least = dense_closure(lat, max_size=None)
    sub = EndoSubsemiring._masked(lat, least.rows, least.mask ^ 1 << least.size - 1)
    assert sub.size == 22531 and least.member_bytes()[-1] != bytes(lat.n)
    with pytest.raises(ValidationError,
                       match="^member set is not closed under join and composition$"):
        sub.to_semiring()


@pytest.mark.parametrize("n, width", [(17, 15), (40, 6), (256, 1)])
def test_cayley_tables_of_chains_on_every_chunk_width(n, width):
    """Chains whose maps are taken in chunks of 15, 6 and 1 positions: the
    sets closed from the zero map, the identity and two elementary maps
    have the tuple loops' tables, and each without one nonzero member is
    closed exactly when the tuple loops find it so, and some are not."""
    lat = FiniteLattice([[max(x, y) for y in range(n)] for x in range(n)])
    assert 256 // n == width and n * n > 256
    closed = []
    for a, b in [(0, n - 1), (n // 2, 1), (n - 2, n // 3)]:
        gens = [zero_map(lat), identity_map(lat), elementary(lat, a, b), elementary(lat, 1, b)]
        sub = EndoSubsemiring(lat, reference_close(gens, endo_ops(lat)))
        assert sub.size > 3
        assert_same_cayley_tables(sub)
        closed += [assert_same_closedness(EndoSubsemiring(lat, sub.members - {f}))
                   for f in sorted(sub.members)[1:]]
    assert any(closed) and not all(closed)
