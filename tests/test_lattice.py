"""Lattice core: validation, order data, duality, enumeration."""

import collections
import hashlib
import io
import itertools
import random
import time
import tracemalloc
from pathlib import Path

import pytest

from semirings.errors import (
    LimitExceeded,
    ParseError,
    PreconditionFailed,
    SizeLimit,
    ValidationError,
)
from semirings.cli import main
from semirings.endo import END_SIZE_LIMIT, endomorphisms
from semirings.closure import is_table_iso, principal_test_pairs
from semirings.fixtures import FIXTURE_NAMES, fixture_text, load_fixture
from semirings.lattice import (
    FiniteLattice,
    _admissible_orders,
    _masked_extensions,
    _poset_colors,
    condition_d,
    dual,
    embed_ring_of_sets,
    enumerate_lattices,
    hom_to_l2,
    homomorphism_rows,
    homomorphisms,
    irreducibles,
    is_distributive,
    lattice_iso,
    parse_lat,
    serialize_lat,
    validate_lattice,
)

from reference import (
    canon_join_table,
    counted_irreducibles,
    covering_pairs_by_definition,
    fold_irreducibles,
    reference_condition_d,
    reference_is_distributive,
)

REFERENCES = Path(__file__).resolve().parent / "references"

MAX_TABLE = lambda n: [[max(i, j) for j in range(n)] for i in range(n)]


def test_validate_two_chain():
    lat = validate_lattice(MAX_TABLE(2))
    assert lat.n == 2 and lat.zero == 0 and lat.top == 1


def test_validate_rejects_non_idempotent():
    with pytest.raises(ValidationError) as info:
        validate_lattice([[0, 1], [1, 0]])
    assert type(info.value) is ValidationError
    assert str(info.value) == "x + x != x: witness (1,)"


def test_validate_rejects_bad_zero():
    # neutral element of the max table is 0, not 1
    with pytest.raises(ValidationError) as info:
        validate_lattice(MAX_TABLE(3), zero=1)
    assert type(info.value) is ValidationError
    assert str(info.value) == "zero + x != x: witness (0,)"


def test_associativity_witness_is_the_first_failing_triple():
    # every commutative idempotent table on 4 elements with neutral 0
    n = 4
    pairs = [(x, y) for x in range(1, n) for y in range(x + 1, n)]
    failures = 0
    for values in itertools.product(range(n), repeat=len(pairs)):
        join = [[max(x, y) if 0 in (x, y) or x == y else 0 for y in range(n)] for x in range(n)]
        for (x, y), v in zip(pairs, values):
            join[x][y] = join[y][x] = v
        want = next(((x, y, z) for x in range(n) for y in range(n) for z in range(n)
                     if join[join[x][y]][z] != join[x][join[y][z]]), None)
        if want is None:
            validate_lattice(join)
            continue
        failures += 1
        with pytest.raises(ValidationError) as info:
            validate_lattice(join)
        assert type(info.value) is ValidationError
        assert str(info.value) == f"(x+y)+z != x+(y+z): witness {want}"
        assert info.value.witness == want
    assert failures > 0


def test_validate_diamond():
    lat = load_fixture("diamond")
    assert lat.top == 3
    assert lat.meet(1, 2) == 0


def test_meet_on_chain():
    lat = load_fixture("chain3")
    assert lat.meet(1, 2) == 1


def test_meet_with_top_is_identity(lats):
    for lat in lats.values():
        for x in range(lat.n):
            assert lat.meet(x, lat.top) == x


def test_meet_universal_property(lats):
    # meet(x, y) is the greatest common lower bound, exhaustively
    for lat in lats.values():
        for x in range(lat.n):
            for y in range(lat.n):
                m = lat.meet(x, y)
                assert lat.leq(m, x) and lat.leq(m, y)
                for z in range(lat.n):
                    if lat.leq(z, x) and lat.leq(z, y):
                        assert lat.leq(z, m)


def test_dual_swaps_tables(lats):
    for lat in lats.values():
        d = dual(lat)
        assert d.join == lat.meet_table
        assert d.meet_table == lat.join
        assert d.zero == lat.top and d.top == lat.zero


def test_dual_involution(lats):
    for lat in lats.values():
        dd = dual(dual(lat))
        assert dd.join == lat.join and dd.zero == lat.zero


def test_zero_and_top_are_the_ends_of_the_order():
    """``zero`` and ``top``, read from the join table, are the elements
    whose down-sets are the least and the full mask, on every lattice up to
    size 8 and on its dual."""
    lats = enumerate_lattices(8, limit=8)
    for lat in lats + [dual(lat) for lat in lats]:
        assert lat.zero == lat.down.index(min(lat.down))
        assert lat.top == lat.down.index((1 << lat.n) - 1)


def test_chain_self_dual():
    lat = load_fixture("chain3")
    assert lattice_iso(lat, dual(lat)) is not None


def test_diamond_self_dual():
    lat = load_fixture("diamond")
    assert lattice_iso(lat, dual(lat)) is not None


def test_m3_and_n5_self_dual():
    for name in ("m3", "n5"):
        lat = load_fixture(name)
        assert lattice_iso(lat, dual(lat)) is not None


def test_dual_of_lat50a_is_lat50b():
    a = load_fixture("lat50a")
    b = load_fixture("lat50b")
    assert lattice_iso(dual(a), b) is not None
    assert lattice_iso(dual(b), a) is not None


def test_lattice_iso_identity(lats):
    for lat in lats.values():
        iso = lattice_iso(lat, lat)
        assert iso is not None and iso.check()


def test_lattice_iso_distinguishes():
    assert lattice_iso(load_fixture("chain3"), load_fixture("diamond")) is None
    assert lattice_iso(load_fixture("m3"), load_fixture("n5")) is None
    assert lattice_iso(load_fixture("lat50a"), load_fixture("lat50b")) is None


def test_hom_lattice_size_matches(lats):
    for lat in lats.values():
        hom_lat, e_index, homs = hom_to_l2(lat)
        assert hom_lat.n == lat.n
        assert sorted(e_index) == list(range(lat.n))


def test_hom_lattice_of_l2():
    lat = load_fixture("l2")
    hom_lat, _, homs = hom_to_l2(lat)
    assert homs == ((0, 0), (0, 1))
    assert hom_lat.n == 2


def test_hom_lattice_is_dual(lats):
    for lat in lats.values():
        hom_lat, _, _ = hom_to_l2(lat)
        assert lattice_iso(hom_lat, dual(lat)) is not None


def test_hom_bijection_turns_meets_into_joins(lats):
    for lat in lats.values():
        hom_lat, e_index, _ = hom_to_l2(lat)
        for a in range(lat.n):
            for b in range(lat.n):
                lhs = e_index[lat.meet(a, b)]
                rhs = hom_lat.join[e_index[a]][e_index[b]]
                assert lhs == rhs


def _reference_hom_to_l2(lat):
    """The former ``hom_to_l2``: every 0/1 image tuple that sends the zero
    to 0 and preserves joins, by brute force over all 2^n tuples, then
    the table of their pointwise joins."""
    n = lat.n
    join = lat.join
    homs = []
    for bits in range(1 << n):
        img = tuple((bits >> x) & 1 for x in range(n))
        if img[lat.zero] != 0:
            continue
        ok = True
        for x in range(n):
            for y in range(x, n):
                if img[join[x][y]] != (img[x] | img[y]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            homs.append(img)
    homs.sort()
    index = {h: i for i, h in enumerate(homs)}
    table = tuple(
        tuple(index[tuple(a | b for a, b in zip(f, g))] for g in homs)
        for f in homs
    )
    hom_lat = validate_lattice(table, zero=index[tuple(0 for _ in range(n))])
    e_index = tuple(
        index[tuple(0 if lat.leq(x, a) else 1 for x in range(n))]
        for a in range(n)
    )
    return hom_lat, e_index, tuple(homs)


def test_hom_to_l2_matches_the_brute_force_up_to_six(lats):
    for lat in enumerate_lattices(6) + list(lats.values()):
        hom_lat, e_index, homs = hom_to_l2(lat)
        want_lat, want_e_index, want_homs = _reference_hom_to_l2(lat)
        assert (homs, e_index) == (want_homs, want_e_index)
        assert (hom_lat.join, hom_lat.zero, hom_lat.top, hom_lat.down) == \
            (want_lat.join, want_lat.zero, want_lat.top, want_lat.down)


def test_homomorphisms_match_the_brute_force():
    small = enumerate_lattices(4)
    pairs = list(itertools.product(small, repeat=2))
    pairs += [(src, dst) for src in enumerate_lattices(5) if src.n == 5
              for dst in (load_fixture("chain3"), load_fixture("diamond"))]
    for src, dst in pairs:
        want = [img for img in itertools.product(range(dst.n), repeat=src.n)
                if img[src.zero] == dst.zero
                and all(img[src.join[x][y]] == dst.join[img[x]][img[y]]
                        for x in range(src.n) for y in range(src.n))]
        assert homomorphisms(src, dst) == want, (src.name, dst.name)
    chain3, diamond = load_fixture("chain3"), load_fixture("diamond")
    with pytest.raises(SizeLimit, match="more than 3 homomorphisms"):
        homomorphisms(chain3, diamond, max_count=3)
    with pytest.raises(SizeLimit, match="more than 3 endomorphisms"):
        homomorphisms(diamond, diamond, max_count=3)


def reference_homomorphisms(src, dst):
    """The walk of ``homomorphisms`` as it was before it stopped checking
    that a forced value lies above the values below its element."""
    n, sjoin, djoin, dzero = src.n, src.join, dst.join, dst.zero
    order = sorted(range(n), key=lambda x: (bin(src.down[x]).count("1"), x))
    below = [[y for y in range(n) if y != x and src.leq(y, x)] for x in range(n)]
    decomp = [[(x, y) for x in below[z] for y in below[z] if x < y and sjoin[x][y] == z]
              for z in range(n)]
    results = []
    img = [None] * n
    img[src.zero] = dzero

    def rec(k):
        if k == n:
            results.append(tuple(img))
            return
        z = order[k]
        pairs = decomp[z]
        if pairs:
            x0, y0 = pairs[0]
            v = djoin[img[x0]][img[y0]]
            for x, y in pairs[1:]:
                if djoin[img[x]][img[y]] != v:
                    return
            for w in below[z]:
                if djoin[img[w]][v] != v:
                    return
            img[z] = v
            rec(k + 1)
        else:
            lower = dzero
            for w in below[z]:
                lower = djoin[lower][img[w]]
            for v in range(dst.n):
                if djoin[lower][v] == v:
                    img[z] = v
                    rec(k + 1)

    rec(1)
    return sorted(results)


def assert_walk_matches_the_reference(src, dst):
    """``homomorphisms`` gives the reference walk's maps, and
    ``homomorphism_rows`` their image rows joined; the number of maps."""
    want = reference_homomorphisms(src, dst)
    assert homomorphisms(src, dst) == want, (src.name, dst.name)
    assert homomorphism_rows(src, dst) == b"".join(map(bytes, want)), (src.name, dst.name)
    return len(want)


def test_homomorphisms_match_the_walk_with_the_order_check():
    """Dropping the check that a forced value lies above the values below
    its element loses no rejection: the same endomorphisms of every
    lattice up to size 7 and of the fixtures, and the same homomorphisms
    between any two lattices up to size 5, as tuples and as the packed
    string."""
    lats = enumerate_lattices(7) + [load_fixture(n) for n in FIXTURE_NAMES]
    endos = sum(assert_walk_matches_the_reference(lat, lat) for lat in lats)
    assert endos == 23743  # computed by both walks, not taken from the paper
    small = enumerate_lattices(5)
    for src, dst in itertools.product(small, repeat=2):
        assert_walk_matches_the_reference(src, dst)


def _chain(n):
    return FiniteLattice(MAX_TABLE(n))


def test_the_limit_counts_maps_not_partial_maps():
    """M_3 has 8 partial maps into the 2-chain once its three atoms are
    placed, but only 5 homomorphisms: the limit is passed exactly at the
    sixth map."""
    m3, chain2 = load_fixture("m3"), _chain(2)
    atoms = [x for x in range(m3.n) if m3.down[x].bit_count() == 2]
    assert len(atoms) == 3  # so 2**3 = 8 partial maps at the atom level
    maps = homomorphisms(m3, chain2, max_count=5)
    assert maps == homomorphisms(m3, chain2) == reference_homomorphisms(m3, chain2)
    assert len(maps) == 5
    assert homomorphism_rows(m3, chain2, max_count=5) == b"".join(map(bytes, maps))
    for walk in (homomorphisms, homomorphism_rows):
        with pytest.raises(SizeLimit, match="^more than 4 homomorphisms$"):
            walk(m3, chain2, max_count=4)


def test_endomorphisms_of_a_twenty_chain_stop_at_the_limit_in_bounded_memory():
    """A 20-element chain has far more than ``END_SIZE_LIMIT`` monotone
    self-maps fixing 0, and a level-wide frontier of them would not fit in
    memory; the walk raises in under a second with a traced peak under
    32 MB."""
    lat = _chain(20)
    message = f"^more than {END_SIZE_LIMIT} endomorphisms$"
    start = time.perf_counter()
    with pytest.raises(SizeLimit, match=message):
        endomorphisms(lat, max_count=END_SIZE_LIMIT)
    assert time.perf_counter() - start < 1
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimit, match=message):
            endomorphisms(lat, max_count=END_SIZE_LIMIT)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20


def _index_order_is_a_linear_extension(lat):
    return all(x <= y for y in range(lat.n) for x in range(lat.n) if lat.leq(x, y))


def test_homomorphisms_match_the_reference_when_index_order_is_not_a_linear_extension():
    """Seeded relabellings, fixing 0, of every lattice up to size 6 and of
    the fixtures, each drawn until index order is not a linear extension,
    so the walk permutes its rows back to index order and sorts them: its
    endomorphisms and its homomorphisms to and from the lattice it came
    from match the reference walk's, as tuples and as the packed string."""
    rng = random.Random(37)
    relabelled = 0
    for lat in enumerate_lattices(6) + [load_fixture(n) for n in FIXTURE_NAMES]:
        if lat.n < 3:  # a relabelling fixing 0 keeps the index order of a chain of two
            continue
        assert lat.zero == 0
        for _ in range(3):
            copy = lat
            while _index_order_is_a_linear_extension(copy):
                perm = [0, *rng.sample(range(1, lat.n), lat.n - 1)]
                copy = FiniteLattice(_relabelled(lat.join, perm))
            for src, dst in ((copy, copy), (copy, lat), (lat, copy)):
                assert_walk_matches_the_reference(src, dst)
            relabelled += 1
    assert relabelled == 3 * 31


def test_homomorphisms_into_more_values_than_a_byte_holds():
    """Into a chain of 257 elements a value does not fit in a byte, so
    ``homomorphisms`` and ``homomorphism_rows`` raise the one-byte
    ``SizeLimit``, also from a lattice whose index order is not a linear
    extension; into a chain of 256 the maps are the reference walk's."""
    chain3 = load_fixture("chain3")
    top_first = FiniteLattice(_relabelled(chain3.join, [0, 2, 1]))  # the top takes label 1
    assert not _index_order_is_a_linear_extension(top_first)
    message = "^lattice has 257 elements, above the 256 that one byte per value allows$"
    for src in (chain3, top_first):
        for walk in (homomorphisms, homomorphism_rows):
            with pytest.raises(SizeLimit, match=message):
                walk(src, _chain(257))
        assert homomorphisms(src, _chain(256)) == reference_homomorphisms(src, _chain(256))


def test_distributivity_flags():
    assert is_distributive(load_fixture("chain5"))
    assert not is_distributive(load_fixture("m3"))
    assert not is_distributive(load_fixture("n5"))


def test_join_prime_distributivity_matches_the_triple_loop():
    """The join-prime test against meet distributing over join for every
    triple, on every lattice up to size 8 and every fixture."""
    lats = [*enumerate_lattices(8, limit=8), *map(load_fixture, FIXTURE_NAMES)]
    flags = collections.Counter()
    for lat in lats:
        flag = reference_is_distributive(lat)
        assert is_distributive(lat) == flag, lat.name
        flags[flag] += 1
    assert flags[True] and flags[False]


def _check_covering_relation(lat, name):
    pairs = covering_pairs_by_definition(lat)
    assert lat.covers == tuple(sum(1 << c for c, d in pairs if d == b)
                               for b in range(lat.n)), name
    assert irreducibles(lat) == fold_irreducibles(lat) == counted_irreducibles(lat), name
    assert principal_test_pairs(lat.join) == pairs, name


def test_one_covering_relation():
    """On every lattice up to size 7, its dual and its lattice of maps
    into the two-element lattice, ``covers`` is the covering relation by
    its definition, ``irreducibles`` agrees with the fold of strict
    down- and up-sets and with the ends counted over the covering pairs,
    and ``closure.principal_test_pairs`` of the join gives those pairs.
    Each lattice is checked before the walk of ``hom_to_l2`` reads it."""
    lats = enumerate_lattices(7)
    assert len(lats) == 78
    for lat in lats:
        _check_covering_relation(lat, lat.name)
        _check_covering_relation(dual(lat), f"{lat.name}~")
        _check_covering_relation(hom_to_l2(lat)[0], f"hom({lat.name}, 2)")


def test_condition_d_flags():
    assert condition_d(load_fixture("chain4"))
    assert not condition_d(load_fixture("m3"))


def test_condition_d_matches_distributivity_up_to_eight():
    """Condition (D) over the meet-irreducibles alone against the test
    over every element that it replaced (``reference_condition_d``) and
    against distributivity, on all 300 lattices up to size 8 and the
    fixtures."""
    lats = [*enumerate_lattices(8, limit=8), *map(load_fixture, FIXTURE_NAMES)]
    flags = collections.Counter()
    for lat in lats:
        flag = condition_d(lat)
        assert flag == reference_condition_d(lat) == is_distributive(lat), lat.name
        flags[flag] += 1
    assert flags[True] and flags[False]


def test_ring_of_sets_chain():
    omega, phi = embed_ring_of_sets(load_fixture("chain3"))
    assert phi[0] < phi[1] < phi[2]
    assert phi[0] == frozenset()


def test_ring_of_sets_diamond():
    omega, phi = embed_ring_of_sets(load_fixture("diamond"))
    assert len(omega) == 2
    assert sorted(len(s) for s in phi) == [0, 1, 1, 2]


def test_ring_of_sets_rejects_m3():
    with pytest.raises(PreconditionFailed) as info:
        embed_ring_of_sets(load_fixture("m3"))
    assert type(info.value) is PreconditionFailed
    assert str(info.value) == "lattice fails the reconstruction criterion"


def test_ring_of_sets_preserves_structure():
    """On each of the 36 distributive lattices up to size 8, phi(z) is the
    set of join-irreducibles below z (Birkhoff's embedding): one-to-one,
    joins to unions and meets to intersections."""
    distributive = [lat for lat in enumerate_lattices(8, limit=8) if is_distributive(lat)]
    assert len(distributive) == 36
    for lat in distributive:
        _, phi = embed_ring_of_sets(lat)
        irreducible = [j for j in range(lat.n) if lat.down[j].bit_count() > 1
                       and all(lat.join[x][y] != j for x in range(lat.n) for y in range(lat.n)
                               if x != j != y)]
        for z in range(lat.n):
            assert phi[z] == {j for j in irreducible if lat.leq(j, z)}, lat.name
        assert len(set(phi)) == lat.n
        for x in range(lat.n):
            for y in range(lat.n):
                assert phi[lat.join[x][y]] == phi[x] | phi[y]
                assert phi[lat.meet(x, y)] == phi[x] & phi[y]


def test_ring_of_sets_image_is_isomorphic_lattice():
    for name in ("chain4", "diamond", "lat50a", "lat50b"):
        lat = load_fixture(name)
        _, phi = embed_ring_of_sets(lat)
        order = sorted(range(lat.n), key=lambda z: (len(phi[z]), sorted(phi[z])))
        index = {phi[z]: i for i, z in enumerate(order)}
        table = [
            [index[phi[order[i]] | phi[order[j]]] for j in range(lat.n)]
            for i in range(lat.n)
        ]
        induced = validate_lattice(table)
        assert lattice_iso(induced, lat) is not None


# ---------------------------------------------------------------------------
# enumeration, checked against an independent brute-force oracle


def _oracle_lattice_classes(n):
    """Labeled strict relations on a linear extension, filtered down to
    lattices and deduplicated by exhaustive permutation."""
    classes = set()
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for bits in range(1 << len(pairs)):
        less = {p for k, p in enumerate(pairs) if (bits >> k) & 1}
        if any((i, j) in less and (j, k) in less and (i, k) not in less
               for i in range(n) for j in range(n) for k in range(n)):
            continue
        leq = {(i, i) for i in range(n)} | less
        if any((0, j) not in leq for j in range(n)):
            continue  # 0 must be the bottom
        join = [[None] * n for _ in range(n)]
        ok = True
        for i in range(n):
            for j in range(n):
                uppers = [u for u in range(n) if (i, u) in leq and (j, u) in leq]
                least = [u for u in uppers if all((u, v) in leq for v in uppers)]
                if len(least) != 1:
                    ok = False
                    break
                join[i][j] = least[0]
            if not ok:
                break
        if not ok:
            continue
        canon = min(
            tuple(tuple(p[join[x][y]] for y in sorted(range(n), key=p.__getitem__))
                  for x in sorted(range(n), key=p.__getitem__))
            for p in map(list, itertools.permutations(range(n)))
        )
        classes.add(canon)
    return classes


@pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 1), (4, 2), (5, 5)])
def test_enumeration_counts(n, count):
    lats = [l for l in enumerate_lattices(5) if l.n == n]
    assert len(lats) == count
    if n == 1:
        return
    oracle = _oracle_lattice_classes(n)
    assert len(oracle) == count
    # every oracle class matches exactly one enumerated lattice up to iso
    for table in oracle:
        rep = validate_lattice(table, zero=_bottom_of(table))
        matches = [l for l in lats if lattice_iso(rep, l) is not None]
        assert len(matches) == 1


def _bottom_of(table):
    n = len(table)
    for b in range(n):
        if all(table[b][x] == x for x in range(n)):
            return b
    raise AssertionError("no neutral element")


def test_enumeration_size_two_is_the_two_chain():
    (lat,) = [l for l in enumerate_lattices(2) if l.n == 2]
    assert lat.join == ((0, 1), (1, 1))


def test_enumeration_output_is_validated_and_deduplicated():
    lats = enumerate_lattices(5)
    for lat in lats:
        validate_lattice(lat.join)  # construction invariant
    for a, b in itertools.combinations(lats, 2):
        if a.n == b.n:
            assert lattice_iso(a, b) is None


def test_enumeration_covers_the_five_element_fixtures():
    five = [l for l in enumerate_lattices(5) if l.n == 5]
    for name in ("chain5", "lat50a", "lat50b", "n5", "m3"):
        fixture = load_fixture(name)
        matches = [l for l in five if lattice_iso(l, fixture) is not None]
        assert len(matches) == 1, name


def _order_masks(join, n):
    """The up-set and down-set bitmasks of the order of a join table."""
    up = [0] * n
    down = [0] * n
    for x in range(n):
        for y in range(n):
            if join[x][y] == y:
                up[x] |= 1 << y
                down[y] |= 1 << x
    return up, down


def _reference_poset_colors(up, down, n):
    """Colour refinement as it was before it stopped on the class count:
    a round ends the refinement when it leaves every pair of elements as
    equal or unequal as before."""
    colors = [(bin(down[x]).count("1"), bin(up[x]).count("1")) for x in range(n)]
    for _ in range(n):
        sig = []
        for x in range(n):
            below = sorted(colors[y] for y in range(n) if (down[x] >> y) & 1)
            above = sorted(colors[y] for y in range(n) if (up[x] >> y) & 1)
            sig.append((colors[x], tuple(below), tuple(above)))
        ranks = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [ranks[s] for s in sig]
        if all((colors[x] == colors[y]) == (new[x] == new[y])
               for x in range(n) for y in range(n)):
            return new
        colors = new
    return colors


def _reference_admissible_perms(colors, n):
    """Every permutation giving the colour classes consecutive labels in
    colour order: ``perm[x]`` is the new label of x."""
    groups = {}
    for x in range(n):
        groups.setdefault(colors[x], []).append(x)
    keys = sorted(groups)
    slots = []
    start = 0
    for k in keys:
        slots.append((groups[k], start))
        start += len(groups[k])
    for choice in itertools.product(*[itertools.permutations(g) for g, _ in slots]):
        perm = [0] * n
        for (g, base), ordering in zip(slots, choice):
            for offset, x in enumerate(ordering):
                perm[x] = base + offset
        yield perm


def _reference_canon_join_table(join, n):
    """The canonical join table as it was before candidates were built from
    the inverse permutation and cut short: every admissible relabelled
    table in full, rows and columns sorted by their new labels."""
    colors = _reference_poset_colors(*_order_masks(join, n), n)
    best = None
    for perm in _reference_admissible_perms(colors, n):
        key = tuple(
            tuple(perm[join[x][y]] for y in sorted(range(n), key=perm.__getitem__))
            for x in sorted(range(n), key=perm.__getitem__)
        )
        if best is None or key < best:
            best = key
    return best


def _reference_coatom_extensions(join, n):
    """Every coatom extension of the lattice ``join`` of size n - 1, as
    ``_masked_extensions`` yields their tables without its down-set
    pruning."""
    k = n - 2
    top = n - 1
    down = [sum(1 << y for y in range(k) if join[y][x] == x) for x in range(k)]
    for d in range(1, 1 << k, 2):
        inside = [x for x in range(k) if d >> x & 1]
        if any(down[x] & ~d for x in inside) or any(
                join[x][y] < k and not d >> join[x][y] & 1
                for x in inside for y in inside):
            continue
        up = [k if d >> x & 1 else top for x in range(k)]
        rows = [[v if v < k else max(up[x], up[y]) for y, v in enumerate(row[:k])]
                + [up[x], top] for x, row in enumerate(join[:k])]
        yield rows + [up + [k, top], [top] * n]


def _canon_upmasks(up, n):
    """Canonical form of a poset given by its up-set bitmasks: the least
    relabelled up-mask tuple over the colour-respecting permutations."""
    down = [sum(1 << x for x in range(n) if up[x] >> y & 1) for y in range(n)]
    colors = _reference_poset_colors(up, down, n)
    best = None
    for perm in _reference_admissible_perms(colors, n):
        rows = [0] * n
        for x in range(n):
            for y in range(n):
                if up[x] >> y & 1:
                    rows[perm[x]] |= 1 << perm[y]
        key = tuple(rows)
        if best is None or key < best:
            best = key
    return best


def _order_ideals(up, n):
    """The down-sets of a poset given by its up-set bitmasks: a set is one
    iff no element outside it lies below an element inside it."""
    for mask in range(1 << n):
        if not any(up[y] & mask for y in range(n) if not mask >> y & 1):
            yield mask


def _reference_poset_to_lattice(up, n):
    """Join table of a poset with a global bottom in which every pair has
    a least upper bound, else None."""
    full = (1 << n) - 1
    if not any(up[b] == full for b in range(n)):
        return None
    join = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(x, n):
            uppers = up[x] & up[y]
            least = [z for z in range(n)
                     if (uppers >> z) & 1 and (uppers & ~up[z]) == 0]
            if not least:
                return None
            join[x][y] = join[y][x] = least[0]
    return join


def _reference_enumerate_lattices(max_n):
    """Grow every poset class up to size max_n (not max_n - 2), keep those
    with a bottom and all joins, and name the k-th class of size n by
    counting the classes of size n before it.  Nothing of the package's
    canonical form is used."""
    if max_n < 1:
        return []
    posets = {(1,): (1,)}
    lat_tables = [_reference_canon_join_table([[0]], 1)]
    for n in range(2, max_n + 1):
        nxt = {}
        for up in posets.values():
            for ideal in _order_ideals(up, n - 1):
                new_up = [row | ((1 << (n - 1)) if (ideal >> x) & 1 else 0)
                          for x, row in enumerate(up)]
                new_up.append(1 << (n - 1))
                nxt.setdefault(_canon_upmasks(new_up, n), tuple(new_up))
        posets = nxt
        tables = set()
        for up in posets.values():
            join = _reference_poset_to_lattice(up, n)
            if join is not None:
                tables.add(_reference_canon_join_table(join, n))
        lat_tables.extend(sorted(tables))
    out = [validate_lattice(t, zero=0) for t in sorted(lat_tables, key=lambda t: (len(t), t))]
    for i, lat in enumerate(out):
        lat.name = f"lat{lat.n}_{sum(1 for l in out[: i + 1] if l.n == lat.n)}"
    return out


@pytest.mark.parametrize("max_n", range(1, 8))
def test_enumeration_matches_growth_to_full_size(max_n):
    def facts(lats):
        return [(l.name, l.join, l.zero, l.top, l.down) for l in lats]

    assert facts(enumerate_lattices(max_n)) == facts(_reference_enumerate_lattices(max_n))


def test_enumeration_counts_match_heitzig_reinhold_up_to_ten():
    # the number of lattices of n elements up to isomorphism, n = 1 .. 10:
    # Heitzig and Reinhold 2002, "Counting finite lattices", Algebra
    # Universalis 48; OEIS A006966
    lats = enumerate_lattices(10, limit=10)
    counts = [sum(1 for l in lats if l.n == n) for n in range(1, 11)]
    assert counts == [1, 1, 1, 2, 5, 15, 53, 222, 1078, 5994]
    # names and tables as the enumeration printed them before the shortcuts
    # of _poset_colors, _admissible_orders and _masked_extensions
    digest = hashlib.sha256(repr([(l.name, l.join) for l in lats]).encode()).hexdigest()
    assert digest == "f2cd92c26386f8631f104c8c3ac67a006ebc05ca572017f278e908fcbe14d713"


@pytest.mark.size6
def test_enumeration_count_matches_heitzig_reinhold_at_eleven():
    # the same source; 7.9 s of process time and a peak RSS of 110 MB on a
    # 2-core Intel Xeon with Python 3.11.7
    lats = enumerate_lattices(11, limit=11)
    assert sum(1 for l in lats if l.n == 11) == 37622


def test_min_order_seven_json_is_pinned():
    # digest of the output of the grow-to-size-n enumeration kept above
    out = io.StringIO()
    assert main(["--format", "json", "min-order", "--max-size", "7"], out=out) == 0
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == "13f32b2577969e696a4ba7f6ba4b9f797c988185a7d5324c749723cf032e03fc"


def test_min_order_seven_text_is_pinned():
    # the text output, byte for byte, as the enumeration before the
    # mask-carrying extensions and the twin pruning printed it
    out = io.StringIO()
    assert main(["min-order", "--max-size", "7"], out=out) == 0
    assert out.getvalue() == (REFERENCES / "min_order7.txt").read_text()


def _without(lat, m):
    """Join table of ``lat`` without the element m, joins that were m sent
    to the top; the other elements keep their order."""
    keep = [x for x in range(lat.n) if x != m]
    index = {x: i for i, x in enumerate(keep)}
    return tuple(tuple(index[lat.top if lat.join[x][y] == m else lat.join[x][y]] for y in keep)
                 for x in keep)


def test_removing_a_coatom_leaves_a_lattice_of_one_size_less():
    lats = enumerate_lattices(7)
    classes = {n: {l.join for l in lats if l.n == n} for n in range(1, 8)}
    for lat in lats:
        if lat.n < 3:
            continue
        # a coatom has only itself and the top above it
        coatoms = [m for m in range(lat.n) if sum(lat.leq(m, y) for y in range(lat.n)) == 2]
        assert coatoms, lat.name
        for m in coatoms:
            table = _without(lat, m)
            validate_lattice(table)
            assert canon_join_table(table, lat.n - 1) in classes[lat.n - 1], (lat.name, m)


@pytest.mark.parametrize("n", range(3, 8))
def test_coatom_extensions_are_lattices_with_a_new_coatom(n):
    parents = [l for l in enumerate_lattices(n - 1) if l.n == n - 1]
    count = 0
    for parent in parents:
        for table, _, _ in _masked_extensions(parent, n):
            lat = validate_lattice(table)
            assert lat.zero == 0 and lat.top == n - 1
            assert [y for y in range(n) if lat.leq(n - 2, y)] == [n - 2, n - 1]
            assert _without(lat, n - 2) == parent.join
            count += 1
    assert count >= len([l for l in enumerate_lattices(n) if l.n == n])


def _relabelled(join, perm):
    """The table of ``join`` with each x renamed perm[x]."""
    n = len(join)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[perm[x]][perm[y]] = perm[join[x][y]]
    return out


def _extensions_by_size(max_n):
    lats = enumerate_lattices(max_n, limit=9)
    return {n: [table for parent in lats if parent.n == n - 1
                for table in _reference_coatom_extensions(parent.join, n)]
            for n in range(3, max_n + 1)}


@pytest.mark.parametrize("n", [*range(3, 9), pytest.param(9, marks=pytest.mark.size6)])
def test_canonical_form_matches_the_reference_on_every_extension(n):
    rng = random.Random(n)
    for table in _extensions_by_size(n)[n]:
        want = _reference_canon_join_table(table, n)
        perm = list(range(n))
        rng.shuffle(perm)
        copy = _relabelled(table, perm)
        for t in (table, copy):
            masks = _order_masks(t, n)
            assert _poset_colors(*masks, n) == _reference_poset_colors(*masks, n)
        assert canon_join_table(table, n) == want
        assert canon_join_table(copy, n) == want
        assert _reference_canon_join_table(copy, n) == want


def test_discrete_colourings_take_one_ordering_26_times_at_seven_and_119_at_eight():
    # the kept extensions that enumerate_lattices(8) canonicalises: the
    # discrete exit of _poset_colors, with the reference colours, and the
    # one ordering of _admissible_orders, the elements by colour
    lats = enumerate_lattices(7)
    discrete = collections.Counter()
    for parent in lats:
        n = parent.n + 1
        if n < 3:
            continue
        for table, up, down in _masked_extensions(parent, n):
            colors = _poset_colors(up, down, n)
            assert colors == _reference_poset_colors(up, down, n)
            if len(set(colors)) == n:
                discrete[n] += 1
                assert list(_admissible_orders(colors, n, up, down)) == [
                    sorted(range(n), key=colors.__getitem__)]
    assert (discrete[7], discrete[8]) == (26, 119)


def _kept(table, n):
    """Whether no coatom of ``table`` other than n - 2 has a larger
    down-set than n - 2."""
    up, down = _order_masks(table, n)
    coatoms = [c for c in range(n) if bin(up[c]).count("1") == 2]
    return all(bin(down[c]).count("1") <= bin(down[n - 2]).count("1") for c in coatoms)


@pytest.mark.parametrize("n", range(3, 9))
def test_masked_extensions_are_the_kept_reference_extensions_with_their_masks(n):
    # the parent's order read off its down and covers, the down-sets grown
    # in a linear extension and the clash pairs give the tables and order
    # masks of the unpruned reference, kept by the down-set rule
    for parent in (l for l in enumerate_lattices(n - 1, limit=8) if l.n == n - 1):
        got = sorted((tuple(map(tuple, table)), list(up), list(down))
                     for table, up, down in _masked_extensions(parent, n))
        want = sorted((tuple(map(tuple, table)), *_order_masks(table, n))
                      for table in _reference_coatom_extensions(parent.join, n)
                      if _kept(table, n))
        assert got == want, parent.name


def test_canonical_form_of_the_one_element_lattice():
    assert canon_join_table(((0,),), 1) == _reference_canon_join_table([[0]], 1) == ((0,),)


def _twin_pairs(lat):
    """The pairs x < y of elements of ``lat`` with the same strict
    down-set and the same strict up-set."""
    n = lat.n
    strict = [({z for z in range(n) if z != x and lat.leq(z, x)},
               {z for z in range(n) if z != x and lat.leq(x, z)}) for x in range(n)]
    return [(x, y) for x, y in itertools.combinations(range(n), 2) if strict[x] == strict[y]]


def test_swapping_two_twins_is_an_automorphism():
    lats = enumerate_lattices(7)
    swaps = 0
    for lat in lats:
        for x, y in _twin_pairs(lat):
            mapping = list(range(lat.n))
            mapping[x], mapping[y] = y, x
            assert is_table_iso(mapping, (lat.join,), lat.zero, (lat.join,), lat.zero), \
                (lat.name, x, y)
            swaps += 1
    assert swaps > len(lats)  # M_3 alone has three pairs of twin atoms


def _ordering_counts(join, n):
    """The number of orderings in the full product of the colour classes
    and in the twin-pruned ``_admissible_orders``."""
    up, down = _order_masks(join, n)
    colors = _poset_colors(up, down, n)
    return (sum(1 for _ in _reference_admissible_perms(colors, n)),
            sum(1 for _ in _admissible_orders(colors, n, up, down)))


def test_twin_pruned_orderings_give_the_full_product_minimum():
    # every extension up to size 8 and every fixture, in its own labelling
    # and a shuffled one; those the pruning cuts short in eight more
    rng = random.Random(28)
    for join in [t for ts in _extensions_by_size(8).values() for t in ts] + [
            load_fixture(name).join for name in FIXTURE_NAMES]:
        n = len(join)
        want = _reference_canon_join_table(join, n)
        full, pruned = _ordering_counts(join, n)
        assert 1 <= pruned <= full
        assert canon_join_table(join, n) == want
        for _ in range(9 if pruned < full else 1):
            perm = list(range(n))
            rng.shuffle(perm)
            assert canon_join_table(_relabelled(join, perm), n) == want


def test_twin_pruning_takes_m5_and_the_24_orderings_to_one():
    # the extensions that enumerate_lattices(7) canonicalises
    counts = collections.Counter(
        _ordering_counts(join, lat.n + 1) for lat in enumerate_lattices(6) if lat.n >= 2
        for join, _, _ in _masked_extensions(lat, lat.n + 1))
    assert counts[120, 1] == 1 and counts[24, 1] == 3
    assert max(pruned for _, pruned in counts) == 4


def test_enumeration_up_to_eight_is_pinned():
    # names and tables of the enumeration before the down-set pruning
    lats = enumerate_lattices(8, limit=8)
    digest = hashlib.sha256(repr([(l.name, l.join) for l in lats]).encode()).hexdigest()
    assert digest == "f6639c514ccf2ae63636f055adbe2f5115655f1484910fc73a4dab091d4ff360"


def test_pruning_keeps_80_tables_at_seven_and_341_at_eight():
    lats = enumerate_lattices(7)
    kept = {n: sum(1 for l in lats if l.n == n - 1 for _ in _masked_extensions(l, n))
            for n in (7, 8)}
    unpruned = {n: len(tables) for n, tables in _extensions_by_size(8).items()}
    assert (kept[7], kept[8]) == (80, 341)
    assert (unpruned[7], unpruned[8]) == (116, 541)


@pytest.mark.parametrize("n", range(3, 9))
def test_removing_a_coatom_of_largest_down_set_is_undone_by_a_kept_extension(n):
    lats = enumerate_lattices(n, limit=8)
    parents = {l.join for l in lats if l.n == n - 1}
    for lat in (l for l in lats if l.n == n):
        coatoms = [m for m in range(lat.n) if sum(lat.leq(m, y) for y in range(n)) == 2]
        largest = max(bin(lat.down[m]).count("1") for m in coatoms)
        for m in coatoms:
            if bin(lat.down[m]).count("1") != largest:
                continue
            parent = canon_join_table(_without(lat, m), n - 1)
            assert parent in parents, (lat.name, m)
            assert any(canon_join_table(ext, n) == lat.join
                       for ext, _, _ in _masked_extensions(FiniteLattice(parent), n)), \
                (lat.name, m)


def test_enumeration_limit():
    with pytest.raises(LimitExceeded):
        enumerate_lattices(8)


# ---------------------------------------------------------------------------
# text format


def test_lat_round_trip():
    for name in FIXTURE_NAMES:
        text = fixture_text(name)
        lat = parse_lat(text)
        assert serialize_lat(lat) == text
        assert parse_lat(serialize_lat(lat)) == lat
    with pytest.raises(KeyError):
        fixture_text("nope")


def test_lat_parse_errors():
    with pytest.raises(ParseError):
        parse_lat("x 3\n0 1 2\n")
    with pytest.raises(ParseError):
        parse_lat("n 3\n0 1\n1 1 2\n2 2 2\n")
    with pytest.raises(ParseError):
        parse_lat("n 2\n0 7\n1 1\n")
