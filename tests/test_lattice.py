"""Lattice core: validation, order data, duality, enumeration."""

import hashlib
import io
import itertools

import pytest

from semirings.errors import (
    BadZero,
    LimitExceeded,
    NotDistributive,
    NotIdempotent,
    ParseError,
)
from semirings.cli import main
from semirings.fixtures import FIXTURE_NAMES, fixture_text, load_fixture
from semirings.lattice import (
    _canon_join_table,
    _canon_upmasks,
    _order_ideals,
    condition_d,
    dual,
    embed_ring_of_sets,
    enumerate_lattices,
    hom_to_l2,
    is_distributive,
    lattice_iso,
    parse_lat,
    serialize_lat,
    validate_lattice,
)

MAX_TABLE = lambda n: [[max(i, j) for j in range(n)] for i in range(n)]


def test_validate_two_chain():
    lat = validate_lattice(MAX_TABLE(2))
    assert lat.n == 2 and lat.zero == 0 and lat.top == 1


def test_validate_rejects_non_idempotent():
    with pytest.raises(NotIdempotent):
        validate_lattice([[0, 1], [1, 0]])


def test_validate_rejects_bad_zero():
    # neutral element of the max table is 0, not 1
    with pytest.raises(BadZero):
        validate_lattice(MAX_TABLE(3), zero=1)


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


def test_distributivity_flags():
    assert is_distributive(load_fixture("chain5"))
    assert not is_distributive(load_fixture("m3"))
    assert not is_distributive(load_fixture("n5"))


def test_condition_d_flags():
    assert condition_d(load_fixture("chain4"))
    assert not condition_d(load_fixture("m3"))


def test_condition_d_matches_distributivity_up_to_six():
    for lat in enumerate_lattices(6):
        assert condition_d(lat) == is_distributive(lat)


def test_ring_of_sets_chain():
    omega, phi = embed_ring_of_sets(load_fixture("chain3"))
    assert phi[0] < phi[1] < phi[2]
    assert phi[0] == frozenset()


def test_ring_of_sets_diamond():
    omega, phi = embed_ring_of_sets(load_fixture("diamond"))
    assert len(omega) == 2
    assert sorted(len(s) for s in phi) == [0, 1, 1, 2]


def test_ring_of_sets_rejects_m3():
    with pytest.raises(NotDistributive):
        embed_ring_of_sets(load_fixture("m3"))


def test_ring_of_sets_preserves_structure():
    for lat in enumerate_lattices(6):
        if not is_distributive(lat):
            continue
        _, phi = embed_ring_of_sets(lat)
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
    counting the classes of size n before it."""
    if max_n < 1:
        return []
    posets = {(1,): (1,)}
    lat_tables = [_canon_join_table([[0]], 1)]
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
                tables.add(_canon_join_table(join, n))
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


def test_enumeration_counts_match_a006966_up_to_eight():
    lats = enumerate_lattices(8, limit=8)
    counts = [sum(1 for l in lats if l.n == n) for n in range(1, 9)]
    assert counts == [1, 1, 1, 2, 5, 15, 53, 222]


def test_min_order_seven_json_is_pinned():
    # digest of the output of the grow-to-size-n enumeration kept above
    out = io.StringIO()
    assert main(["--format", "json", "min-order", "--max-size", "7"], out=out) == 0
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == "13f32b2577969e696a4ba7f6ba4b9f797c988185a7d5324c749723cf032e03fc"


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


def test_lat_parse_errors():
    with pytest.raises(ParseError):
        parse_lat("x 3\n0 1 2\n")
    with pytest.raises(ParseError):
        parse_lat("n 3\n0 1\n1 1 2\n2 2 2\n")
    with pytest.raises(ParseError):
        parse_lat("n 2\n0 7\n1 1\n")
