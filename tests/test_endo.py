"""Endomorphism semirings, elementary maps, dense families, transposes."""

import hashlib
from functools import partial, reduce
from itertools import permutations

import pytest

from semirings import endo
from semirings.endo import (
    LATTICE_SIZE_LIMIT,
    EndoSubsemiring,
    compose,
    dense_closure,
    elementary,
    elementary_maps,
    end_semiring,
    endomorphisms,
    enumerate_sr,
    identity_map,
    is_dense,
    is_endomorphism,
    parse_srs,
    serialize_srs,
    transpose,
    zero_map,
)
from semirings.catalog import member_reports
from semirings.errors import SizeLimit
from semirings.fixtures import FIXTURE_NAMES, load_fixture
from semirings.lattice import FiniteLattice, condition_d, dual, enumerate_lattices, hom_to_l2
from semirings.semiring import serialize_sr, structure_flags, subsemirings

from reference import identity_is_elementary_sum, pointwise_join


def test_is_endomorphism_basics(lats):
    for lat in lats.values():
        assert is_endomorphism(lat, identity_map(lat))
        assert is_endomorphism(lat, zero_map(lat))
        if lat.n > 1:
            assert not is_endomorphism(lat, tuple(lat.top for _ in range(lat.n)))


def test_atom_swap_on_diamond_is_endomorphism(lats):
    assert is_endomorphism(lats["diamond"], (0, 2, 1, 3))


def test_end_orders(ends):
    expected = {"chain3": 6, "chain4": 20, "chain5": 70, "diamond": 16}
    for name, order in expected.items():
        assert ends[name][0].n == order


def test_endomorphisms_against_filtering_oracle(lats):
    # independent oracle: filter every self-map fixing zero
    import itertools

    for name in ("chain3", "diamond", "n5"):
        lat = lats[name]
        brute = sorted(
            img for img in itertools.product(range(lat.n), repeat=lat.n)
            if is_endomorphism(lat, img)
        )
        assert endomorphisms(lat) == brute


def test_end_semiring_text_is_pinned():
    """``end_semiring`` takes the lex-sorted rows of the walk
    (``lattice.homomorphism_rows``) as they come, and builds its tables
    from them, where it used to sort a frozenset of the image tuples
    again and build the tables from tuples: the ``.sr``
    text of End(M) on every lattice up to size 5 and on the fixtures, in
    that order, hashes as that build's (sha256 computed by it)."""
    digest = hashlib.sha256()
    lats = enumerate_lattices(5) + [load_fixture(name) for name in FIXTURE_NAMES]
    for lat in lats:
        digest.update(serialize_sr(end_semiring(lat)[0]).encode())
    assert len(lats) == 19
    assert digest.hexdigest() == \
        "1b78cfc33abcad7357c8a0eada6cf92a67ea44c1ae74a9f1eb2c57c2bccd84a9"


def test_end_size_limit(lats):
    with pytest.raises(SizeLimit):
        endomorphisms(lats["chain5"], max_count=10)


def chain(n):
    return FiniteLattice([[max(x, y) for y in range(n)] for x in range(n)])


def test_lattices_above_one_byte_per_value_raise_size_limit():
    # the zero map and the identity of a chain: at 256 elements a
    # subsemiring with its Cayley tables, at 257 a SizeLimit from both the
    # member set and the least dense subsemiring
    lat = chain(LATTICE_SIZE_LIMIT)
    assert EndoSubsemiring(lat, [zero_map(lat), identity_map(lat)]).to_semiring().n == 2
    lat = chain(LATTICE_SIZE_LIMIT + 1)
    message = "lattice has 257 elements, above the 256 that one byte per value allows"
    with pytest.raises(SizeLimit, match=message):
        EndoSubsemiring(lat, [zero_map(lat), identity_map(lat)])
    with pytest.raises(SizeLimit, match=message):
        dense_closure(lat)


def test_end_m_above_one_byte_per_value_raises_before_the_walk(monkeypatch):
    """``enumerate_sr`` and ``end_semiring`` check the lattice size before
    they walk: a 257-element chain raises the one-byte ``SizeLimit`` with
    the walk replaced by one that fails when it is entered, as it is on a
    chain small enough to walk."""
    def walk(*args):
        raise AssertionError("the homomorphism walk was entered")

    monkeypatch.setattr(endo, "homomorphism_rows", walk)
    message = "^lattice has 257 elements, above the 256 that one byte per value allows$"
    for build in (enumerate_sr, end_semiring):
        with pytest.raises(SizeLimit, match=message):
            build(chain(LATTICE_SIZE_LIMIT + 1))
        with pytest.raises(AssertionError, match="walk was entered"):
            build(chain(3))


def test_elementary_with_top_annihilates(lats):
    for lat in lats.values():
        for b in range(lat.n):
            assert elementary(lat, lat.top, b) == zero_map(lat)


def test_elementary_zero_top_is_absorbing(lats):
    for name in ("chain3", "diamond"):
        lat = lats[name]
        e = elementary(lat, lat.zero, lat.top)
        for h in endomorphisms(lat):
            assert pointwise_join(lat, h, e) == e


def test_compose_with_elementary(lats):
    lat = lats["chain3"]
    for f in endomorphisms(lat):
        for a in range(lat.n):
            for b in range(lat.n):
                assert compose(f, elementary(lat, a, b)) == elementary(lat, a, f[b])


def test_triple_composition_identity(lats):
    # e_{c,d} o f o e_{a,b} collapses to zero or to e_{a,d}
    for name in ("chain3", "diamond"):
        lat = lats[name]
        endos = endomorphisms(lat)
        for f in endos:
            for a in range(lat.n):
                for b in range(lat.n):
                    inner = compose(f, elementary(lat, a, b))
                    for c in range(lat.n):
                        for d in range(lat.n):
                            got = compose(elementary(lat, c, d), inner)
                            if lat.leq(f[b], c):
                                assert got == zero_map(lat)
                            else:
                                assert got == elementary(lat, a, d)


def test_dense_closure_orders(lats):
    assert dense_closure(lats["chain3"]).size == 6
    assert dense_closure(lats["m3"]).size == 44
    assert dense_closure(lats["n5"]).size == 42


def test_is_dense_cases(lats):
    lat = lats["chain3"]
    assert is_dense(dense_closure(lat))
    assert is_dense(EndoSubsemiring(lat, frozenset(endomorphisms(lat))))
    small = EndoSubsemiring(lat, frozenset({zero_map(lat), identity_map(lat)}))
    assert small.is_closed()
    assert not is_dense(small)
    dense = dense_closure(lat)
    for e in elementary_maps(lat):
        if e != zero_map(lat):
            assert not is_dense(EndoSubsemiring(lat, dense.members - {e}))


def test_enumerate_sr_orders(sr_families):
    orders = {name: sorted((f.size for f in fams), reverse=True)
              for name, fams in sr_families.items()}
    assert orders["m3"] == [50, 47, 46, 46, 46, 45, 44]
    assert orders["chain5"] == [70]
    assert orders["n5"] == [43, 42]


def test_enumerate_sr_members_are_closed_and_dense(sr_families):
    for fams in sr_families.values():
        for fam in fams:
            assert fam.is_closed()
            assert is_dense(fam)


def test_dense_members_separate_every_pair_by_elementary_maps(sr_families):
    """The density lemma of ``semimodule.iso_to_dense_subsemiring``,
    checked on the maps with no Cayley table: for f ≠ g in a dense R and x
    with f(x) ≰ g(x), the elementary A = e_{g(x),top} and X = e_{0,x} lie
    in R, A∘f∘X = e_{0,top} and A∘g∘X = 0; and e_{0,top} is the join of R,
    the top of its addition."""
    pairs = 0
    for fams in sr_families.values():
        for fam in fams:
            lat, members = fam.lattice, fam.members
            z = elementary(lat, lat.zero, lat.top)
            assert reduce(partial(pointwise_join, lat), members) == z
            for f, g in permutations(members, 2):
                x = next((x for x in range(lat.n) if not lat.leq(f[x], g[x])), None)
                if x is None:  # f <= g, so g(x) ≰ f(x) somewhere
                    f, g = g, f
                    x = next(x for x in range(lat.n) if not lat.leq(f[x], g[x]))
                a, xmap = elementary(lat, g[x], lat.top), elementary(lat, lat.zero, x)
                assert a in members and xmap in members
                assert compose(a, compose(f, xmap)) == z
                assert compose(a, compose(g, xmap)) == zero_map(lat)
                pairs += 1
    assert pairs == 28604


def test_transpose_of_identity(lats):
    for lat in lats.values():
        assert transpose(lat, identity_map(lat)) == identity_map(lat)


def test_transpose_is_a_bijection_onto_dual_end(lats):
    for name in ("diamond", "n5"):
        lat = lats[name]
        dlat = dual(lat)
        endos = endomorphisms(lat)
        images = {transpose(lat, f) for f in endos}
        assert len(images) == len(endos)
        assert images == set(endomorphisms(dlat))


def test_transpose_agrees_with_hom_composition(lats):
    # the adjoint formula matches precomposition of two-valued homs
    for name in ("chain3", "diamond"):
        lat = lats[name]
        _, e_index, homs = hom_to_l2(lat)
        for f in endomorphisms(lat):
            g = transpose(lat, f)
            for a in range(lat.n):
                precomposed = tuple(homs[e_index[a]][f[x]] for x in range(lat.n))
                assert precomposed == homs[e_index[g[a]]]


def test_transpose_reverses_composition_and_keeps_joins(lats):
    for name in ("chain3", "diamond"):
        lat = lats[name]
        dlat = dual(lat)
        endos = endomorphisms(lat)
        for f in endos:
            for g in endos:
                assert transpose(lat, compose(f, g)) == compose(
                    transpose(lat, g), transpose(lat, f))
                assert transpose(lat, pointwise_join(lat, f, g)) == pointwise_join(
                    dlat, transpose(lat, f), transpose(lat, g))


def test_double_transpose_is_identity(lats):
    lat = lats["n5"]
    dlat = dual(lat)
    for f in endomorphisms(lat):
        assert transpose(dlat, transpose(lat, f)) == f


def test_identity_sum_criterion_matches_singleton_family():
    for lat in enumerate_lattices(5):
        singleton = len(enumerate_sr(lat)) == 1
        assert identity_is_elementary_sum(lat) == singleton
        assert condition_d(lat) == singleton


def test_family_members_to_semiring_have_one_except_42_and_44(sr_rings):
    lacking = sorted(
        r.n for rings in sr_rings.values() for r in rings
        if not structure_flags(r).has_one
    )
    assert lacking == [42, 44]


def test_srs_round_trip(lats, sr_families):
    sub = sr_families["n5"][0]
    text = serialize_srs(sub)
    back = parse_srs(text, {"n5": lats["n5"]}.__getitem__)
    assert back.lattice is lats["n5"] and back.members == sub.members
    assert serialize_srs(back) == text


def test_parse_srs_above_one_byte_per_value_raises_before_the_lattice_is_read():
    # the zero map and the identity of a chain of 257 elements: the member
    # width alone decides, so the lattice is never resolved or validated
    n = LATTICE_SIZE_LIMIT + 1
    text = f"lattice c257\n{' '.join(['0'] * n)}\n{' '.join(map(str, range(n)))}\n"

    def lattice_of(name):
        pytest.fail(f"lattice {name} was resolved")

    message = "lattice has 257 elements, above the 256 that one byte per value allows"
    with pytest.raises(SizeLimit, match=message):
        parse_srs(text, lattice_of)


def assert_packed_matches(subs, sets):
    """Each packed subsemiring against the tuple set it stands for: ``size``,
    ``==``/``!=``, ``packed``, ``member_bytes`` and ``is_dense`` agree with
    the sets without decoding, and the decoded ``members`` and
    ``sorted_members`` are the set and its sorted list."""
    for a, s in zip(subs, sets):
        assert a.size == len(s)
        assert a.member_bytes() == [bytes(f) for f in sorted(s)]
        assert a.packed == b"".join(map(bytes, sorted(s)))
        assert is_dense(a) == all(e in s for e in elementary_maps(a.lattice))
        for b, t in zip(subs, sets):
            assert (a == b) == (s == t) and (a != b) == (s != t)
    assert not any("members" in vars(sub) for sub in subs)
    for sub, s in zip(subs, sets):
        assert sub.members == s
        assert sub.sorted_members() == sorted(s)
        assert EndoSubsemiring(sub.lattice, s) == sub


@pytest.mark.parametrize("name", ["chain3", "diamond"])
def test_packed_subsemirings_of_end_match_their_member_sets(lats, ends, name):
    r, maps = ends[name]
    sets = [frozenset(maps[i] for i in s) for s in subsemirings(r)]
    assert len(sets) == {"chain3": 20, "diamond": 222}[name]
    assert_packed_matches([EndoSubsemiring(lats[name], s) for s in sets], sets)


def test_packed_family_members_match_their_member_sets():
    for lat in list(enumerate_lattices(5)) + [load_fixture(n) for n in FIXTURE_NAMES]:
        fams = enumerate_sr(lat)
        assert all(f.size for f in fams) and not any("packed" in vars(f) for f in fams)
        sets = [frozenset(map(tuple, f.member_bytes())) for f in fams]
        assert_packed_matches(fams, sets)


def test_family_members_are_masks_over_the_rows_of_end():
    """Every member of a family of more than one holds End(M)'s rows and a
    mask of them; End(M), the last, keeps every row, so its ``packed`` is
    those rows.  ``dense_closure`` and a built set hold their own rows."""
    for lat in list(enumerate_lattices(5)) + [load_fixture(n) for n in FIXTURE_NAMES]:
        fams = enumerate_sr(lat)
        end = fams[-1]
        assert end.rows == b"".join(map(bytes, endomorphisms(lat)))
        assert end.mask == (1 << end.size) - 1 and end.packed is end.rows
        assert all(f.rows is end.rows for f in fams) or len(fams) == 1
        least = dense_closure(lat)
        assert least.rows == least.packed and least.mask == (1 << least.size) - 1
        built = EndoSubsemiring(lat, least.sorted_members())
        assert built.rows == least.rows and built.mask == least.mask and built == least


def test_masked_members_read_as_their_member_sets():
    """``is_dense`` and the catalog's member reports give the same results
    on every family up to size 5 as on the same sets built from tuples."""
    for lat in enumerate_lattices(5):
        fams = enumerate_sr(lat)
        built = [EndoSubsemiring(lat, f.sorted_members()) for f in fams]
        assert built == fams
        assert [is_dense(f) for f in fams] == [is_dense(f) for f in built] == [True] * len(fams)
        assert member_reports(lat, fams[::-1]) == member_reports(lat, built[::-1])


def test_packed_equality_compares_the_lattice(lats):
    zero = zero_map(lats["diamond"])
    assert zero == zero_map(lats["chain4"])
    on_diamond = EndoSubsemiring(lats["diamond"], [zero])
    on_chain4 = EndoSubsemiring(lats["chain4"], [zero])
    assert on_diamond.packed == on_chain4.packed and on_diamond != on_chain4
