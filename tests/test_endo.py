"""Endomorphism semirings, elementary maps, dense families, transposes."""

import pytest

from semirings.endo import (
    EndoSubsemiring,
    compose,
    dense_closure,
    elementary,
    elementary_maps,
    endomorphisms,
    enumerate_sr,
    identity_is_elementary_sum,
    identity_map,
    is_dense,
    is_endomorphism,
    parse_srs,
    pointwise_join,
    serialize_srs,
    transpose,
    zero_map,
)
from semirings.errors import SizeLimit
from semirings.lattice import condition_d, dual, enumerate_lattices, hom_to_l2
from semirings.semiring import structure_flags


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


def test_end_size_limit(lats):
    with pytest.raises(SizeLimit):
        endomorphisms(lats["chain5"], max_count=10)


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
    name, members = parse_srs(text)
    assert name == "n5"
    assert frozenset(members) == sub.members
    assert serialize_srs(EndoSubsemiring(lats["n5"], frozenset(members))) == text
