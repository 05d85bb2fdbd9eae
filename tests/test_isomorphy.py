"""Iso classes, self-anti-isomorphy and ones of the dense families, read
off the lattice by ``catalog.member_reports``, against the Cayley-table
searches and the orbit classing they replace, and the lemmas behind
them."""

import hashlib
from itertools import product

import pytest

from semirings.catalog import MemberReport, _conjugations, family_report, member_reports
from semirings.closure import mask_of, members_of
from semirings.endo import (
    EndoSubsemiring,
    dense_closure,
    elementary,
    endomorphisms,
    enumerate_sr,
    identity_map,
    is_dense,
    is_endomorphism,
    transpose,
)
from semirings.fixtures import FIXTURE_NAMES
from semirings.lattice import dual, enumerate_lattices, lattice_iso
from semirings.semiring import semiring_anti_iso, semiring_iso, structure_flags

from reference import check_iso, conjugate, reference_orbit_reports

SMALL = [lat for lat in enumerate_lattices(5) if lat.n >= 2]


def reference_member_reports(families):
    """The classing of ``family_report`` before ``member_reports``: pairwise
    ``semiring_iso`` searches, each hit confirmed by ``check_iso``, and one
    ``semiring_anti_iso`` search and one ``structure_flags`` per member."""
    rings = [f.to_semiring() for f in families]
    iso_class = [None] * len(rings)
    next_class = 0
    for i, r in enumerate(rings):
        if iso_class[i] is not None:
            continue
        iso_class[i] = next_class
        for j in range(i + 1, len(rings)):
            if iso_class[j] is None and rings[j].n == r.n:
                mapping = semiring_iso(r, rings[j])
                if mapping is not None:
                    assert check_iso(r, rings[j], mapping)
                    iso_class[j] = next_class
        next_class += 1
    return tuple(
        MemberReport(order=r.n, has_one=structure_flags(r).has_one,
                     self_anti_iso=semiring_anti_iso(r, r) is not None, iso_class=iso_class[i])
        for i, r in enumerate(rings))


def descending_family(lat):
    return list(reversed(enumerate_sr(lat)))


SIX = [lat for lat in enumerate_lattices(6) if lat.n == 6]


@pytest.mark.parametrize("lat", SMALL + [pytest.param(lat, marks=pytest.mark.size6) for lat in SIX
                                         if lat.name not in ("lat6_10", "lat6_14", "lat6_15")],
                         ids=lambda lat: lat.name)
def test_family_report_matches_the_search_reference(lat):
    report = family_report(lat)
    assert report.members == reference_member_reports(descending_family(lat))


@pytest.mark.parametrize("lat", SMALL + [pytest.param(lat, marks=pytest.mark.size6) for lat in SIX
                                         if lat.name != "lat6_15"],
                         ids=lambda lat: lat.name)
def test_member_reports_match_the_orbit_classing(lat):
    families = descending_family(lat)
    assert member_reports(lat, families) == reference_orbit_reports(lat, families)


def report_digest(reports):
    """The SHA-256 of one line per member, in ``family_report`` order."""
    text = "".join(f"{m.order} {int(m.has_one)} {int(m.self_anti_iso)} {m.iso_class}\n"
                   for m in reports)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.size6
def test_lat6_10_has_312_iso_classes():
    """Computed here (by conjugation, and once by the pairwise searches),
    not taken from the paper: 601 dense subsemirings in 312 classes, 50
    with a one and 111 self-anti-isomorphic."""
    lat = next(lat for lat in SIX if lat.name == "lat6_10")
    reports = family_report(lat).members
    assert len(reports) == 601
    assert len({m.iso_class for m in reports}) == 312
    assert sum(m.has_one for m in reports) == 50
    assert sum(m.self_anti_iso for m in reports) == 111
    assert report_digest(reports) == (
        "04ddd714890823a902341db2dbf2d2e95223bb6065827929209de830f501e257")


@pytest.mark.size6
def test_lat6_14_reports_are_pinned():
    """Computed here (by the orbit classing and by the permuted masks), not
    taken from the paper: 6370 dense subsemirings in 3482 classes, 1521
    with a one and 1024 self-anti-isomorphic."""
    lat = next(lat for lat in SIX if lat.name == "lat6_14")
    reports = family_report(lat).members
    assert len(reports) == 6370
    assert len({m.iso_class for m in reports}) == 3482
    assert sum(m.has_one for m in reports) == 1521
    assert sum(m.self_anti_iso for m in reports) == 1024
    assert report_digest(reports) == (
        "f8bcb956256b55a429583ec407c4799b33b0d7189bf6c342f84151c643741bfc")


@pytest.mark.parametrize("lat", SMALL, ids=lambda lat: lat.name)
def test_conjugations_permute_end_and_fix_the_least_dense_subsemiring(lat):
    """σ∘e_{a,b}∘σ⁻¹ = e_{σ(a),σ(b)}, so each σ-permutation is a bijection
    of End(M)'s indices that maps D's mask onto itself; τ∘e_{a,b}^T∘τ⁻¹ =
    e_{τ(b),τ(a)}, so for self-dual M the list t is one too."""
    endos = endomorphisms(lat)
    rows = [bytes(f) for f in endos]
    at, perms, t = _conjugations(lat, rows)
    everything = list(range(len(rows)))
    assert list(map(at, rows)) == everything
    least = mask_of(map(at, dense_closure(lat).member_bytes()))
    autos = [s for s in endos if len(set(s)) == lat.n]
    assert len(perms) == len(autos)
    for s, p in zip(autos, perms):
        assert sorted(p) == everything
        assert mask_of(p[i] for i in members_of(least)) == least
        for a, b in product(range(lat.n), repeat=2):
            assert p[at(bytes(elementary(lat, a, b)))] == at(bytes(elementary(lat, s[a], s[b])))
    assert (t is None) == (lattice_iso(lat, dual(lat)) is None)
    if t is not None:
        assert sorted(t) == everything
        assert mask_of(t[i] for i in members_of(least)) == least


@pytest.mark.parametrize("lat", SMALL, ids=lambda lat: lat.name)
def test_a_member_has_a_one_iff_it_holds_the_identity(lat):
    for sub in enumerate_sr(lat):
        assert (identity_map(lat) in sub.members) == structure_flags(sub.to_semiring()).has_one


@pytest.mark.parametrize("lat", SMALL, ids=lambda lat: lat.name)
def test_transposes_form_a_dense_subsemiring_of_the_dual(lat):
    dlat = dual(lat)
    for sub in enumerate_sr(lat):
        image = EndoSubsemiring(dlat, frozenset(transpose(lat, f) for f in sub.members))
        assert image.size == sub.size and image.is_closed() and is_dense(image)


@pytest.mark.parametrize("lat", SMALL, ids=lambda lat: lat.name)
def test_bijective_endomorphisms_are_automorphisms(lat):
    endos = endomorphisms(lat)
    autos = [f for f in endos if len(set(f)) == lat.n]
    assert identity_map(lat) in autos
    for a in autos:
        inverse = tuple(sorted(range(lat.n), key=a.__getitem__))
        assert is_endomorphism(lat, inverse)
        assert conjugate(a, endos) == frozenset(endos)


def test_conjugate_is_s_after_f_after_s_inverse():
    maps = [(0, 1, 1), (0, 0, 2), (0, 2, 2)]
    s = (2, 0, 1)
    expected = set()
    for f in maps:
        g = [None] * 3
        for x in range(3):
            g[s[x]] = s[f[x]]  # g∘s = s∘f
        expected.add(tuple(g))
    assert conjugate(s, maps) == expected
    assert conjugate((1, 2, 0), expected) == frozenset(maps)  # (1, 2, 0) is s⁻¹
    assert conjugate((0, 1, 2), maps) == frozenset(maps)


@pytest.mark.parametrize("pair", [("lat50a", "lat50b")] + [(n, n) for n in FIXTURE_NAMES],
                         ids="-".join)
def test_lattice_duality_decides_anti_isomorphy_of_end(lats, ends, pair):
    name1, name2 = pair
    dual_iso = lattice_iso(lats[name1], dual(lats[name2])) is not None
    s1, s2 = ends[name1][0], ends[name2][0]
    mapping = semiring_anti_iso(s1, s2)
    assert dual_iso == (mapping is not None)
    assert mapping is None or check_iso(s1, s2, mapping, anti=True)
