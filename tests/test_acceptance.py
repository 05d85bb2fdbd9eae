"""Acceptance suite.

Each test is one exit criterion and emits a "criterion NN PASS/FAIL" line
in the terminal summary.  The two large sweeps (full size-6 budget) are
opt-in: set SEMIRINGS_SIZE6=1.
"""

import itertools

import pytest

from semirings.endo import (
    compose,
    dense_closure,
    elementary,
    endomorphisms,
    enumerate_sr,
    is_dense,
    zero_map,
)
from semirings.fixtures import (
    FIXTURE_NAMES,
    boolean_semiring,
    two_element_trivial_mul,
)
from semirings.lattice import (
    condition_d,
    enumerate_lattices,
    is_distributive,
    lattice_iso,
)
from semirings.semimodule import (
    acts_nonzero,
    annihilator,
    commutant,
    irreducibility,
    iso_to_dense_subsemiring,
    module_lattice,
    representation,
)
from semirings.semiring import (
    additive_reachability_congruence,
    is_congruence_simple,
    is_semiring_congruence,
    recover_monoid,
    semiring_anti_iso,
    semiring_iso,
    structure_flags,
)

from reference import center, check_iso

EXPECTED_SR_ORDERS = {
    "l2": [2],
    "chain3": [6],
    "chain4": [20],
    "diamond": [16],
    "chain5": [70],
    "lat50a": [50],
    "lat50b": [50],
    "n5": [43, 42],
    "m3": [50, 47, 46, 46, 46, 45, 44],
}

@pytest.mark.criterion(1, "dense family orders match the classification table")
def test_criterion_01_family_orders(sr_families):
    for name in FIXTURE_NAMES:
        orders = sorted((f.size for f in sr_families[name]), reverse=True)
        assert orders == EXPECTED_SR_ORDERS[name], name


@pytest.mark.criterion(2, "endomorphism semiring orders 6, 20, 70, 16")
def test_criterion_02_end_orders(ends):
    assert ends["chain3"][0].n == 6
    assert ends["chain4"][0].n == 20
    assert ends["chain5"][0].n == 70
    assert ends["diamond"][0].n == 16


@pytest.mark.criterion(3, "every family member is congruence-simple")
def test_criterion_03_simplicity(sr_rings):
    for name in FIXTURE_NAMES:
        for r in sr_rings[name]:
            assert is_congruence_simple(r), (name, r.n)
    assert is_congruence_simple(two_element_trivial_mul())
    assert is_congruence_simple(boolean_semiring())


@pytest.mark.criterion(3, "size-6 part: every family member of lat6_1 .. lat6_9 is "
                          "congruence-simple (opt-in)")
@pytest.mark.size6
def test_criterion_03_simplicity_size_six():
    # computed from the Cayley tables: the catalog relies on the density
    # lemma of iso_to_dense_subsemiring and checks no member
    names = {f"lat6_{i}" for i in range(1, 10)}
    members = 0
    for lat in enumerate_lattices(6):
        if lat.name in names:
            for sub in enumerate_sr(lat):
                assert is_congruence_simple(sub.to_semiring()), (lat.name, sub.size)
                members += 1
    assert members == 37


@pytest.mark.criterion(4, "simple iff isomorphic-to-dense over all subsemirings "
                          "of End(chain3), End(diamond) and End(chain4)")
def test_criterion_04_simple_iff_iso_to_dense(end_subsemirings):
    positive = 0
    for name, rings in end_subsemirings.items():
        for i, r in enumerate(rings):
            flags = structure_flags(r)
            simple = is_congruence_simple(r)
            if flags.trivial_mul and simple:
                assert r.n <= 2  # simple with trivial products stays tiny
            if r.n <= 2 or flags.is_ring:
                continue
            if simple:
                assert flags.add_idempotent
            witness = iso_to_dense_subsemiring(r)
            assert simple == (witness is not None), (name, i)
            if witness is not None:
                positive += 1
                lat, sub = witness
                assert is_dense(sub) and sub.size == r.n, (name, i)
                assert semiring_iso(r, sub.to_semiring()) is not None, (name, i)
                assert lat == sub.lattice == recover_monoid(r), (name, i)
    assert positive == 10


@pytest.mark.criterion(5, "descent reaches a faithful dense irreducible module "
                          "over the source lattice")
def test_criterion_05_irreducible_pipeline(descents, lats):
    for name, chains in descents.items():
        for r, chain in chains:
            mod = chain[-1]
            assert irreducibility(mod).irreducible
            rep = representation(r, mod)
            assert rep.faithful and rep.dense
            assert lattice_iso(module_lattice(mod), lats[name]) is not None
            sizes = [m.m for m in chain]
            assert all(sizes[i] > sizes[i + 1] for i in range(1, len(sizes) - 1))
            for step in chain:
                assert acts_nonzero(step)
            for step in chain[1:]:
                flags = irreducibility(step)
                assert flags.sub_irreducible or flags.quotient_irreducible


@pytest.mark.criterion(6, "transpose duality: the two order-50 semirings are "
                          "anti-isomorphic, the self-dual ones to themselves")
def test_criterion_06_duality(ends):
    a, b = ends["lat50a"][0], ends["lat50b"][0]
    mapping = semiring_anti_iso(a, b)
    assert mapping is not None and check_iso(a, b, mapping, anti=True)
    for name in ("l2", "chain3", "chain4", "chain5", "diamond", "n5", "m3"):
        r = ends[name][0]
        mapping = semiring_anti_iso(r, r)
        assert mapping is not None and check_iso(r, r, mapping, anti=True), name


@pytest.mark.criterion(7, "exactly the order-42 and order-44 members lack a one")
def test_criterion_07_one_element_flags(sr_rings):
    lacking = sorted(
        r.n for name in FIXTURE_NAMES for r in sr_rings[name]
        if not structure_flags(r).has_one
    )
    assert lacking == [42, 44]


@pytest.mark.criterion(8, "the three order-46 members are isomorphic and no "
                          "other family members are")
def test_criterion_08_isomorphy(sr_rings):
    for name in FIXTURE_NAMES:
        rings = sr_rings[name]
        for r1, r2 in itertools.combinations(rings, 2):
            if r1.n != r2.n:
                continue
            mapping = semiring_iso(r1, r2)
            if name == "m3" and r1.n == 46:
                assert mapping is not None and check_iso(r1, r2, mapping)
                # isomorphic members must sit over isomorphic monoids
                assert lattice_iso(recover_monoid(r1), recover_monoid(r2)) is not None
            else:
                assert mapping is None, (name, r1.n)


@pytest.mark.criterion(9, "reconstruction criterion, distributivity, and a "
                          "singleton family coincide (size <= 5)")
def test_criterion_09_condition_d(lats):
    for lat in enumerate_lattices(5):
        singleton = len(enumerate_sr(lat)) == 1
        assert condition_d(lat) == is_distributive(lat) == singleton
    for lat in lats.values():
        singleton = len(enumerate_sr(lat)) == 1
        assert condition_d(lat) == is_distributive(lat) == singleton


@pytest.mark.criterion(9, "size-6 part: criterion matches singleton families "
                          "(opt-in)")
@pytest.mark.size6
def test_criterion_09_condition_d_size_six():
    for lat in enumerate_lattices(6):
        if lat.n != 6:
            continue
        # the family is a singleton exactly when the elementary closure
        # already fills the whole endomorphism semiring
        singleton = dense_closure(lat).size == len(endomorphisms(lat))
        assert condition_d(lat) == is_distributive(lat) == singleton


@pytest.mark.criterion(10, "least dense subsemiring order over size-6 lattices "
                           "is 98 (opt-in)")
@pytest.mark.size6
def test_criterion_10_order_98():
    sixes = [l for l in enumerate_lattices(6) if l.n == 6]
    least = []
    for i, lat in enumerate(sixes):
        size = dense_closure(lat).size
        least.append(size)
        print(f"[{i + 1}/{len(sixes)}] {lat.name}: least dense order {size}")
    assert min(least) == 98
    assert not [l for l in enumerate_lattices(5) if l.n >= 6]


@pytest.mark.criterion(11, "elementary-map identities, reachability congruence, "
                           "commutant and annihilator properties")
def test_criterion_11_property_suites(lats, sr_rings, descents):
    # collapsing law for sandwiched elementary maps, on every fixture
    for lat in lats.values():
        endos = endomorphisms(lat)
        zmap = zero_map(lat)
        for f in endos:
            for a in range(lat.n):
                for b in range(lat.n):
                    inner = compose(f, elementary(lat, a, b))
                    for c in range(lat.n):
                        for d in range(lat.n):
                            got = compose(elementary(lat, c, d), inner)
                            want = zmap if lat.leq(f[b], c) else elementary(lat, a, d)
                            assert got == want

    # the additive reachability relation is a congruence, and the identity
    # on simple non-rings
    for name in FIXTURE_NAMES:
        for r in sr_rings[name]:
            cong = additive_reachability_congruence(r)
            assert is_semiring_congruence(r, cong)
            assert cong.is_identity()

    # commutant of an irreducible module is {zero, identity}; the center of
    # the acting semiring is at most {zero, one}
    for name, chains in descents.items():
        for r, chain in chains:
            mod = chain[-1]
            sub, semifield, trivial = commutant(r, mod)
            assert trivial and semifield
            one = structure_flags(r).one
            expected_center = {r.zero} | ({one} if one is not None else set())
            assert set(center(r)) <= expected_center

            # nonzero commutant members are bijections
            for f in sub.sorted_members():
                if f != zero_map(sub.lattice):
                    assert sorted(f) == list(range(mod.m))

            # the module order matches annihilator containment, reversed
            lat = module_lattice(mod)
            for x in range(mod.m):
                for y in range(mod.m):
                    assert lat.leq(x, y) == (annihilator(mod, y) <= annihilator(mod, x))
