"""Semiring core: validation, congruences, simplicity, structure, iso."""

import pytest

from semirings.endo import end_semiring
from semirings.errors import ValidationError
from semirings.fixtures import (
    boolean_semiring,
    field_f2,
    load_fixture,
    two_element_trivial_mul,
)
from semirings.lattice import FiniteLattice, enumerate_lattices, lattice_iso
from semirings.semimodule import Semimodule, regular_module
from semirings.semiring import (
    Congruence,
    FiniteSemiring,
    additive_reachability_congruence,
    close_subset,
    is_congruence_simple,
    is_semiring_congruence,
    opposite,
    parse_sr,
    principal_congruence,
    quotient_semiring,
    recover_monoid,
    semiring_anti_iso,
    semiring_iso,
    serialize_sr,
    structure_flags,
    subsemirings,
    validate_semiring,
)

from reference import center, check_iso, product_semiring, restrict


def test_validate_order_two_semirings():
    r2a = two_element_trivial_mul()
    r2b = boolean_semiring()
    assert r2a.n == 2 and r2b.n == 2
    assert structure_flags(r2b).has_one
    assert not structure_flags(r2a).has_one


def test_validate_end_of_chain3(lats):
    r, _ = end_semiring(lats["chain3"])
    validate_semiring(r.add, r.mul, r.zero)


def test_validate_rejects_bad_tables():
    cases = [
        (([[0, 1], [0, 1]], [[0, 0], [0, 0]]), "x + y != y + x: witness (0, 1)"),
        (([[0, 1], [1, 1]], [[0, 1], [0, 0]]), "zero * x != zero: witness (1,)"),
        # non-monotone multiplication over the max-addition of a chain
        (([[0, 1, 2], [1, 1, 2], [2, 2, 2]], [[0, 0, 0], [0, 2, 1], [0, 1, 2]]),
         "x(y+z) != xy+xz: witness (1, 1, 2)"),
    ]
    for (add, mul), message in cases:
        with pytest.raises(ValidationError) as info:
            validate_semiring(add, mul, 0)
        assert type(info.value) is ValidationError
        assert str(info.value) == message


def test_principal_congruence_on_boolean():
    r = boolean_semiring()
    assert principal_congruence(r, 0, 1).is_total()


def test_principal_congruence_on_end_chain3(ends):
    r, _ = ends["chain3"]
    for x in range(r.n):
        for y in range(x + 1, r.n):
            assert principal_congruence(r, x, y).is_total()


def test_principal_congruence_on_product_is_proper():
    r = product_semiring(boolean_semiring(), boolean_semiring())
    c = principal_congruence(r, 0, 1)  # (0,0) ~ (0,1)
    assert not c.is_total() and not c.is_identity()
    assert is_semiring_congruence(r, c)


def test_simplicity_flags():
    assert is_congruence_simple(two_element_trivial_mul())
    assert is_congruence_simple(boolean_semiring())
    assert not is_congruence_simple(product_semiring(boolean_semiring(), boolean_semiring()))


def test_every_family_member_is_simple_smoke(sr_rings):
    for r in sr_rings["n5"]:
        assert is_congruence_simple(r)


def test_quotient_by_identity_and_total():
    r, _ = end_semiring(load_fixture("chain3"))
    q = quotient_semiring(r, Congruence(range(r.n)))
    assert q.add == r.add and q.mul == r.mul
    q1 = quotient_semiring(r, Congruence([0] * r.n))
    assert q1.n == 1


def test_quotient_by_projection_kernel():
    r2b = boolean_semiring()
    r = product_semiring(r2b, r2b)
    # kernel of the first projection: (x, y) ~ (x, y')
    blocks = tuple(i // 2 for i in range(4))
    q = quotient_semiring(r, Congruence(blocks))
    assert semiring_iso(q, r2b) is not None


def test_quotient_rejects_incompatible():
    r = boolean_semiring()
    with pytest.raises(ValidationError) as info:
        # pairing the diagonal against the antidiagonal is not compatible
        quotient_semiring(product_semiring(r, r), Congruence((0, 1, 1, 0)))
    assert type(info.value) is ValidationError
    assert str(info.value) == "partition is not a semiring congruence"


def test_structure_flags_examples(ends):
    f = structure_flags(two_element_trivial_mul())
    assert (f.is_ring, f.add_idempotent, f.has_one, f.trivial_mul) == (
        False, True, False, True)
    assert f.absorbing == 1
    g = structure_flags(ends["chain3"][0])
    assert g.add_idempotent and g.has_one and g.absorbing is not None
    assert structure_flags(field_f2()).is_ring


def test_homomorphism_criterion():
    # a proper congruence yields a non-injective quotient map; a semiring is
    # simple iff every such image has size |R| or 1
    simple, _ = end_semiring(load_fixture("chain3"))
    non_simple = product_semiring(boolean_semiring(), boolean_semiring())
    for r, expect in ((simple, True), (non_simple, False)):
        image_sizes = set()
        for x in range(r.n):
            for y in range(x + 1, r.n):
                c = principal_congruence(r, x, y)
                q = quotient_semiring(r, c)
                image_sizes.add(q.n)
                assert q.n < r.n  # the natural map is not injective
        assert (image_sizes <= {1, r.n}) == expect


def test_additive_reachability_congruence_cases():
    assert additive_reachability_congruence(boolean_semiring()).is_identity()
    assert additive_reachability_congruence(field_f2()).is_total()


def test_additive_reachability_is_congruence(sr_rings):
    for r in sr_rings["n5"] + [boolean_semiring(), field_f2(),
                               product_semiring(boolean_semiring(), field_f2())]:
        assert is_semiring_congruence(r, additive_reachability_congruence(r))


def test_recover_monoid_from_end(ends, lats):
    for name in ("chain3", "diamond"):
        lat = recover_monoid(ends[name][0])
        assert lat is not None
        assert lattice_iso(lat, lats[name]) is not None


def test_recover_monoid_trivial_mul():
    lat = recover_monoid(two_element_trivial_mul())
    assert lat is not None and lat.n == 1


def test_recover_monoid_from_every_m3_family_member(sr_rings, lats):
    for r in sr_rings["m3"]:
        lat = recover_monoid(r)
        assert lat is not None
        assert lattice_iso(lat, lats["m3"]) is not None


def test_recover_monoid_none_for_rings():
    assert recover_monoid(field_f2()) is None


def test_subsemirings_of_boolean():
    r = boolean_semiring()
    subs = subsemirings(r)
    assert [sorted(s) for s in subs] == [[0], [0, 1]]


def test_subsemirings_are_closed(ends):
    r, _ = ends["chain3"]
    for s in subsemirings(r):
        assert close_subset(r, s) == s
    assert frozenset(range(r.n)) in subsemirings(r)


def test_subsemirings_against_powerset_oracle(ends):
    # brute force: every subset containing zero closed under both tables
    r, _ = ends["chain3"]
    brute = set()
    for bits in range(1 << r.n):
        s = frozenset(x for x in range(r.n) if (bits >> x) & 1)
        if r.zero not in s:
            continue
        if all(r.add[x][y] in s and r.mul[x][y] in s for x in s for y in s):
            brute.add(s)
    assert brute == set(subsemirings(r))


def test_restrict_builds_valid_semiring(ends):
    r, _ = ends["diamond"]
    for s in subsemirings(r)[:10]:
        sub = restrict(r, s)
        validate_semiring(sub.add, sub.mul, sub.zero)


def test_restrict_without_the_zero_is_a_validation_error(ends):
    r, _ = ends["chain3"]
    assert r.zero == 0
    with pytest.raises(ValidationError, match="zero"):
        restrict(r, [1, 2])


def test_restrict_to_a_subset_that_is_not_closed_is_a_validation_error(ends):
    r, _ = ends["chain3"]
    assert close_subset(r, [1, 5]) != {0, 1, 5}
    with pytest.raises(ValidationError, match="not closed"):
        restrict(r, [0, 1, 5])


def test_semiring_iso_negative():
    assert semiring_iso(boolean_semiring(), two_element_trivial_mul()) is None
    assert semiring_iso(boolean_semiring(), field_f2()) is None


def test_semiring_iso_reflexive(sr_rings):
    for r in sr_rings["n5"]:
        mapping = semiring_iso(r, r)
        assert mapping is not None and check_iso(r, r, mapping)


def test_opposite_involution(ends):
    r, _ = ends["diamond"]
    assert opposite(opposite(r)) == r


def test_anti_iso_of_self_dual_end(ends):
    r, _ = ends["diamond"]
    mapping = semiring_anti_iso(r, r)
    assert mapping is not None and check_iso(r, r, mapping, anti=True)


def test_center_of_end_semirings(ends):
    for name in ("chain3", "diamond"):
        r, _ = ends[name]
        one = structure_flags(r).one
        assert set(center(r)) == {r.zero, one}


def test_sr_round_trip(ends):
    r, _ = ends["chain3"]
    r.name = "end_chain3"
    text = serialize_sr(r)
    back = parse_sr(text)
    assert back == r and serialize_sr(back) == text


def as_lists(table):
    return [list(row) for row in table]


def test_list_rows_and_tuple_rows_give_the_same_structures(ends):
    """The constructors keep tuple rows, so a table given with list rows
    finds the same zero (``closure.identity`` looks for a tuple row), top
    and equality as with tuple rows."""
    for lat in enumerate_lattices(5):
        listed = FiniteLattice(as_lists(lat.join))
        assert (listed.zero, listed.top, listed.down) == (lat.zero, lat.top, lat.down)
        assert listed == lat and hash(listed) == hash(lat)
    rings = [boolean_semiring(), field_f2(), two_element_trivial_mul(),
             ends["chain3"][0], ends["diamond"][0]]
    for r in rings:
        listed = FiniteSemiring(as_lists(r.add), as_lists(r.mul))
        assert listed.zero == r.zero is not None
        assert listed == r and hash(listed) == hash(r)
        mod = regular_module(r)
        listed_mod = Semimodule(listed, as_lists(mod.madd), as_lists(mod.act))
        assert listed_mod.mzero == mod.mzero is not None
        assert (listed_mod.madd, listed_mod.act, listed_mod.act_t) == (mod.madd, mod.act, mod.act_t)
