"""Semimodules: validation, congruences, irreducibility, the descent."""


import pytest

from semirings.endo import (
    EndoSubsemiring,
    compose,
    end_semiring,
    endomorphisms,
    enumerate_sr,
    identity_map,
    zero_map,
)
from semirings.errors import ParseError, PreconditionFailed, SizeLimit, ValidationError
from semirings.fixtures import boolean_semiring, field_f2, load_fixture, two_element_trivial_mul
from semirings.lattice import enumerate_lattices, lattice_iso
from semirings.semimodule import (
    acts_nonzero,
    annihilator,
    annihilator_congruence,
    annulator,
    annulator_quotient,
    commutant,
    descend_to_irreducible,
    find_irreducible,
    ideal_module,
    irreducibility,
    iso_to_dense_subsemiring,
    maximal_nontotal_congruence,
    minimal_nonzero_submodule,
    module_congruences,
    module_lattice,
    module_principal,
    natural_module,
    parse_smod,
    quotient_module,
    regular_module,
    representation,
    serialize_smod,
    submodule,
    subsemimodules,
    validate_semimodule,
)
from semirings.semiring import product_semiring, recover_monoid, validate_semiring


@pytest.fixture(scope="module")
def nat_chain3():
    lat = load_fixture("chain3")
    _, members = end_semiring(lat)
    return natural_module(EndoSubsemiring(lat, frozenset(members)))


@pytest.fixture(scope="module")
def zero_action():
    lat = load_fixture("diamond")
    r = boolean_semiring()
    act = tuple(tuple(0 for _ in range(lat.n)) for _ in range(r.n))
    return validate_semimodule(r, lat.join, act)


def test_regular_module_is_valid():
    for r in (boolean_semiring(), two_element_trivial_mul()):
        mod = regular_module(r)
        validate_semimodule(r, mod.madd, mod.act)


def test_natural_module_is_valid(nat_chain3):
    assert nat_chain3.m == 3 and nat_chain3.ring.n == 6


def test_validate_rejects_broken_action():
    r = boolean_semiring()
    # 1 swaps the two elements, so 1(0x) = 1 but (1·0)x = 0x = 0 at x = 0
    with pytest.raises(ValidationError) as info:
        validate_semimodule(r, [[0, 1], [1, 1]], [[0, 0], [1, 0]])
    assert type(info.value) is ValidationError
    assert str(info.value) == "r(sx) != (rs)x: witness (1, 0, 0)"


def test_subsemimodules_contain_trivial_ones(nat_chain3):
    subs = subsemimodules(nat_chain3)
    assert frozenset({0}) in subs
    assert frozenset(range(nat_chain3.m)) in subs


def test_natural_chain3_has_only_trivial_subsemimodules(nat_chain3):
    assert [sorted(s) for s in subsemimodules(nat_chain3)] == [[0], [0, 1, 2]]


def test_subsemimodules_against_powerset_oracle(zero_action):
    mod = zero_action
    brute = set()
    for bits in range(1 << mod.m):
        s = frozenset(x for x in range(mod.m) if (bits >> x) & 1)
        if mod.mzero not in s:
            continue
        closed = all(mod.madd[x][y] in s for x in s for y in s) and all(
            mod.act[r][x] in s for r in range(mod.ring.n) for x in s)
        if closed:
            brute.add(s)
    assert brute == set(subsemimodules(mod))


def test_regular_product_module_has_proper_subsemimodule():
    r = product_semiring(boolean_semiring(), boolean_semiring())
    subs = subsemimodules(regular_module(r))
    proper = [s for s in subs if 1 < len(s) < r.n]
    assert proper


def test_module_principal_identity(nat_chain3):
    for x in range(nat_chain3.m):
        assert module_principal(nat_chain3, x, x).is_identity()


def test_natural_chain3_principal_congruences_total(nat_chain3):
    for x in range(nat_chain3.m):
        for y in range(x + 1, nat_chain3.m):
            assert module_principal(nat_chain3, x, y).is_total()


def _all_partitions(n):
    if n == 0:
        yield ()
        return
    for rest in _all_partitions(n - 1):
        k = max(rest) + 1 if rest else 0
        for b in range(k + 1):
            yield rest + (b,)


def _oracle_module_congruences(mod):
    from semirings.semimodule import is_module_congruence
    from semirings.semiring import Congruence

    return {
        c for blocks in _all_partitions(mod.m)
        if is_module_congruence(mod, c := Congruence(blocks))
    }


def test_module_congruences_against_partition_oracle(nat_chain3, zero_action):
    # join closure of the principal congruences reaches every congruence
    for mod in (nat_chain3, zero_action):
        assert set(module_congruences(mod)) == _oracle_module_congruences(mod)


def test_module_congruences_of_zero_action(zero_action):
    # with a zero action every partition compatible with addition works,
    # so principal closures stay small and the identity is present
    congs = module_congruences(zero_action)
    assert any(c.is_identity() for c in congs)
    assert any(c.is_total() for c in congs)


def test_module_congruences_raise_size_limit_past_set_limit(monkeypatch):
    from semirings import closure

    # chain4 with a zero action: 8 congruences, one of them a join of
    # principal ones that only the walk finds
    lat = load_fixture("chain4")
    mod = validate_semimodule(boolean_semiring(), lat.join, ((0,) * lat.n,) * 2)
    principals = {module_principal(mod, x, y) for x in range(mod.m) for y in range(x + 1, mod.m)}
    assert len(module_congruences(mod)) == 8 > len(principals) + 1
    monkeypatch.setattr(closure, "SET_LIMIT", 8)
    assert len(module_congruences(mod)) == 8
    monkeypatch.setattr(closure, "SET_LIMIT", 7)
    with pytest.raises(SizeLimit, match="more than 7 module congruences"):
        module_congruences(mod)


def test_maximal_nontotal_congruence_is_maximal(nat_chain3):
    from semirings.closure import close_congruence

    c = maximal_nontotal_congruence(nat_chain3)
    assert c.is_identity()  # the natural module is already quotient-irreducible
    r = product_semiring(boolean_semiring(), boolean_semiring())
    mod = regular_module(r)
    c = maximal_nontotal_congruence(mod)
    assert not c.is_total()
    for x in range(mod.m):
        for y in range(x + 1, mod.m):
            if not c.same(x, y):
                # absorbing any outside pair forces the total relation
                assert close_congruence(mod.m, c.pairs + [(x, y)], (mod.madd, mod.act_t)) is None


def test_irreducibility_flags(nat_chain3, zero_action):
    flags = irreducibility(nat_chain3)
    assert flags.acts_nonzero and flags.sub_irreducible and flags.quotient_irreducible
    assert flags.irreducible
    zflags = irreducibility(zero_action)
    assert not zflags.acts_nonzero and not zflags.irreducible


def test_regular_product_module_not_sub_irreducible():
    r = product_semiring(boolean_semiring(), boolean_semiring())
    assert not irreducibility(regular_module(r)).sub_irreducible


def test_find_irreducible_end_chain3(ends, lats):
    mod = find_irreducible(ends["chain3"][0])
    assert mod.m == 3
    assert irreducibility(mod).irreducible
    assert lattice_iso(module_lattice(mod), lats["chain3"]) is not None


def test_find_irreducible_boolean():
    mod = find_irreducible(boolean_semiring())
    assert mod.m == 2
    assert irreducibility(mod).irreducible


def test_iso_to_dense_subsemiring_of_a_ring_is_none():
    # the addition of F2 is not idempotent, so F2 has no left ideal R·z
    assert ideal_module(field_f2()) is None
    assert iso_to_dense_subsemiring(field_f2()) is None


def test_find_irreducible_rejects_trivial_mul():
    with pytest.raises(PreconditionFailed):
        find_irreducible(two_element_trivial_mul())


def test_find_irreducible_rejects_non_simple():
    r = product_semiring(boolean_semiring(), boolean_semiring())
    with pytest.raises(PreconditionFailed):
        find_irreducible(r)


def test_descent_invariants(ends):
    chain = descend_to_irreducible(ends["chain3"][0])
    sizes = [m.m for m in chain]
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    assert all(sizes[i] > sizes[i + 1] for i in range(1, len(sizes) - 1))
    for mod in chain:
        assert acts_nonzero(mod)
    for mod in chain[1:]:
        flags = irreducibility(mod)
        assert flags.sub_irreducible or flags.quotient_irreducible


def reference_descent(r, steps):
    """The descent loop that decided each step by ``irreducibility``; the
    kind of each step after the first quotient is appended to ``steps``."""
    m0 = regular_module(r)
    chain = [m0, quotient_module(m0, maximal_nontotal_congruence(m0))]
    while True:
        cur = chain[-1]
        flags = irreducibility(cur)
        if flags.irreducible:
            return chain
        if not flags.acts_nonzero:
            raise PreconditionFailed("descent reached a zero-action module")
        if not flags.sub_irreducible:
            steps.append("sub")
            nxt = submodule(cur, minimal_nonzero_submodule(cur))
        else:
            steps.append("quotient")
            nxt = quotient_module(cur, maximal_nontotal_congruence(cur))
        if nxt.m >= cur.m:
            raise PreconditionFailed("descent stopped shrinking")
        chain.append(nxt)


def descent_outcome(descend, r):
    try:
        return [(m.m, m.madd, m.act, m.mzero) for m in descend(r)]
    except PreconditionFailed as exc:
        return str(exc)


def test_descent_matches_the_irreducibility_loop_with_one_search_per_step(
        monkeypatch, end_subsemirings):
    """Unchecked descents from every subsemiring of End(chain3),
    End(diamond) and End(chain4), most of them not congruence-simple, pass
    to submodules and stop on a zero action; only the first quotient is
    searched for its minimal nonzero submodule, once per descent."""
    from semirings import semimodule

    rings = [r for name in ("chain3", "diamond", "chain4") for r in end_subsemirings[name]]
    steps = []
    want = [descent_outcome(lambda r: reference_descent(r, steps), r) for r in rings]
    assert "sub" in steps
    assert "descent reached a zero-action module" in want
    searched = []
    search = semimodule.minimal_nonzero_submodule
    monkeypatch.setattr(semimodule, "minimal_nonzero_submodule",
                        lambda mod: searched.append(mod) or search(mod))
    for r, expected in zip(rings, want):
        searched.clear()
        assert descent_outcome(lambda r: descend_to_irreducible(r, check=False), r) == expected
        if isinstance(expected, list):
            assert len(searched) == 1


def test_ideal_module_is_the_natural_module_of_end(ends, lats):
    for name in ("chain3", "diamond", "n5"):
        mod = ideal_module(ends[name][0])
        assert irreducibility(mod).irreducible
        assert module_lattice(mod) == recover_monoid(ends[name][0])
        assert lattice_iso(module_lattice(mod), lats[name]) is not None
    assert ideal_module(field_f2()) is None


@pytest.mark.size6
def test_descent_ends_irreducible_on_size_six():
    """The 37 dense members of lat6_1 .. lat6_9 (the lattices of the
    ``walk6`` benchmark workload), of orders 108 to 252: the descent ends
    in an irreducible module whose representation is faithful and dense,
    on a lattice isomorphic to the one the member came from."""
    lats = [lat for lat in enumerate_lattices(6)
            if lat.name in {f"lat6_{k}" for k in range(1, 10)}]
    orders = []
    for lat in lats:
        for fam in enumerate_sr(lat):
            r = fam.to_semiring()
            mod = find_irreducible(r)
            assert irreducibility(mod).irreducible, (lat.name, r.n)
            rep = representation(r, mod)
            assert rep.faithful and rep.dense, (lat.name, r.n)
            assert lattice_iso(module_lattice(mod), lat) is not None, (lat.name, r.n)
            orders.append(r.n)
    assert len(lats) == 9 and len(orders) == 37
    assert (min(orders), max(orders)) == (108, 252)


def test_representation_tautological(ends, lats):
    lat = lats["chain3"]
    sub = EndoSubsemiring(lat, frozenset(endomorphisms(lat)))
    rep = representation(sub.to_semiring(), natural_module(sub))
    assert rep.faithful and rep.dense
    assert rep.subsemiring.members == sub.members


def test_representation_of_zero_action_not_faithful(zero_action):
    rep = representation(zero_action.ring, zero_action)
    assert not rep.faithful


def test_representation_requires_idempotent_addition():
    r = field_f2()
    with pytest.raises(PreconditionFailed, match="^module addition is not idempotent$"):
        representation(r, regular_module(r))


def test_annihilator_congruence_cases(nat_chain3, zero_action):
    assert annihilator_congruence(nat_chain3).is_identity()
    assert annihilator_congruence(zero_action).is_total()


def test_annihilator_order_reversal(nat_chain3):
    # x <= y exactly when the annihilator of y sits inside that of x
    mod = nat_chain3
    lat = module_lattice(mod)
    for x in range(mod.m):
        for y in range(mod.m):
            assert lat.leq(x, y) == (annihilator(mod, y) <= annihilator(mod, x))


def test_annulator_quotient_identity_when_annulator_trivial(nat_chain3):
    quot, cong = annulator_quotient(nat_chain3)
    assert cong.is_identity() and quot.m == nat_chain3.m


def test_annulator_quotient_zero_class():
    r = boolean_semiring()
    madd = [[0, 1, 2], [1, 1, 2], [2, 2, 2]]
    act = [[0, 0, 0], [0, 0, 2]]  # the middle element is annihilated
    mod = validate_semimodule(r, madd, act)
    assert sorted(annulator(mod)) == [0, 1]
    quot, cong = annulator_quotient(mod)
    zero_class = [x for x in range(mod.m) if cong.same(x, 0)]
    assert sorted(zero_class) == [0, 1]
    assert quot.m == 2


def test_annulator_quotient_rejects_zero_action(zero_action):
    with pytest.raises(PreconditionFailed, match="^the action is zero everywhere$"):
        annulator_quotient(zero_action)


def test_commutant_of_full_end_is_trivial(ends, lats):
    lat = lats["chain3"]
    sub = EndoSubsemiring(lat, frozenset(endomorphisms(lat)))
    _, semifield, trivial = commutant(sub.to_semiring(), natural_module(sub))
    assert trivial and semifield


def test_commutant_of_trivial_ring_is_everything(lats):
    one_elt = validate_semiring([[0]], [[0]], 0)
    lat = lats["diamond"]
    act = ((0,) * lat.n,)
    mod = validate_semimodule(one_elt, lat.join, act)
    sub, semifield, trivial = commutant(one_elt, mod)
    assert sub.size == 16
    assert not trivial and not semifield


def reference_semifield(sub):
    """The semifield test ``commutant`` made before it read bijectivity:
    a search for a two-sided inverse of every nonzero member among the
    members."""
    ident, zmap = identity_map(sub.lattice), zero_map(sub.lattice)
    return all(any(compose(f, g) == ident and compose(g, f) == ident for g in sub.members)
               for f in sub.members if f != zmap)


def test_commutant_semifield_matches_the_inverse_search(sr_families, end_subsemirings):
    # the natural and ideal modules of every fixture family member, and the
    # regular and ideal modules of at most 8 elements of every subsemiring
    # of End(chain3) and End(diamond)
    cases = []
    for families in sr_families.values():
        for sub in families:
            r = sub.to_semiring()
            cases += [(r, natural_module(sub)), (r, ideal_module(r))]
    for name in ("chain3", "diamond"):
        for r in end_subsemirings[name]:
            cases += [(r, mod) for mod in (regular_module(r), ideal_module(r))
                      if mod is not None and mod.m <= 8]
    cases = [(r, mod) for r, mod in cases if mod is not None]
    semifields = 0
    for r, mod in cases:
        sub, semifield, _ = commutant(r, mod)
        assert semifield == reference_semifield(sub)
        semifields += semifield
    assert (len(cases), len(cases) - semifields) == (497, 252)


def test_smod_round_trip(nat_chain3):
    nat_chain3.ring.name = "end_chain3"
    text = serialize_smod(nat_chain3)
    mod2 = parse_smod(text, {"end_chain3": nat_chain3.ring}.__getitem__)
    assert mod2.ring is nat_chain3.ring
    assert mod2.madd == nat_chain3.madd and mod2.act == nat_chain3.act
    assert serialize_smod(mod2) == text


@pytest.mark.parametrize("text, line", [
    ("ring r\nm 1\n0\nz\n", 4),
    ("ring r\nm 2\n0 1\n1 1\n\n0 0\n0 x\n", 7),
    ("ring r\nm 2\n0 1\n1 1\n\n0 0\n0 1 1\n", 7),
])
def test_parse_smod_bad_action_row_names_its_line(text, line):
    with pytest.raises(ParseError) as info:
        parse_smod(text, {}.__getitem__)  # the ring is looked up after the last row
    assert info.value.line == line
