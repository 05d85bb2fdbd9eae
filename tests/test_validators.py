"""The three validators against their former loop versions, and the
structures the package builds without validation against the validators.

``reference_validate_*`` are the validators as they were before every
axiom went through ``errors.check_axiom``: one hand-written loop nest per
group of axioms, in an interleaved order.  On seeded mutations of valid
tables both versions must accept and reject the same tables; the current
ones must name the first axiom broken in their documented order, on its
lexicographically first witness, and where only one axiom is broken the
two versions must raise the same error.
"""

import itertools
import random

import pytest

from semirings.endo import end_semiring
from semirings.errors import ParseError, ValidationError, check_table
from semirings.fixtures import FIXTURE_NAMES, load_fixture
from semirings.lattice import FiniteLattice, dual, enumerate_lattices, hom_to_l2, validate_lattice
from semirings.semimodule import (
    Semimodule,
    module_lattice,
    regular_module,
    validate_semimodule,
)
from semirings.semiring import (
    Congruence,
    FiniteSemiring,
    principal_congruence,
    quotient_semiring,
    recover_monoid,
    validate_semiring,
)

from reference import (
    boolean_semiring,
    field_f2,
    natural_module,
    product_semiring,
    two_element_trivial_mul,
)

# ---------------------------------------------------------------------------
# the former validators


def reference_validate_lattice(join_table, zero=0, name=None):
    join = tuple(tuple(row) for row in join_table)
    n = len(join)
    if n == 0:
        raise ValidationError("empty table")
    check_table(join, n)
    if not (0 <= zero < n):
        raise ValidationError("zero index out of range", (zero,))
    for x in range(n):
        if join[x][x] != x:
            raise ValidationError("x + x != x", (x,))
        if join[zero][x] != x:
            raise ValidationError("zero + x != x", (x,))
        for y in range(x + 1, n):
            if join[x][y] != join[y][x]:
                raise ValidationError("x + y != y + x", (x, y))
    for x in range(n):
        row = join[x]
        for y in range(n):
            lhs, rhs = join[row[y]], tuple(map(row.__getitem__, join[y]))
            if lhs != rhs:
                z = next(z for z in range(n) if lhs[z] != rhs[z])
                raise ValidationError("(x+y)+z != x+(y+z)", (x, y, z))
    down = [0] * n
    for y in range(n):
        for x in range(n):
            if join[x][y] == y:
                down[y] |= 1 << x
    top = 0
    for x in range(n):
        top = join[top][x]
    return n, join, zero, top, tuple(down), name


def reference_validate_semiring(add, mul, zero, name=None):
    add = tuple(tuple(row) for row in add)
    mul = tuple(tuple(row) for row in mul)
    n = len(add)
    if len(mul) != n:
        raise ParseError("add and mul tables disagree in size")
    check_table(add, n)
    check_table(mul, n)
    if not (0 <= zero < n):
        raise ValidationError("zero index out of range", (zero,))
    for x in range(n):
        if add[zero][x] != x:
            raise ValidationError("zero + x != x", (x,))
        if mul[zero][x] != zero or mul[x][zero] != zero:
            raise ValidationError("zero * x != zero", (x,))
        for y in range(x + 1, n):
            if add[x][y] != add[y][x]:
                raise ValidationError("x + y != y + x", (x, y))
    for x in range(n):
        for y in range(n):
            axy = add[x][y]
            mxy = mul[x][y]
            for z in range(n):
                if add[axy][z] != add[x][add[y][z]]:
                    raise ValidationError("(x+y)+z != x+(y+z)", (x, y, z))
                if mul[mxy][z] != mul[x][mul[y][z]]:
                    raise ValidationError("(xy)z != x(yz)", (x, y, z))
                if mul[x][add[y][z]] != add[mxy][mul[x][z]]:
                    raise ValidationError("x(y+z) != xy+xz", (x, y, z))
                if mul[add[x][y]][z] != add[mul[x][z]][mul[y][z]]:
                    raise ValidationError("(x+y)z != xz+yz", (x, y, z))
    return n, add, mul, zero, name


def reference_validate_semimodule(ring, madd, act):
    madd = tuple(tuple(row) for row in madd)
    act = tuple(tuple(row) for row in act)
    m = len(madd)
    check_table(madd, m, "madd ")
    if len(act) != ring.n:
        raise ParseError(f"act table has {len(act)} rows, expected {ring.n}")
    check_table(act, m, "act ")
    mzero = None
    for e in range(m):
        if all(madd[e][x] == x for x in range(m)):
            mzero = e
            break
    if mzero is None:
        raise ValidationError("addition has no neutral element")
    for x in range(m):
        for y in range(x + 1, m):
            if madd[x][y] != madd[y][x]:
                raise ValidationError("x + y != y + x", (x, y))
    for x in range(m):
        for y in range(m):
            axy = madd[x][y]
            for z in range(m):
                if madd[axy][z] != madd[x][madd[y][z]]:
                    raise ValidationError("(x+y)+z != x+(y+z)", (x, y, z))
    for x in range(m):
        if act[ring.zero][x] != mzero:
            raise ValidationError("0_R x != 0_M", (x,))
    for r in range(ring.n):
        for s in range(ring.n):
            rs = ring.mul[r][s]
            r_plus_s = ring.add[r][s]
            for x in range(m):
                if act[r][act[s][x]] != act[rs][x]:
                    raise ValidationError("r(sx) != (rs)x", (r, s, x))
                if act[r_plus_s][x] != madd[act[r][x]][act[s][x]]:
                    raise ValidationError("(r+s)x != rx+sx", (r, s, x))
        for x in range(m):
            for y in range(m):
                if act[r][madd[x][y]] != madd[act[r][x]][act[r][y]]:
                    raise ValidationError("r(x+y) != rx+ry", (r, x, y))
    return m, madd, act, mzero


# ---------------------------------------------------------------------------
# every broken axiom with its first witness, in the documented order


def _triples(n):
    return itertools.product(range(n), repeat=3)


def _first_broken(axioms):
    """(message, first witness) of every axiom in ``axioms`` (each
    ``(message, witnesses)``) that has a witness."""
    out = []
    for message, witnesses in axioms:
        witness = next(witnesses, None)
        if witness is not None:
            out.append((message, witness))
    return out


def lattice_broken(join, zero=0):
    n = len(join)
    cells = range(n)
    return _first_broken([
        ("x + x != x", ((x,) for x in cells if join[x][x] != x)),
        ("zero + x != x", ((x,) for x in cells if join[zero][x] != x)),
        ("x + y != y + x",
         ((x, y) for x in cells for y in cells if join[x][y] != join[y][x])),
        ("(x+y)+z != x+(y+z)",
         ((x, y, z) for x, y, z in _triples(n) if join[join[x][y]][z] != join[x][join[y][z]])),
    ])


def semiring_broken(add, mul, zero):
    n = len(add)
    cells = range(n)
    return _first_broken([
        ("zero + x != x", ((x,) for x in cells if add[zero][x] != x)),
        ("zero * x != zero",
         ((x,) for x in cells if mul[zero][x] != zero or mul[x][zero] != zero)),
        ("x + y != y + x",
         ((x, y) for x in cells for y in cells if add[x][y] != add[y][x])),
        ("(x+y)+z != x+(y+z)",
         ((x, y, z) for x, y, z in _triples(n) if add[add[x][y]][z] != add[x][add[y][z]])),
        ("(xy)z != x(yz)",
         ((x, y, z) for x, y, z in _triples(n) if mul[mul[x][y]][z] != mul[x][mul[y][z]])),
        ("x(y+z) != xy+xz",
         ((x, y, z) for x, y, z in _triples(n)
          if mul[x][add[y][z]] != add[mul[x][y]][mul[x][z]])),
        ("(x+y)z != xz+yz",
         ((x, y, z) for x, y, z in _triples(n)
          if mul[add[x][y]][z] != add[mul[x][z]][mul[y][z]])),
    ])


def module_broken(ring, madd, act):
    m = len(madd)
    cells, ring_cells = range(m), range(ring.n)
    mzero = next((e for e in cells if all(madd[e][x] == x for x in cells)), None)
    if mzero is None:
        return [("addition has no neutral element", None)]
    pairs = list(itertools.product(ring_cells, ring_cells, cells))
    return _first_broken([
        ("x + y != y + x", ((x, y) for x in cells for y in cells if madd[x][y] != madd[y][x])),
        ("(x+y)+z != x+(y+z)",
         ((x, y, z) for x, y, z in _triples(m) if madd[madd[x][y]][z] != madd[x][madd[y][z]])),
        ("0_R x != 0_M", ((x,) for x in cells if act[ring.zero][x] != mzero)),
        ("r(sx) != (rs)x",
         ((r, s, x) for r, s, x in pairs if act[r][act[s][x]] != act[ring.mul[r][s]][x])),
        ("(r+s)x != rx+sx",
         ((r, s, x) for r, s, x in pairs
          if act[ring.add[r][s]][x] != madd[act[r][x]][act[s][x]])),
        ("r(x+y) != rx+ry",
         ((r, x, y) for r in ring_cells for x in cells for y in cells
          if act[r][madd[x][y]] != madd[act[r][x]][act[r][y]])),
    ])


# ---------------------------------------------------------------------------
# seeded mutations


def _mutants(tables, seed, count):
    """``count`` copies of ``tables``, each with one to three entries set to
    a random value below the row width.  Every other copy changes only
    entries off the row and column of the zero (element 0 here), and in
    the first table, which is commutative, off the diagonal and in pairs
    x·y = y·x, so that it keeps the zero and commutativity and tends to
    break a single other axiom."""
    rng = random.Random(seed)
    for i in range(count):
        copy = [[list(row) for row in t] for t in tables]
        for _ in range(rng.randint(1, 3)):
            k = rng.randrange(len(copy))
            t = copy[k]
            width = len(t[0])
            v = rng.randrange(width)
            if i % 2 or width < 3:
                t[rng.randrange(len(t))][rng.randrange(width)] = v
                continue
            x, y = rng.sample(range(1, width), 2)
            t[x][y] = v
            if k == 0:
                t[y][x] = v
        yield copy


def _outcome(validate, *args):
    """What ``validate`` returns, or the (type, str, witness) of the
    ``ValidationError`` it raises."""
    try:
        return validate(*args)
    except ValidationError as exc:
        return type(exc), str(exc), exc.witness


def _error(broken):
    message, witness = broken
    text = message if witness is None else f"{message}: witness {witness}"
    return ValidationError, text, witness


def _compare(validate, reference, broken, facts, args):
    """The validator and its reference agree on accepting ``args``; a
    rejection names the first broken axiom, as the reference does when it
    is the only one.  Returns whether the table was rejected."""
    got, want = _outcome(validate, *args), _outcome(reference, *args)
    if not broken:
        assert facts(got) == want
        return False
    assert isinstance(want, tuple) and len(want) == 3 and want[0] is ValidationError
    assert got == _error(broken[0])
    if len(broken) == 1:
        assert got == want
    return True


def _lattice_facts(lat):
    return lat.n, lat.join, lat.zero, lat.top, lat.down, lat.name


def _semiring_facts(r):
    return r.n, r.add, r.mul, r.zero, r.name


def _module_facts(mod):
    return mod.m, mod.madd, mod.act, mod.mzero


def test_lattice_mutations_match_the_reference():
    rejected = 0
    for k, lat in enumerate(enumerate_lattices(6)):
        for (join,) in _mutants((lat.join,), seed=k, count=60):
            rejected += _compare(validate_lattice, reference_validate_lattice,
                                 lattice_broken(join), _lattice_facts, (join,))
    assert rejected > 1000


@pytest.fixture(scope="module")
def end_rings():
    rings = [end_semiring(load_fixture(name))[0] for name in ("chain3", "diamond")]
    assert [r.n for r in rings] == [6, 16]
    return rings


@pytest.mark.parametrize("index, count", [(0, 400), (1, 120)], ids=["chain3", "diamond"])
def test_end_semiring_mutations_match_the_reference(end_rings, index, count):
    r = end_rings[index]
    rejected = 0
    for add, mul in _mutants((r.add, r.mul), seed=index, count=count):
        rejected += _compare(validate_semiring, reference_validate_semiring,
                             semiring_broken(add, mul, r.zero), _semiring_facts, (add, mul, r.zero))
    assert rejected > count // 2


@pytest.mark.parametrize("index, count", [(0, 400), (1, 120)], ids=["chain3", "diamond"])
def test_regular_module_mutations_match_the_reference(end_rings, index, count):
    ring = end_rings[index]
    rejected = 0
    for madd, act in _mutants((ring.add, ring.mul), seed=10 + index, count=count):
        rejected += _compare(validate_semimodule, reference_validate_semimodule,
                             module_broken(ring, madd, act), _module_facts, (ring, madd, act))
    assert rejected > count // 2


def test_small_semirings_match_the_reference():
    # every commutative addition on three elements with identity 0 and
    # every multiplication with 0 absorbing
    singles = set()
    for a11, a12, a22 in itertools.product(range(3), repeat=3):
        add = ((0, 1, 2), (1, a11, a12), (2, a12, a22))
        for m11, m12, m21, m22 in itertools.product(range(3), repeat=4):
            mul = ((0, 0, 0), (0, m11, m12), (0, m21, m22))
            broken = semiring_broken(add, mul, 0)
            _compare(validate_semiring, reference_validate_semiring, broken, _semiring_facts,
                     (add, mul, 0))
            if len(broken) == 1:
                singles.add(broken[0][0])
    assert singles == {"(x+y)+z != x+(y+z)", "(xy)z != x(yz)", "x(y+z) != xy+xz",
                       "(x+y)z != xz+yz"}


def _small_module(rng):
    """Seeded tables of a three-element module over the boolean semiring:
    an addition that is random, or has identity 0, or is also commutative,
    or is the join of the chain 0 < 1 < 2; an action of 0_R that is random
    or zero; and an action of 1_R that is random, fixes 0 or is the
    identity."""
    madd = [[rng.randrange(3) for _ in range(3)] for _ in range(3)]
    kind = rng.randrange(4)
    if kind:
        for x in range(3):
            madd[0][x] = madd[x][0] = x
    if kind == 2:
        madd = [[madd[min(x, y)][max(x, y)] for y in range(3)] for x in range(3)]
    if kind == 3:
        madd = [[max(x, y) for y in range(3)] for x in range(3)]
    zero_row = rng.choice([[rng.randrange(3) for _ in range(3)], [0, 0, 0]])
    one_row = rng.choice([[rng.randrange(3) for _ in range(3)],
                          [0, rng.randrange(3), rng.randrange(3)], [0, 1, 2]])
    return madd, [zero_row, one_row]


def test_small_modules_match_the_reference():
    ring = boolean_semiring()
    rng = random.Random(7)
    singles = set()
    for _ in range(3000):
        madd, act = _small_module(rng)
        broken = module_broken(ring, madd, act)
        _compare(validate_semimodule, reference_validate_semimodule, broken, _module_facts,
                 (ring, madd, act))
        if len(broken) == 1:
            singles.add(broken[0][0])
    # the neutral element and each of the six axioms fail alone somewhere
    assert len(singles) == 7


def test_the_brute_force_lists_accept_the_valid_tables(end_rings):
    for lat in enumerate_lattices(6):
        assert lattice_broken(lat.join) == []
    for r in end_rings:
        assert semiring_broken(r.add, r.mul, r.zero) == []
        assert module_broken(r, r.add, r.mul) == []


# ---------------------------------------------------------------------------
# structures built without validation pass their validator


def _lattices():
    return enumerate_lattices(7) + [load_fixture(name) for name in FIXTURE_NAMES]


def _assert_valid_lattice(lat):
    assert _lattice_facts(validate_lattice(lat.join, zero=lat.zero, name=lat.name)) == \
        _lattice_facts(lat)


def _assert_valid_semiring(r):
    assert _semiring_facts(validate_semiring(r.add, r.mul, r.zero, name=r.name)) == \
        _semiring_facts(r)


def _assert_valid_module(mod):
    assert _module_facts(validate_semimodule(mod.ring, mod.madd, mod.act)) == _module_facts(mod)


def test_enumerated_lattices_duals_and_hom_lattices_are_valid():
    for lat in _lattices():
        assert isinstance(lat, FiniteLattice)
        _assert_valid_lattice(lat)
        _assert_valid_lattice(dual(lat))
        _assert_valid_lattice(hom_to_l2(lat)[0])


def test_recovered_monoids_are_valid(ends, sr_rings):
    rings = [r for r, _ in ends.values()] + [r for rs in sr_rings.values() for r in rs]
    for r in rings:
        _assert_valid_lattice(recover_monoid(r))


def test_descent_modules_and_their_lattices_are_valid(descents):
    count = 0
    for chains in descents.values():
        for _, chain in chains:
            for mod in chain:
                _assert_valid_module(mod)
                if all(row[x] == x for x, row in enumerate(mod.madd)):
                    _assert_valid_lattice(module_lattice(mod))
                    count += 1
    assert count > 0


def _small_rings(ends):
    return [boolean_semiring(), field_f2(), two_element_trivial_mul(),
            ends["l2"][0], ends["chain3"][0], ends["diamond"][0]]


def test_quotients_by_congruences_are_valid(ends):
    for r in _small_rings(ends):
        congruences = {Congruence(range(r.n)), Congruence([0] * r.n)}
        congruences.update(principal_congruence(r, x, y)
                           for x in range(r.n) for y in range(x + 1, r.n))
        for cong in congruences:
            q = quotient_semiring(r, cong)
            assert isinstance(q, FiniteSemiring) and q.n == cong.num_blocks
            _assert_valid_semiring(q)


def test_products_are_valid(ends):
    rings = _small_rings(ends)[:5]
    for r1, r2 in itertools.product(rings, repeat=2):
        _assert_valid_semiring(product_semiring(r1, r2))


def test_natural_and_regular_modules_are_valid(sr_families):
    for name in ("l2", "chain3", "diamond", "n5"):
        for sub in sr_families[name]:
            mod = natural_module(sub)
            assert isinstance(mod, Semimodule)
            _assert_valid_module(mod)
            _assert_valid_module(regular_module(sub.to_semiring()))
