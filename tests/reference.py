"""Helpers the tests share that no command, exported name or benchmark
workload of the package calls: three two-element semirings, products and
restrictions of semirings, their centers, a check of a given isomorphism,
the pointwise join of two maps, the natural module of a subsemiring of
End(M), the canonical join table of one lattice, distributivity by its
definition, the least subsemiring holding given elements, every semiring
with zero of a small order, the classing of dense members by their
orbits of image-tuple sets, condition (D) over every element, the
multiplicative identity by search, and the covering relation and the
irreducibles by their definitions and by the derivations they replaced."""

import collections
import itertools

from semirings.catalog import MemberReport
from semirings.closure import (
    close,
    down_masks,
    is_table_iso,
    members_of,
    principal_test_pairs,
    relabel,
)
from semirings.endo import elementary, identity_map, transpose, zero_map
from semirings.errors import ValidationError
from semirings.lattice import _least_relabelling, _mask_join, dual, lattice_iso
from semirings.semimodule import Semimodule
from semirings.semiring import FiniteSemiring, opposite, validate_semiring


def boolean_semiring():
    """Two elements, 1 + 1 = 1 and 1 * 1 = 1 (the max/and semiring)."""
    return validate_semiring([[0, 1], [1, 1]], [[0, 0], [0, 1]], 0, name="boolean")


def two_element_trivial_mul():
    """Two elements with idempotent addition and all products zero."""
    return validate_semiring([[0, 1], [1, 1]], [[0, 0], [0, 0]], 0, name="two_trivial")


def field_f2():
    """The two-element field viewed as a semiring (addition is xor)."""
    return validate_semiring([[0, 1], [1, 0]], [[0, 0], [0, 1]], 0, name="f2")


def close_subset(r, seed):
    """Least subset containing seed and zero, closed under + and *, as a
    frozenset: ``closure.close`` over the translation tables."""
    return frozenset(members_of(close(0, (r.zero, *seed), (r.add, r.mul, r.mul_t))))


def center(r):
    """Elements commuting multiplicatively with everything."""
    return [x for x in range(r.n)
            if all(r.mul[x][a] == r.mul[a][x] for a in range(r.n))]


def product_semiring(r1, r2):
    """Direct product; element (x, y) is encoded as x * r2.n + y."""
    pairs = list(itertools.product(range(r1.n), range(r2.n)))  # (x, y) is x * r2.n + y

    def table(t1, t2):
        return tuple(tuple(t1[x1][x2] * r2.n + t2[y1][y2] for x2, y2 in pairs)
                     for x1, y1 in pairs)

    # the axioms hold componentwise
    return FiniteSemiring(table(r1.add, r2.add), table(r1.mul, r2.mul))


def restrict(r, subset):
    """Subsemiring on a closed subset containing zero, reindexed sorted,
    its tables by ``closure.relabel``.

    ``ValidationError`` is raised when the subset lacks the zero or is not
    closed under + and *."""
    members = sorted(subset)
    index = {m: i for i, m in enumerate(members)}
    if r.zero not in index:
        raise ValidationError("subset does not contain the zero")
    try:
        return FiniteSemiring(relabel(r.add, members, members, index),
                              relabel(r.mul, members, members, index))
    except KeyError:
        raise ValidationError("subset is not closed under + and *") from None


def check_iso(r1, r2, mapping, anti=False):
    """Whether ``mapping`` is an isomorphism of r1 onto r2 (onto
    ``opposite(r2)`` when ``anti``), by ``closure.is_table_iso`` on the
    translation tables."""
    target = opposite(r2) if anti else r2
    return is_table_iso(mapping, (r1.add, r1.mul, r1.mul_t), r1.zero,
                        (target.add, target.mul, target.mul_t), target.zero)


def pointwise_join(lat, f, g):
    join = lat.join
    return tuple(join[a][b] for a, b in zip(f, g))


def identity_is_elementary_sum(lat):
    """Whether the identity is the pointwise join of all elementary maps
    lying below it.  Holds exactly when the dense subsemiring is unique."""
    ident = identity_map(lat)
    acc = zero_map(lat)
    join = lat.join
    for a in range(lat.n):
        for b in range(lat.n):
            e = elementary(lat, a, b)
            if all(join[e[x]][x] == x for x in range(lat.n)):
                acc = pointwise_join(lat, acc, e)
    return acc == ident


def natural_module(sub):
    """A subsemiring of End(M) acting on M by application."""
    lat = sub.lattice
    # endomorphisms act on a lattice, its zero neutral, as a module
    return Semimodule(sub.to_semiring(), lat.join, sub.sorted_members())


def canon_join_table(join, n):
    """The canonical join table of the lattice ``join`` on 0..n-1:
    ``lattice._least_relabelling`` with the bitmasks of its order."""
    if n == 1:
        return ((0,),)
    down = down_masks(join)
    up = [sum(1 << y for y in range(n) if down[y] >> x & 1) for x in range(n)]
    return _least_relabelling(join, n, up, down)


def reference_is_distributive(lat):
    """Whether meet distributes over join for all triples, read off the
    meet table: the test ``lattice.is_distributive`` replaced."""
    join, mt, n = lat.join, lat.meet_table, lat.n
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if mt[x][join[y][z]] != join[mt[x][y]][mt[x][z]]:
                    return False
    return True


def lower_meet(lat, a):
    """Meet of every element not below a (top when that set is empty)."""
    # the top is the identity of meet, as the zero is of join
    return _mask_join(lat.meet_table, ((1 << lat.n) - 1) & ~lat.down[a], lat.top)


def reference_condition_d(lat):
    """Whether every z is the join, over all a with z not<= a, of
    ``lower_meet(lat, a)``: the test ``lattice.condition_d`` replaced,
    which joins over the meet-irreducible a alone."""
    n = lat.n
    join = lat.join
    b = [lower_meet(lat, a) for a in range(n)]
    for z in range(n):
        acc = lat.zero
        for a in range(n):
            if not lat.leq(z, a):
                acc = join[acc][b[a]]
        if acc != z:
            return False
    return True


def covering_pairs_by_definition(lat):
    """The pairs (c, b) with c < b and no x such that c < x < b, by b and
    then by c."""
    n, leq = lat.n, lat.leq
    return [(c, b) for b in range(n) for c in range(n) if c != b and leq(c, b)
            and not any(x not in (b, c) and leq(c, x) and leq(x, b) for x in range(n))]


def fold_irreducibles(lat):
    """(meet-irreducibles, join-irreducibles) by folding strict up- and
    down-sets, the test ``lattice.irreducibles`` replaced in
    ``homomorphism_rows`` and ``is_distributive``: j is join-irreducible
    iff the join of the elements strictly below it (the zero when there
    are none) is not j, and a meet-irreducible iff the meet of the
    elements strictly above it (the top when there are none) is not a."""
    n, down = lat.n, lat.down
    joins = [j for j in range(n) if _mask_join(lat.join, down[j] & ~(1 << j), lat.zero) != j]
    ups = [sum(1 << y for y in range(n) if down[y] >> a & 1 and y != a) for a in range(n)]
    # the top is the identity of meet, as the zero is of join
    meets = [a for a in range(n) if _mask_join(lat.meet_table, ups[a], lat.top) != a]
    return meets, joins


def counted_irreducibles(lat):
    """(meet-irreducibles, join-irreducibles) as the elements that are
    the lower end of one pair of ``closure.principal_test_pairs`` and
    those that are the upper end of one, the count ``lattice.irreducibles``
    replaced in ``endo._dense_span`` and ``lattice._reconstruction_sets``."""
    pairs = principal_test_pairs(lat.join)
    uppers = collections.Counter(c for c, _ in pairs)
    lowers = collections.Counter(b for _, b in pairs)
    return ([a for a in range(lat.n) if uppers[a] == 1],
            [b for b in range(lat.n) if lowers[b] == 1])


def reference_find_one(r):
    """The first two-sided multiplicative identity, or None, by trying
    each element: the search ``semiring.structure_flags`` replaced."""
    for e in range(r.n):
        if all(r.mul[e][x] == x and r.mul[x][e] == x for x in range(r.n)):
            return e
    return None


def commutative_monoids(n):
    """The commutative monoids on ``range(n)`` with identity 0, one per
    class of relabellings that fix 0: the least addition table of each
    class, as a tuple of rows, in ascending order."""
    others = range(1, n)
    cells = list(itertools.combinations_with_replacement(others, 2))
    orders = [(0, *p) for p in itertools.permutations(others)]  # old label at each new one
    found = set()
    for values in itertools.product(range(n), repeat=len(cells)):
        add = [list(range(n))] + [[x] + [0] * (n - 1) for x in others]
        for (x, y), v in zip(cells, values):
            add[x][y] = add[y][x] = v
        if all(add[add[x][y]][z] == add[x][add[y][z]]
               for x, y, z in itertools.product(others, repeat=3)):
            found.add(min(relabel(add, q, q, sorted(range(n), key=q.__getitem__))
                          for q in orders))
    return sorted(found)


def semirings_with_zero(n):
    """Every semiring with zero 0 on ``range(n)`` whose addition is one of
    ``commutative_monoids(n)``.

    A multiplication is a map φ from S to the additive endomorphisms, x·y
    = φ(x)(y): left distributivity and x·0 = 0 say that each φ(x) is an
    additive endomorphism, right distributivity that φ is additive, 0·x =
    0 that φ(0) is the zero map, and associativity, φ(x·y)(z) =
    φ(x)(φ(y)(z)), that φ(φ(x)(y)) = φ(x)∘φ(y)."""
    others = range(1, n)
    pairs = list(itertools.product(others, repeat=2))
    for add in commutative_monoids(n):
        ends = [e for e in itertools.product(range(n), repeat=n)
                if e[0] == 0 and all(e[add[x][y]] == add[e[x]][e[y]] for x, y in pairs)]
        for images in itertools.product(ends, repeat=n - 1):
            phi = ((0,) * n, *images)
            if all(phi[add[x][y]] == tuple(add[a][b] for a, b in zip(phi[x], phi[y]))
                   for x, y in pairs) and all(
                    phi[phi[x][y]] == tuple(phi[x][v] for v in phi[y]) for x, y in pairs):
                yield FiniteSemiring(add, phi)


def conjugate(s, maps):
    """The frozenset of the maps s∘f∘s⁻¹ for f in ``maps``, for a bijection
    ``s`` given by its image tuple."""
    inverse = sorted(range(len(s)), key=s.__getitem__)
    return frozenset(tuple([s[f[x]] for x in inverse]) for f in maps)


def reference_orbit_reports(lat, families):
    """The reports of ``catalog.member_reports`` in the representation it
    replaced: each member a frozenset of image tuples, conjugated tuple by
    tuple once per automorphism, its orbit (a frozenset of those sets) the
    class key, and the conjugated transposes looked up in the orbit."""
    end = families[0].members  # End(M) is dense: the top of the family
    autos = [f for f in end if len(set(f)) == lat.n]
    flip = lattice_iso(dual(lat), lat)
    transposed = {f: transpose(lat, f) for f in end}
    ident = identity_map(lat)
    classes = {}
    reports = []
    for s in families:
        orbit = frozenset(conjugate(a, s.members) for a in autos)
        self_anti = flip is not None and conjugate(
            flip.mapping, map(transposed.__getitem__, s.members)) in orbit
        reports.append(MemberReport(order=s.size, has_one=ident in s.members,
                                    self_anti_iso=self_anti,
                                    iso_class=classes.setdefault(orbit, len(classes))))
    return tuple(reports)
