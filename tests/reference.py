"""Helpers the tests share that no command, exported name or benchmark
workload of the package calls: three two-element semirings, products and
restrictions of semirings, their centers, a check of a given isomorphism,
the pointwise join of two maps, the natural module of a subsemiring of
End(M), the canonical join table of one lattice, distributivity by its
definition, the least subsemiring holding given elements, and every
semiring with zero of a small order."""

import itertools

from semirings.closure import close, down_masks, is_table_iso, members_of, relabel
from semirings.endo import elementary, identity_map, zero_map
from semirings.errors import ValidationError
from semirings.lattice import _least_relabelling
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
