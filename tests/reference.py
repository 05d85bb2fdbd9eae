"""Helpers the tests share that no command, exported name or benchmark
workload of the package calls: products and restrictions of semirings,
their centers, a check of a given isomorphism, the pointwise join of two
maps, the natural module of a subsemiring of End(M), the canonical
join table of one lattice, and distributivity by its definition."""

import itertools

from semirings.closure import down_masks, is_table_iso, relabel
from semirings.endo import elementary, identity_map, zero_map
from semirings.errors import ValidationError
from semirings.lattice import _least_relabelling
from semirings.semimodule import Semimodule
from semirings.semiring import FiniteSemiring, opposite


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
