"""Abstract finite semirings as a pair of Cayley tables.

Congruences are partitions compatible with both operations; simplicity is
decided by closing the principal congruence of each covering pair of the
additive order (of every pair, when addition is not idempotent) and
checking it is total.  That closure is the union-find of
``closure.close_congruence`` over the tables ``add``, ``mul`` and
``mul_t``, stopped as soon as the congruence is total: with idempotent
addition, as soon as it relates the zero and the top of the additive
order (``closure.zero_top_pair``), since x = x + 0 θ x + top = top.
A given partition is checked against the same tables by
``closure.compatible``, and isomorphisms are found and checked on them by
the one isomorphism search and the one isomorphism check of the package,
``closure.table_iso`` and ``closure.is_table_iso``; an anti-isomorphism
is an isomorphism onto the opposite semiring.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .closure import (
    close,
    close_congruence,
    closed_sets,
    compatible,
    idempotent,
    is_table_iso,
    only_total_principals,
    table_iso,
)
from .errors import (
    AddNotAssociative,
    AddNotCommutative,
    BadZero,
    LeftDistFail,
    LineReader,
    MulNotAssociative,
    NotCompatible,
    ParseError,
    RightDistFail,
    ValidationError,
    ZeroNotAbsorbing,
    check_table,
)
from .lattice import validate_lattice


class FiniteSemiring:
    __slots__ = ("n", "add", "mul", "zero", "name", "_mul_t")

    def __init__(self, n, add, mul, zero, name=None):
        self.n = n
        self.add = add
        self.mul = mul
        self.zero = zero
        self.name = name
        self._mul_t = None

    @property
    def mul_t(self):
        """Columns of the multiplication table (x -> a*x profiles)."""
        if self._mul_t is None:
            self._mul_t = tuple(zip(*self.mul))
        return self._mul_t

    def __eq__(self, other):
        if not isinstance(other, FiniteSemiring):
            return NotImplemented
        return (self.n, self.zero, self.add, self.mul) == (
            other.n, other.zero, other.add, other.mul)

    def __hash__(self):
        return hash((self.n, self.zero, self.add, self.mul))

    def __repr__(self):
        label = self.name or f"semiring<{self.n}>"
        return f"FiniteSemiring({label}, n={self.n})"


@dataclass(frozen=True)
class Congruence:
    """Partition given as a block id per element, ids numbered by first use."""

    n: int
    blocks: tuple

    @classmethod
    def from_parents(cls, parents):
        n = len(parents)
        seen = {}
        blocks = []
        for x in range(n):
            r = x
            while parents[r] != r:
                r = parents[r]
            if r not in seen:
                seen[r] = len(seen)
            blocks.append(seen[r])
        return cls(n, tuple(blocks))

    @classmethod
    def generated(cls, n, pairs, tables):
        """Least partition of range(n) containing ``pairs`` and compatible
        with ``tables``, closed by ``closure.close_congruence``."""
        parent = list(range(n))
        close_congruence(parent, pairs, tables)
        return cls.from_parents(parent)

    @property
    def num_blocks(self):
        return max(self.blocks) + 1 if self.n else 0

    def is_identity(self):
        return self.num_blocks == self.n

    def is_total(self):
        return self.num_blocks <= 1

    def same(self, x, y):
        return self.blocks[x] == self.blocks[y]


def identity_congruence(n):
    return Congruence(n, tuple(range(n)))


def total_congruence(n):
    return Congruence(n, tuple(0 for _ in range(n)))


def validate_semiring(add, mul, zero, name=None):
    """Check all semiring axioms; raise the named axiom error on failure."""
    add = tuple(tuple(row) for row in add)
    mul = tuple(tuple(row) for row in mul)
    n = len(add)
    if len(mul) != n:
        raise ParseError("add and mul tables disagree in size")
    check_table(add, n)
    check_table(mul, n)
    if not (0 <= zero < n):
        raise BadZero("zero index out of range", (zero,))
    for x in range(n):
        if add[zero][x] != x:
            raise BadZero("zero + x != x", (x,))
        if mul[zero][x] != zero or mul[x][zero] != zero:
            raise ZeroNotAbsorbing("zero * x != zero", (x,))
        for y in range(x + 1, n):
            if add[x][y] != add[y][x]:
                raise AddNotCommutative("x + y != y + x", (x, y))
    for x in range(n):
        for y in range(n):
            axy = add[x][y]
            mxy = mul[x][y]
            for z in range(n):
                if add[axy][z] != add[x][add[y][z]]:
                    raise AddNotAssociative("(x+y)+z != x+(y+z)", (x, y, z))
                if mul[mxy][z] != mul[x][mul[y][z]]:
                    raise MulNotAssociative("(xy)z != x(yz)", (x, y, z))
                if mul[x][add[y][z]] != add[mxy][mul[x][z]]:
                    raise LeftDistFail("x(y+z) != xy+xz", (x, y, z))
                if mul[add[x][y]][z] != add[mul[x][z]][mul[y][z]]:
                    raise RightDistFail("(x+y)z != xz+yz", (x, y, z))
    return FiniteSemiring(n, add, mul, zero, name)


# ---------------------------------------------------------------------------
# congruence closure


def _translations(r):
    """Sums, right products and left products of each element."""
    return r.add, r.mul, r.mul_t


def principal_congruence(r, x, y):
    """Least congruence identifying x and y."""
    return Congruence.generated(r.n, [(x, y)], _translations(r))


def is_congruence_simple(r):
    """True iff every principal congruence on a distinct pair is total.

    Decided by ``closure.only_total_principals``: only the covering pairs
    of the additive order are closed (every pair when + is not idempotent),
    by the lemma of ``closure.principal_test_pairs``, and each closure
    stops once it relates the zero and the top of ``closure.zero_top_pair``.
    """
    return only_total_principals(r.add, r.zero, _translations(r))


def is_semiring_congruence(r, cong):
    """Whether ``cong`` is compatible with + and with both products; the
    left translations by + are the rows of ``add``, as + commutes."""
    return cong.n == r.n and compatible(cong.blocks, _translations(r))


def quotient_semiring(r, cong, name=None):
    """Semiring on the blocks of a congruence; raises NotCompatible."""
    if not is_semiring_congruence(r, cong):
        raise NotCompatible("partition is not a semiring congruence")
    k = cong.num_blocks
    reps = [None] * k
    for x in range(r.n):
        if reps[cong.blocks[x]] is None:
            reps[cong.blocks[x]] = x
    add = tuple(tuple(cong.blocks[r.add[a][b]] for b in reps) for a in reps)
    mul = tuple(tuple(cong.blocks[r.mul[a][b]] for b in reps) for a in reps)
    return validate_semiring(add, mul, cong.blocks[r.zero], name=name)


# ---------------------------------------------------------------------------
# structure


@dataclass(frozen=True)
class StructureFlags:
    is_ring: bool
    add_idempotent: bool
    has_one: bool
    one: object
    trivial_mul: bool
    absorbing: object


def find_one(r):
    for e in range(r.n):
        if all(r.mul[e][x] == x and r.mul[x][e] == x for x in range(r.n)):
            return e
    return None


def find_absorbing(r):
    for z in range(r.n):
        if all(r.add[z][x] == z for x in range(r.n)):
            return z
    return None


def structure_flags(r):
    is_ring = all(any(r.add[x][y] == r.zero for y in range(r.n)) for x in range(r.n))
    trivial = all(r.mul[x][y] == r.zero for x in range(r.n) for y in range(r.n))
    one = find_one(r)
    return StructureFlags(
        is_ring=is_ring,
        add_idempotent=idempotent(r.add),
        has_one=one is not None,
        one=one,
        trivial_mul=trivial,
        absorbing=find_absorbing(r),
    )


def center(r):
    """Elements commuting multiplicatively with everything."""
    return [x for x in range(r.n)
            if all(r.mul[x][a] == r.mul[a][x] for a in range(r.n))]


def additive_reachability_congruence(r):
    """Relate x ~ y when a multiple of each lands in the other's additive
    translate R + element.  Always a congruence; on a congruence-simple
    semiring it is the identity (idempotent addition) or total (a ring).
    """
    n = r.n
    add = r.add
    orbits = []
    for x in range(n):
        seen = set()
        cur = r.zero
        while cur not in seen:
            seen.add(cur)
            cur = add[cur][x]
        orbits.append(seen)
    translate = [frozenset(add[a][x] for a in range(n)) for x in range(n)]
    pairs = [(x, y) for x in range(n) for y in range(x + 1, n)
             if orbits[x] & translate[y] and orbits[y] & translate[x]]
    return Congruence.generated(n, pairs, ())


def recover_monoid(r):
    """Rebuild the underlying lattice from an additively idempotent semiring
    with an additively absorbing element z, as the submonoid {r*z}.

    Returns None when no absorbing element exists or addition is not
    idempotent.
    """
    z = find_absorbing(r)
    if z is None:
        return None
    if not idempotent(r.add):
        return None
    members = sorted({r.mul[x][z] for x in range(r.n)})
    index = {m: i for i, m in enumerate(members)}
    table = tuple(tuple(index[r.add[a][b]] for b in members) for a in members)
    return validate_lattice(table, zero=index[r.zero])


def opposite(r):
    """Same addition, reversed multiplication."""
    name = None if r.name is None else r.name + "^op"
    return FiniteSemiring(r.n, r.add, r.mul_t, r.zero, name)


def product_semiring(r1, r2):
    """Direct product; element (x, y) is encoded as x * r2.n + y."""
    n = r1.n * r2.n
    def enc(x, y):
        return x * r2.n + y
    add = [[0] * n for _ in range(n)]
    mul = [[0] * n for _ in range(n)]
    for x1, y1 in itertools.product(range(r1.n), range(r2.n)):
        for x2, y2 in itertools.product(range(r1.n), range(r2.n)):
            add[enc(x1, y1)][enc(x2, y2)] = enc(r1.add[x1][x2], r2.add[y1][y2])
            mul[enc(x1, y1)][enc(x2, y2)] = enc(r1.mul[x1][x2], r2.mul[y1][y2])
    return validate_semiring(add, mul, enc(r1.zero, r2.zero))


def restrict(r, subset, name=None):
    """Subsemiring on a closed subset containing zero, reindexed sorted.

    ``ValidationError`` is raised when the subset lacks the zero or is not
    closed under + and *."""
    members = sorted(subset)
    index = {m: i for i, m in enumerate(members)}
    if r.zero not in index:
        raise ValidationError("subset does not contain the zero")
    try:
        add = tuple(tuple(index[r.add[a][b]] for b in members) for a in members)
        mul = tuple(tuple(index[r.mul[a][b]] for b in members) for a in members)
    except KeyError:
        raise ValidationError("subset is not closed under + and *") from None
    return FiniteSemiring(len(members), add, mul, index[r.zero], name)


def _products(r):
    """Sum and both products of two elements."""
    add, mul = r.add, r.mul

    def products(x, y):
        return add[x][y], mul[x][y], mul[y][x]

    return products


def close_subset(r, seed):
    """Least subset containing seed and zero, closed under + and *."""
    return close(frozenset(), (r.zero, *seed), _products(r))


def subsemirings(r):
    """All subsets containing zero closed under both operations.

    Walks the closed-set lattice upward from the closure of {zero};
    deterministic order by (size, member tuple).
    """
    return closed_sets(close_subset(r, ()), range(r.n), _products(r), noun="subsemirings")


# ---------------------------------------------------------------------------
# isomorphism and anti-isomorphism


def semiring_iso(r1, r2):
    """The image tuple of a zero-preserving bijection respecting + and *,
    or None; found by ``closure.table_iso`` on the translation tables."""
    return table_iso(_translations(r1), r1.zero, _translations(r2), r2.zero)


def semiring_anti_iso(r1, r2):
    """Additive iso reversing multiplication, found as iso onto opposite."""
    return semiring_iso(r1, opposite(r2))


def check_iso(r1, r2, mapping, anti=False):
    """Whether ``mapping`` is an isomorphism of r1 onto r2 (onto
    ``opposite(r2)`` when ``anti``), by ``closure.is_table_iso``."""
    target = opposite(r2) if anti else r2
    return is_table_iso(mapping, _translations(r1), r1.zero, _translations(target), target.zero)


# ---------------------------------------------------------------------------
# text format ".sr": n, optional name, zero, add rows, blank line, mul rows


def parse_sr(text):
    reader = LineReader(text)
    n = reader.count("n")
    name = reader.name()
    zero = reader.int_field("zero", "index", "bad zero index")
    add = tuple(reader.row(n, "table entry") for _ in range(n))
    mul = tuple(reader.row(n, "table entry") for _ in range(n))
    return validate_semiring(add, mul, zero, name=name)


def serialize_sr(r):
    lines = [f"n {r.n}"]
    if r.name is not None:
        lines.append(f"name {r.name}")
    lines.append(f"zero {r.zero}")
    for row in r.add:
        lines.append(" ".join(str(v) for v in row))
    lines.append("")
    for row in r.mul:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"
