"""Abstract finite semirings as a pair of Cayley tables.

Congruences are partitions compatible with both operations; simplicity is
decided by closing the principal congruence of each covering pair of the
additive order (of every pair, when addition is not idempotent) and
checking it is total.  That closure is the union-find of
``closure.close_congruence`` over the tables ``add``, ``mul`` and
``mul_t``, stopped as soon as the congruence is total: with idempotent
addition, as soon as it relates the zero and the top of the additive
order (``closure.zero_top_pair``), since x = x + 0 θ x + top = top.
A given partition is compatible exactly when closing the pairs that
generate it gives it back.  Isomorphisms are found on the same tables by
the one isomorphism search of the package, ``closure.table_iso``; an
anti-isomorphism is an isomorphism onto the opposite semiring.
"""

from __future__ import annotations

from dataclasses import dataclass

from .closure import (
    absorbing,
    close,
    close_congruence,
    closed_sets,
    idempotent,
    identity,
    only_total_principals,
    relabel,
    table_iso,
)
from .errors import (
    LineReader,
    ParseError,
    ValidationError,
    associative_cases,
    check_axiom,
    check_table,
    commutative_cases,
    format_tables,
)
from .lattice import FiniteLattice


class FiniteSemiring:
    """Cayley tables ``add`` and ``mul`` on 0..n-1, n = len(add), kept as
    tuples of tuple rows, with ``zero`` the additive identity read from
    ``add`` by ``closure.identity``; unchecked."""

    __slots__ = ("n", "add", "mul", "zero", "name")

    def __init__(self, add, mul, name=None):
        add = tuple(map(tuple, add))  # list rows would not match tuple rows
        self.n = len(add)
        self.add = add
        self.mul = tuple(map(tuple, mul))
        self.zero = identity(add)
        self.name = name

    @property
    def mul_t(self):
        """The columns of ``mul`` (row a holds x * a for each x), zipped
        on each read: most semirings never need them."""
        return tuple(zip(*self.mul))

    def __eq__(self, other):
        if not isinstance(other, FiniteSemiring):
            return NotImplemented
        return (self.add, self.mul) == (other.add, other.mul)

    def __hash__(self):
        return hash((self.add, self.mul))

    def __repr__(self):
        label = self.name or f"semiring<{self.n}>"
        return f"FiniteSemiring({label}, n={self.n})"


@dataclass(frozen=True)
class Congruence:
    """Partition of 0..n-1 given by one hashable label per element, n the
    number of labels.  ``blocks`` numbers the blocks 0..k-1 by first use,
    so any two labellings of one partition give equal congruences."""

    blocks: tuple

    def __init__(self, labels):
        ids = {}
        object.__setattr__(self, "blocks", tuple([ids.setdefault(b, len(ids)) for b in labels]))

    @classmethod
    def generated(cls, n, pairs, tables):
        """Least partition of range(n) containing ``pairs`` and compatible
        with ``tables``, closed by ``closure.close_congruence``."""
        labels = close_congruence(n, pairs, tables)
        return cls([0] * n if labels is None else labels)

    @property
    def n(self):
        return len(self.blocks)

    @property
    def reps(self):
        """The first element of each block, indexed by block id."""
        reps = [None] * self.num_blocks
        for x in reversed(range(self.n)):
            reps[self.blocks[x]] = x
        return reps

    @property
    def pairs(self):
        """Pairs (first element of its block, x) that generate the
        partition as an equivalence."""
        reps = self.reps
        return [(reps[b], x) for x, b in enumerate(self.blocks) if reps[b] != x]

    @property
    def num_blocks(self):
        return max(self.blocks) + 1 if self.n else 0

    def is_identity(self):
        return self.num_blocks == self.n

    def is_total(self):
        return self.num_blocks <= 1

    def same(self, x, y):
        return self.blocks[x] == self.blocks[y]


def validate_semiring(add, mul, zero, name=None):
    """The FiniteSemiring of two Cayley tables from outside the package.

    After the shape checks, ``errors.check_axiom`` checks seven axioms in
    this order, each raising ``ValidationError`` on the first witness:
    zero + x = x, zero * x = zero = x * zero, x + y = y + x,
    (x + y) + z = x + (y + z), (xy)z = x(yz), x(y + z) = xy + xz and
    (x + y)z = xz + yz.
    """
    add = tuple(tuple(row) for row in add)
    mul = tuple(tuple(row) for row in mul)
    n = len(add)
    if len(mul) != n:
        raise ParseError("add and mul tables disagree in size")
    check_table(add, n)
    check_table(mul, n)
    if not (0 <= zero < n):
        raise ValidationError("zero index out of range", (zero,))
    cells = range(n)
    check_axiom("zero + x != x", [((), add[zero], tuple(cells))])
    both_sides = tuple(zip(mul[zero], [row[zero] for row in mul]))
    check_axiom("zero * x != zero", [((), both_sides, ((zero, zero),) * n)])
    check_axiom("x + y != y + x", commutative_cases(add))
    check_axiom("(x+y)+z != x+(y+z)", associative_cases(add))
    check_axiom("(xy)z != x(yz)", associative_cases(mul))
    check_axiom("x(y+z) != xy+xz", (
        ((x, y), tuple(map(mul[x].__getitem__, add[y])), tuple(map(add[v].__getitem__, mul[x])))
        for x in cells for y, v in enumerate(mul[x])))
    check_axiom("(x+y)z != xz+yz", (
        ((x, y), mul[v], tuple(add[a][b] for a, b in zip(mul[x], mul[y])))
        for x in cells for y, v in enumerate(add[x])))
    # zero + x = x makes the declared zero the identity of add
    return FiniteSemiring(add, mul, name)


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
    left translations by + are the rows of ``add``, as + commutes.  By the
    last lemma of ``closure.close_congruence``, it is exactly when the
    closure of ``cong.pairs`` is ``cong``."""
    return cong.n == r.n and Congruence.generated(r.n, cong.pairs, _translations(r)) == cong


def quotient_semiring(r, cong):
    """Semiring on the blocks of a congruence; raises ValidationError."""
    if not is_semiring_congruence(r, cong):
        raise ValidationError("partition is not a semiring congruence")
    # a quotient by a compatible partition satisfies every axiom r does
    keep, label = cong.reps, cong.blocks
    return FiniteSemiring(relabel(r.add, keep, keep, label), relabel(r.mul, keep, keep, label))


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
        absorbing=absorbing(r.add),
    )


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


def absorbing_ideal(r):
    """The left ideal R·z of the additively absorbing element z
    (``closure.absorbing``), as the sorted elements {x·z}; None when
    addition is not idempotent, the only case in which z may not exist.

    It is a submonoid of the addition, x·z + y·z = (x+y)·z and 0·z = 0,
    and stable under left multiplication, s·(x·z) = (s·x)·z: a left
    submodule of the regular module, and with idempotent addition a
    lattice (``recover_monoid``).
    """
    if not idempotent(r.add):
        return None
    z = absorbing(r.add)
    return sorted({row[z] for row in r.mul})


def recover_monoid(r):
    """Rebuild the underlying lattice from an additively idempotent semiring
    with an additively absorbing element z, as the addition of R·z
    (``absorbing_ideal``).

    Returns None when addition is not idempotent.
    """
    ideal = absorbing_ideal(r)
    if ideal is None:
        return None
    index = {m: i for i, m in enumerate(ideal)}
    # R·z is a submonoid of the idempotent addition, so a lattice
    return FiniteLattice(relabel(r.add, ideal, ideal, index))


def opposite(r):
    """Same addition, reversed multiplication."""
    name = None if r.name is None else r.name + "^op"
    return FiniteSemiring(r.add, r.mul_t, name)


def close_subset(r, seed):
    """Least subset containing seed and zero, closed under + and *."""
    return close(frozenset(), (r.zero, *seed), _translations(r))


def subsemirings(r):
    """All subsets containing zero closed under both operations.

    Walks the closed-set lattice upward from the closure of {zero};
    deterministic order by (size, member tuple).
    """
    tables = _translations(r)
    return closed_sets(close_subset(r, ()), range(r.n),
                       lambda s, x: close(s, (x,), tables, floor=x), noun="subsemirings")


# ---------------------------------------------------------------------------
# isomorphism and anti-isomorphism


def semiring_iso(r1, r2):
    """The image tuple of a zero-preserving bijection respecting + and *,
    or None; found by ``closure.table_iso`` on the translation tables."""
    return table_iso(_translations(r1), r1.zero, _translations(r2), r2.zero)


def semiring_anti_iso(r1, r2):
    """Additive iso reversing multiplication, found as iso onto opposite."""
    return semiring_iso(r1, opposite(r2))


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
    name = [] if r.name is None else [f"name {r.name}"]
    return format_tables([f"n {r.n}", *name, f"zero {r.zero}"], r.add, r.mul)
