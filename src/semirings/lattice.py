"""Finite idempotent commutative monoids, i.e. finite lattices.

A lattice is stored as an explicit n x n join table over element indices
0..n-1.  The partial order is derived (x <= y iff x + y = y), the meet is
the join of all common lower bounds, and the top element is the join of
everything.  All values are immutable after validation.  Isomorphisms are
found and checked by the one isomorphism search and the one isomorphism
check of the package, ``closure.table_iso`` and ``closure.is_table_iso``,
on the join tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .closure import is_table_iso, table_iso
from .errors import (
    BadZero,
    LimitExceeded,
    LineReader,
    NotAssociative,
    NotCommutative,
    NotDistributive,
    NotIdempotent,
    check_table,
)

ENUM_HARD_LIMIT = 7


class FiniteLattice:
    """Validated join table plus derived order data.

    ``down[x]`` is the bitmask of elements <= x; ``zero`` is the neutral
    element and ``top`` the absorbing one.  Instances hash and compare by
    their table, so they can be used as set members and dict keys.
    """

    __slots__ = ("n", "join", "zero", "top", "down", "name", "_meet")

    def __init__(self, n, join, zero, top, down, name=None):
        self.n = n
        self.join = join
        self.zero = zero
        self.top = top
        self.down = down
        self.name = name
        self._meet = None

    def leq(self, x, y):
        return (self.down[y] >> x) & 1 == 1

    @property
    def meet_table(self):
        if self._meet is None:
            self._meet = tuple(
                tuple(_mask_join(self.join, self.down[x] & self.down[y], self.zero)
                      for y in range(self.n))
                for x in range(self.n)
            )
        return self._meet

    def meet(self, x, y):
        """Infimum: the join of all common lower bounds of x and y."""
        return self.meet_table[x][y]

    def __eq__(self, other):
        if not isinstance(other, FiniteLattice):
            return NotImplemented
        return self.n == other.n and self.zero == other.zero and self.join == other.join

    def __hash__(self):
        return hash((self.n, self.zero, self.join))

    def __repr__(self):
        label = self.name or f"lattice<{self.n}>"
        return f"FiniteLattice({label}, n={self.n})"


@dataclass(frozen=True)
class LatticeIso:
    """Witness for an isomorphism: ``mapping[x]`` is the image of x."""

    source: FiniteLattice
    target: FiniteLattice
    mapping: tuple

    def check(self):
        src, dst = self.source, self.target
        return is_table_iso(self.mapping, (src.join,), src.zero, (dst.join,), dst.zero)


def _mask_join(join, mask, zero):
    acc = zero
    x = 0
    while mask:
        if mask & 1:
            acc = join[acc][x]
        mask >>= 1
        x += 1
    return acc


def validate_lattice(join_table, zero=0, name=None):
    """Check the idempotent-commutative-monoid axioms and derive order data.

    Raises NotCommutative / NotAssociative / NotIdempotent / BadZero with a
    witness naming the offending elements.
    """
    join = tuple(tuple(row) for row in join_table)
    n = len(join)
    if n == 0:
        raise BadZero("empty table")
    check_table(join, n)
    if not (0 <= zero < n):
        raise BadZero("zero index out of range", (zero,))
    for x in range(n):
        if join[x][x] != x:
            raise NotIdempotent("x + x != x", (x,))
        if join[zero][x] != x:
            raise BadZero("zero + x != x", (x,))
        for y in range(x + 1, n):
            if join[x][y] != join[y][x]:
                raise NotCommutative("x + y != y + x", (x, y))
    for x in range(n):
        for y in range(n):
            jxy = join[x][y]
            for z in range(n):
                if join[jxy][z] != join[x][join[y][z]]:
                    raise NotAssociative("(x+y)+z != x+(y+z)", (x, y, z))
    down = [0] * n
    for y in range(n):
        for x in range(n):
            if join[x][y] == y:
                down[y] |= 1 << x
    top = 0
    for x in range(n):
        top = join[top][x]
    return FiniteLattice(n, join, zero, top, tuple(down), name)


def dual(lat):
    """Order-reversed lattice: joins become meets, zero becomes top."""
    name = None if lat.name is None else lat.name + "~"
    return validate_lattice(lat.meet_table, zero=lat.top, name=name)


def hom_to_l2(lat):
    """All monoid homomorphisms into the two-element lattice ({0,1}, max).

    Returns (hom lattice H, e_index, homs) where homs[i] is the i-th
    homomorphism as a 0/1 image tuple, H is the lattice they form under
    pointwise max, and e_index[a] locates the map x -> 0 iff x <= a.
    The indexing a -> e_index[a] is a bijection.
    """
    n = lat.n
    join = lat.join
    homs = []
    for bits in range(1 << n):
        img = tuple((bits >> x) & 1 for x in range(n))
        if img[lat.zero] != 0:
            continue
        ok = True
        for x in range(n):
            for y in range(x, n):
                if img[join[x][y]] != (img[x] | img[y]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            homs.append(img)
    homs.sort()
    index = {h: i for i, h in enumerate(homs)}
    table = tuple(
        tuple(index[tuple(a | b for a, b in zip(f, g))] for g in homs)
        for f in homs
    )
    hom_lat = validate_lattice(table, zero=index[tuple(0 for _ in range(n))])
    e_index = tuple(
        index[tuple(0 if lat.leq(x, a) else 1 for x in range(n))]
        for a in range(n)
    )
    return hom_lat, e_index, tuple(homs)


def is_distributive(lat):
    """True iff meet distributes over join for all triples."""
    join, mt, n = lat.join, lat.meet_table, lat.n
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if mt[x][join[y][z]] != join[mt[x][y]][mt[x][z]]:
                    return False
    return True


def lower_meet(lat, a):
    """Meet of every element not below a (top when that set is empty)."""
    mask = ((1 << lat.n) - 1) & ~lat.down[a]
    if mask == 0:
        return lat.top
    acc = None
    x = 0
    mt = lat.meet_table
    while mask:
        if mask & 1:
            acc = x if acc is None else mt[acc][x]
        mask >>= 1
        x += 1
    return acc


def condition_d(lat):
    """Pointwise reconstruction criterion equivalent to distributivity.

    Checks that every z equals the join, over all a with z not<= a, of the
    meet of all elements not below a.  Exactly the lattices passing this
    have a unique dense subsemiring in their endomorphism semiring.
    """
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


def embed_ring_of_sets(lat):
    """Represent a distributive lattice as a family of sets.

    Returns (omega, phi) with phi[z] a frozenset of lattice elements;
    phi is injective and turns joins into unions and meets into
    intersections.  Raises NotDistributive otherwise.
    """
    if not condition_d(lat):
        raise NotDistributive("lattice fails the reconstruction criterion")
    n = lat.n
    b = [lower_meet(lat, a) for a in range(n)]
    phi = tuple(
        frozenset(b[a] for a in range(n) if not lat.leq(z, a) and b[a] != lat.zero)
        for z in range(n)
    )
    omega = frozenset().union(*phi) if n else frozenset()
    return omega, phi


# ---------------------------------------------------------------------------
# isomorphism testing


def lattice_iso(lat1, lat2):
    """An isomorphism of join tables fixing the zero, found by
    ``closure.table_iso``; a LatticeIso witness or None."""
    mapping = table_iso((lat1.join,), lat1.zero, (lat2.join,), lat2.zero)
    return None if mapping is None else LatticeIso(lat1, lat2, mapping)


# ---------------------------------------------------------------------------
# enumeration of all lattices up to isomorphism
#
# Strategy.  Removing a coatom from a finite lattice with at least three
# elements leaves a lattice, so every lattice of size n >= 3 is a lattice
# of size n - 1 with one new coatom added (Heitzig and Reinhold, "Counting
# finite lattices", Algebra Universalis 48, 2002, also grow lattices from
# lattices one element at a time).  Each class is held as its canonical
# join table, in which the bottom is 0 and the top the last element; the
# classes of size n are the canonical tables of the coatom extensions of
# the classes of size n - 1.  No poset that is not a lattice is built.


def _poset_colors(up, down, n):
    colors = [(bin(down[x]).count("1"), bin(up[x]).count("1")) for x in range(n)]
    for _ in range(n):
        sig = []
        for x in range(n):
            below = sorted(colors[y] for y in range(n) if (down[x] >> y) & 1)
            above = sorted(colors[y] for y in range(n) if (up[x] >> y) & 1)
            sig.append((colors[x], tuple(below), tuple(above)))
        ranks = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [ranks[s] for s in sig]
        if all((colors[x] == colors[y]) == (new[x] == new[y])
               for x in range(n) for y in range(n)):
            return new
        colors = new
    return colors


def _admissible_perms(colors, n):
    groups = {}
    for x in range(n):
        groups.setdefault(colors[x], []).append(x)
    keys = sorted(groups)
    slots = []
    start = 0
    for k in keys:
        slots.append((groups[k], start))
        start += len(groups[k])
    for choice in itertools.product(*[itertools.permutations(g) for g, _ in slots]):
        perm = [0] * n
        for (g, base), ordering in zip(slots, choice):
            for offset, x in enumerate(ordering):
                perm[x] = base + offset
        yield perm


def _coatom_extensions(join, n):
    """Join tables of size n that add a coatom to the lattice ``join`` of
    size n - 1 >= 2 (bottom 0, top n - 2): bottom 0, new coatom n - 2,
    top n - 1.

    Lemma.  A coatom m of a lattice with at least 3 elements can be
    removed: two elements whose join was m then have only the top above
    them, so the rest is a lattice.  Hence every lattice of size n arises
    from one of size n - 1 by adding a coatom m below the old top t whose
    strict down-set D is a down-set of the elements other than t that
    contains the bottom.  Such a D gives a lattice iff every two elements
    of D join inside D or at t; otherwise that join and m are two
    incomparable least upper bounds.  In the new table a join that was t
    becomes m inside D and the top elsewhere, and x + m is m for x in D
    and the top otherwise.
    """
    k = n - 2  # the elements other than t are 0..k-1; m takes t's index k
    top = n - 1
    down = [sum(1 << y for y in range(k) if join[y][x] == x) for x in range(k)]
    for d in range(1, 1 << k, 2):
        inside = [x for x in range(k) if d >> x & 1]
        if any(down[x] & ~d for x in inside) or any(
                join[x][y] < k and not d >> join[x][y] & 1
                for x in inside for y in inside):
            continue
        up = [k if d >> x & 1 else top for x in range(k)]  # x + m
        rows = [[v if v < k else max(up[x], up[y]) for y, v in enumerate(row[:k])]
                + [up[x], top] for x, row in enumerate(join[:k])]
        yield rows + [up + [k, top], [top] * n]


def _canon_join_table(join, n):
    up = [0] * n
    down = [0] * n
    for x in range(n):
        for y in range(n):
            if join[x][y] == y:
                up[x] |= 1 << y
                down[y] |= 1 << x
    colors = _poset_colors(up, down, n)
    best = None
    for perm in _admissible_perms(colors, n):
        key = tuple(
            tuple(perm[join[x][y]] for y in sorted(range(n), key=perm.__getitem__))
            for x in sorted(range(n), key=perm.__getitem__)
        )
        if best is None or key < best:
            best = key
    return best


def enumerate_lattices(max_n, limit=ENUM_HARD_LIMIT):
    """One validated FiniteLattice per isomorphism class, sizes 1..max_n.

    The classes of sizes 1 and 2 are the chains; every lattice of size
    n >= 3 adds a coatom to a lattice of size n - 1 (the lemma at
    ``_coatom_extensions``), so the classes of size n are the canonical
    join tables of the coatom extensions of the classes of size n - 1.

    Deterministic: classes are sorted by (size, canonical join table), and
    the k-th class of size n is named ``lat{n}_{k}``.  Raises
    LimitExceeded past the configured hard limit.
    """
    if max_n > limit:
        raise LimitExceeded(f"max_n={max_n} exceeds limit {limit}")
    chains = [((0,),), ((0, 1), (1, 1))][:max(max_n, 0)]
    out = [validate_lattice(table, zero=0, name=f"lat{n}_1")
           for n, table in enumerate(chains, 1)]
    tables = chains[1:]
    for n in range(3, max_n + 1):
        tables = sorted({_canon_join_table(ext, n)
                         for join in tables for ext in _coatom_extensions(join, n)})
        out.extend(validate_lattice(table, zero=0, name=f"lat{n}_{k}")
                   for k, table in enumerate(tables, 1))
    return out


# ---------------------------------------------------------------------------
# text format: line 1 "n <count>", optional "name <string>", then n rows


def parse_lat(text):
    reader = LineReader(text)
    n = reader.count("n")
    name = reader.name()
    rows = [reader.row(n, "table entry") for _ in range(n)]
    return validate_lattice(rows, zero=0, name=name)


def serialize_lat(lat):
    lines = [f"n {lat.n}"]
    if lat.name is not None:
        lines.append(f"name {lat.name}")
    for row in lat.join:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"
