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

    def elements(self):
        return range(self.n)

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
# Strategy.  Every lattice L with n >= 2 elements is the ordinal sum
# 0 + P + 1 of a bottom, the poset P of its n - 2 inner elements, and a
# top.  An isomorphism of lattices fixes 0 and 1, so two lattices are
# isomorphic iff their inner posets are, and a finite bounded poset is a
# lattice iff every pair has a least upper bound.  So grow partial orders
# one maximal element at a time (the new element's strict down-set can be
# any order ideal) up to size n - 2 only, deduplicate by a canonical form,
# add a bottom and a top to each class, and keep those bounded posets in
# which every pair has a least upper bound (Heitzig and Reinhold, "Counting
# finite lattices", Algebra Universalis 48, 2002).


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


def _down_masks(up, n):
    """Transpose a relation stored as row bitmasks: the down-sets of a
    poset from its up-sets (and its up-sets from its down-sets)."""
    down = [0] * n
    for x in range(n):
        m = up[x]
        y = 0
        while m:
            if m & 1:
                down[y] |= 1 << x
            m >>= 1
            y += 1
    return down


def _canon_upmasks(up, n):
    colors = _poset_colors(up, _down_masks(up, n), n)
    best = None
    for perm in _admissible_perms(colors, n):
        rows = [0] * n
        for x in range(n):
            m = up[x]
            y = 0
            px = perm[x]
            while m:
                if m & 1:
                    rows[px] |= 1 << perm[y]
                m >>= 1
                y += 1
        key = tuple(rows)
        if best is None or key < best:
            best = key
    return best


def _order_ideals(up, n):
    down = _down_masks(up, n)
    for mask in range(1 << n):
        ok = True
        m = mask
        x = 0
        while m:
            if m & 1 and down[x] & ~mask:
                ok = False
                break
            m >>= 1
            x += 1
        if ok:
            yield mask


def _grow_posets(posets, n):
    """The posets of size n, one canonical up-mask tuple per isomorphism
    class, from those of size n - 1: every poset has a maximal element,
    and its strict down-set is an order ideal of the rest."""
    bit = 1 << (n - 1)
    return {
        _canon_upmasks([row | bit if (ideal >> x) & 1 else row
                        for x, row in enumerate(up)] + [bit], n)
        for up in posets
        for ideal in _order_ideals(up, n - 1)
    }


def _bounded(up, k):
    """Up-mask rows of 0 + P + 1 for a poset P on 0..k-1: P keeps its
    indices, the bottom is k and the top k + 1."""
    top = 1 << (k + 1)
    return [row | top for row in up] + [(1 << (k + 2)) - 1, top]


def _poset_to_lattice(up, n):
    """Join table of a bounded poset, or None unless every pair has a
    least upper bound.  The top bounds every pair, so ``uppers`` is never
    empty."""
    join = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(x, n):
            uppers = up[x] & up[y]
            z = None
            m = uppers
            c = 0
            while m:
                if m & 1 and (uppers & ~up[c]) == 0:
                    z = c
                    break
                m >>= 1
                c += 1
            if z is None:
                return None
            join[x][y] = join[y][x] = z
    return join


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

    A lattice with n >= 2 elements is 0 + P + 1 for its poset P of n - 2
    inner elements, and two lattices are isomorphic iff their inner posets
    are; a bounded poset is a lattice iff every pair has a least upper
    bound.  So only posets up to size max_n - 2 are generated, one per
    class, and each is bounded and tested.

    Deterministic: classes are sorted by (size, canonical join table), and
    the k-th class of size n is named ``lat{n}_{k}``.  Raises
    LimitExceeded past the configured hard limit.
    """
    if max_n > limit:
        raise LimitExceeded(f"max_n={max_n} exceeds limit {limit}")
    if max_n < 1:
        return []
    out = [validate_lattice(((0,),), zero=0, name="lat1_1")]
    posets = {()}  # the inner posets of size n - 2, as canonical up-mask rows
    for n in range(2, max_n + 1):
        if n > 2:
            posets = _grow_posets(posets, n - 2)
        tables = set()
        for up in posets:
            join = _poset_to_lattice(_bounded(up, n - 2), n)
            if join is not None:
                tables.add(_canon_join_table(join, n))
        out.extend(validate_lattice(table, zero=0, name=f"lat{n}_{k}")
                   for k, table in enumerate(sorted(tables), 1))
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
