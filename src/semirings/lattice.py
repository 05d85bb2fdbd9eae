"""Finite idempotent commutative monoids, i.e. finite lattices.

A lattice is stored as an explicit n x n join table over element indices
0..n-1.  The partial order is derived (x <= y iff x + y = y), the meet is
the join of all common lower bounds, and the top element is the join of
everything.  Only a table from outside the package is validated.
Isomorphisms are found and checked by the one isomorphism search and the
one isomorphism check of the package, ``closure.table_iso`` and
``closure.is_table_iso``, on the join tables.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import itemgetter
from struct import iter_unpack

from .closure import absorbing, down_masks, identity, is_table_iso, table_iso
from .errors import (
    LimitExceeded,
    LineReader,
    PreconditionFailed,
    SizeLimit,
    ValidationError,
    associative_cases,
    check_axiom,
    check_table,
    commutative_cases,
    format_tables,
)

ENUM_HARD_LIMIT = 7
_FRONTIER = 1 << 12  # partial maps that one extended chunk of the homomorphism walk holds


class FiniteLattice:
    """A lattice's join table, kept as a tuple of tuple rows, plus derived
    order data.

    Nothing is checked: a table from outside the package goes through
    ``validate_lattice`` first.  ``down[x]`` is the bitmask of elements
    <= x (``closure.down_masks``), ``zero`` the bottom, which is the
    identity of the join (``closure.identity``), and ``top`` the element
    that absorbs every join (``closure.absorbing``).
    Instances hash and compare by their table, so they can be set members
    and dict keys.
    """

    __slots__ = ("n", "join", "zero", "top", "down", "name", "_meet")

    def __init__(self, join, name=None):
        join = tuple(map(tuple, join))  # list rows would not match tuple rows
        self.n = len(join)
        self.join = join
        self.down = down_masks(join)
        self.zero = identity(join)
        self.top = absorbing(join)
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
        return self.join == other.join

    def __hash__(self):
        return hash(self.join)

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
    """The fold of ``join`` from ``zero`` over the elements of ``mask``."""
    acc = zero
    x = 0
    while mask:
        if mask & 1:
            acc = join[acc][x]
        mask >>= 1
        x += 1
    return acc


def validate_lattice(join_table, zero=0, name=None):
    """The FiniteLattice of a join table from outside the package.

    After the shape checks, ``errors.check_axiom`` checks four axioms in
    this order, each raising ``ValidationError`` on the first witness:
    x + x = x, zero + x = x, x + y = y + x and (x + y) + z = x + (y + z).
    """
    join = tuple(tuple(row) for row in join_table)
    n = len(join)
    if n == 0:
        raise ValidationError("empty table")
    check_table(join, n)
    if not (0 <= zero < n):
        raise ValidationError("zero index out of range", (zero,))
    ident = tuple(range(n))
    diagonal = tuple(map(tuple.__getitem__, join, ident))
    check_axiom("x + x != x", [((), diagonal, ident)])
    check_axiom("zero + x != x", [((), join[zero], ident)])
    check_axiom("x + y != y + x", commutative_cases(join))
    check_axiom("(x+y)+z != x+(y+z)", associative_cases(join))
    # zero + x = x makes the declared zero the bottom
    return FiniteLattice(join, name)


def dual(lat):
    """Order-reversed lattice: joins become meets, zero becomes top."""
    name = None if lat.name is None else lat.name + "~"
    # the meet table of a lattice is a lattice, with the top as its bottom
    return FiniteLattice(lat.meet_table, name=name)


def homomorphisms(src, dst, max_count=None):
    """All zero- and join-preserving maps from the lattice ``src`` to the
    lattice ``dst``, lex-sorted image tuples; ``SizeLimit`` past ``max_count``.
    They are the rows of ``homomorphism_rows``, decoded by one
    ``iter_unpack`` (kept as they are when ``dst`` has more than 256
    elements)."""
    rows = homomorphism_rows(src, dst, max_count)
    return list(iter_unpack(f"{src.n}B", rows)) if dst.n <= 256 else rows


def homomorphism_rows(src, dst, max_count=None):
    """The maps of ``homomorphisms`` as one ``bytes`` string: their
    lex-sorted image rows joined, one byte per value, so |src| bytes a map.
    When ``dst`` has more than 256 elements a value does not fit in a byte,
    and the list of lex-sorted image tuples is returned instead.
    ``SizeLimit`` past ``max_count``.

    Walks ``src`` in a linear extension of its order from its zero, sent to
    the zero, one level (element) at a time.  A partial map is the
    ``bytes`` string of its values in linear-extension positions (a tuple
    when ``dst`` has more than 256 elements), and a level extends every
    partial map of a chunk in one list comprehension.  At a join z = x + y
    of two elements other than z the value is forced to f(x) + f(y) in
    ``dst``, which must agree over all such pairs; so only
    join-irreducibles branch.

    Monotone.  The forced value lies above the values below z without a
    check.  By induction over the linear extension, f(w) <= f(u) for every
    processed w < u.  Take w < z = x + y and u = w + x <= z.  If u = z, then
    {w, x} is one of z's decomposing pairs, so f(w) <= f(w) + f(x) = f(z).
    Otherwise u < z was processed and u + y = z, so {u, y} is one, and
    f(w) <= f(u) <= f(u) + f(y) = f(z).

    Lower cover.  A join-irreducible z other than the zero is not the join
    c of the elements below it, so c is its one lower cover and every
    w < z lies below c.  The partial map being monotone, f(c) is the join
    of the values below z, and z branches over every value above f(c).

    Lex order.  A level appends one value to each partial map of a chunk,
    in ascending order per partial map, so a lex-sorted chunk gives a
    lex-sorted product.  The frontier is walked depth first: the chunk's
    extension is walked to the end before the next chunk of its level, so
    the maps come out lex-sorted by positions.  When the linear extension
    is the index order they are the image rows in order; otherwise each
    is permuted back to index order and the rows sorted.  Rows of one
    length compare as their image tuples do, so the joined string holds
    the maps in lex order.

    Memory.  A chunk holds at most ``_FRONTIER`` // |dst| partial maps (at
    least one), so its extension holds at most ``_FRONTIER`` (|dst| when
    that is larger), and the stack keeps one frontier per level: at most
    |src|·max(``_FRONTIER``, |dst|) partial maps, however wide a level of
    the whole walk is.  Complete maps are kept until the end, at most
    ``max_count`` + max(``_FRONTIER``, |dst|) of them under a limit.

    Exact limit.  Complete maps are counted as they come out, and
    ``SizeLimit`` is raised once the count passes ``max_count``; every map
    found is a homomorphism, so it is raised exactly when there are more
    than ``max_count`` of them.
    """
    n, m, sjoin, djoin, down = src.n, dst.n, src.join, dst.join, src.down
    order = sorted(range(n), key=lambda x: (down[x].bit_count(), x))
    pos = [0] * n
    for k, x in enumerate(order):
        pos[x] = k
    row = bytes if m <= 256 else tuple
    value = [row((v,)) for v in range(m)]
    ups = [[value[u] for u in range(m) if djoin[v][u] == u] for v in range(m)]
    # per level, in positions: a join-irreducible's lower cover, or a join's pairs
    covers, pairs = [None] * n, [None] * n
    for k in range(1, n):
        z = order[k]
        strict = down[z] & ~(1 << z)
        c = _mask_join(sjoin, strict, src.zero)
        if c != z:
            covers[k] = pos[c]
            continue
        below = [x for x in range(n) if strict >> x & 1]
        pairs[k] = [(pos[x], pos[y]) for i, x in enumerate(below) for y in below[i + 1:]
                    if sjoin[x][y] == z]
    noun = "endomorphisms" if src is dst else "homomorphisms"
    size = max(1, _FRONTIER // m)  # partial maps per chunk
    found = []
    stack = [(1, [value[dst.zero]], 0)]  # (level, frontier, start of its next chunk)
    while stack:
        k, frontier, start = stack.pop()
        if k == n:
            found += frontier
            if max_count is not None and len(found) > max_count:
                raise SizeLimit(f"more than {max_count} {noun}")
            continue
        chunk = frontier[start:start + size]
        if start + size < len(frontier):
            stack.append((k, frontier, start + size))
        c = covers[k]
        if c is not None:
            out = [p + u for p in chunk for u in ups[p[c]]]
        else:
            # the first pair forces the value and the last is checked with it;
            # every other pair filters the extended maps, whose value sits at k
            (a, b), (x, y) = pairs[k][0], pairs[k][-1]
            out = [p + value[v] for p in chunk for v in (djoin[p[a]][p[b]],)
                   if djoin[p[x]][p[y]] == v]
            for x, y in pairs[k][1:-1]:
                out = [p for p in out if djoin[p[x]][p[y]] == p[k]]
        if out:
            stack.append((k + 1, out, 0))
    if order != list(range(n)):
        pick = itemgetter(*pos)
        found = sorted(row(pick(p)) for p in found)
    return b"".join(found) if row is bytes else found


def hom_to_l2(lat):
    """All monoid homomorphisms into the two-element lattice ({0,1}, max).

    Returns (hom lattice H, e_index, homs) where homs[i] is the i-th
    homomorphism as a 0/1 image tuple, from ``homomorphisms``, H is the
    lattice they form under pointwise max, and e_index[a] locates the map
    x -> 0 iff x <= a.  The indexing a -> e_index[a] is a bijection.
    """
    n = lat.n
    homs = homomorphisms(lat, FiniteLattice(((0, 1), (1, 1))))
    index = {h: i for i, h in enumerate(homs)}
    table = tuple(tuple(index[tuple(a | b for a, b in zip(f, g))] for g in homs) for f in homs)
    # pointwise joins of homomorphisms are homomorphisms, the zero map the zero
    hom_lat = FiniteLattice(table)
    e_index = tuple(index[tuple(0 if lat.leq(x, a) else 1 for x in range(n))] for a in range(n))
    return hom_lat, e_index, tuple(homs)


def is_distributive(lat):
    """True iff meet distributes over join, decided on join-primes from
    the ``down`` masks in O(n²), with no meet table built.

    A finite lattice is distributive iff every join-irreducible j is
    join-prime (j <= x + y implies j <= x or j <= y), and j is join-prime
    iff the join of the elements not above j is itself not above j.

    - Distributive: if j <= x + y, then j = j∧(x + y) = (j∧x) + (j∧y), and
      a join-irreducible j equals one of the two, so j <= x or j <= y.
    - Join-prime: let J(x) be the set of join-irreducibles below x.  Then
      J(x∧y) = J(x) ∩ J(y) always, and J(x + y) = J(x) ∪ J(y) when every
      j is join-prime; J is one-to-one, since every x is the join of J(x).
      So J embeds the lattice into the lattice of subsets, which is
      distributive, and so is every sublattice of it.
    - The test: the join s of the elements not above j is above every
      one of them, so if s is not above j, no join of such elements is,
      and j is join-prime.  If s is above j, fold the join one element at
      a time from the zero: the first partial join above j is x + y, with
      x the partial join before it and y the element added, neither above
      j, so j is not join-prime.

    j is join-irreducible iff it is not the join of the elements strictly
    below it (the zero is the empty join), so each element takes two folds
    of ``join`` over a mask.
    """
    join, down, zero, n = lat.join, lat.down, lat.zero, lat.n
    for j in range(n):
        if _mask_join(join, down[j] & ~(1 << j), zero) == j:
            continue  # the zero, or the join of the elements below j
        not_above = sum(1 << x for x in range(n) if not down[x] >> j & 1)
        if down[_mask_join(join, not_above, zero)] >> j & 1:
            return False
    return True


def lower_meet(lat, a):
    """Meet of every element not below a (top when that set is empty)."""
    # the top is the identity of meet, as the zero is of join
    return _mask_join(lat.meet_table, ((1 << lat.n) - 1) & ~lat.down[a], lat.top)


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
    intersections.  Raises PreconditionFailed otherwise.
    """
    if not condition_d(lat):
        raise PreconditionFailed("lattice fails the reconstruction criterion")
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
# Only a new coatom of largest down-set is added, a canonical choice of
# the element to remove in the sense of McKay ("Isomorph-free exhaustive
# generation", J. Algorithms 26, 1998), so fewer tables are canonicalised.


@functools.lru_cache(maxsize=None)
def _bit_lists(n):
    """The set bits of every mask below 2**n, as tuples: one table per size."""
    return tuple(tuple(y for y in range(n) if mask >> y & 1) for mask in range(1 << n))


def _poset_colors(up, down, n):
    """Colour refinement of a poset given by its up- and down-set bitmasks:
    x starts as (|down-set|, |up-set|), and each round colours x by the
    rank of its colour with the sorted colours of its down-set and of its
    up-set.  It stops once a round adds no colour class: every signature
    holds the old colour, so the classes only split, and an equal count
    means an equal partition (the test ``closure._joint_colors`` uses)."""
    bits = _bit_lists(n)
    below = [bits[mask] for mask in down]
    above = [bits[mask] for mask in up]
    colors = [(len(b), len(a)) for b, a in zip(below, above)]
    count = len(set(colors))
    while True:
        get = colors.__getitem__
        sig = [(colors[x], tuple(sorted(map(get, below[x]))), tuple(sorted(map(get, above[x]))))
               for x in range(n)]
        ranks = {s: i for i, s in enumerate(sorted(set(sig)))}
        colors = [ranks[s] for s in sig]
        if len(ranks) == count:
            return colors
        count = len(ranks)


def _admissible_orders(colors, n, up, down):
    """The orderings of 0..n-1 that list the colour classes one after
    another in colour order, each class in every order, except that a
    class of twins comes in one order only; the i-th element of an
    ordering takes the label i.

    Lemma.  Call x and y twins when they have the same strict down-set and
    the same strict up-set.  Then x and y are incomparable (x < y would put
    x in its own strict down-set), and swapping them moves no other
    element and keeps every relation z < x, x < z, z < y and y < z, so it
    is an order automorphism, hence a lattice automorphism; so is every
    permutation a of a set of pairwise twins, a product of such swaps.  If
    order' lists a(x) wherever order lists x, then label'(a(x)) = label(x),
    and entry (i, j) of the table relabelled along order' is
    label'(a(x) + a(y)) = label'(a(x + y)) = label(x + y) for x = order[i]
    and y = order[j], the entry along order.  So when every two elements
    of a colour class are twins, every ordering of that class gives the
    same tables as its sorted one, and the least table is unchanged."""
    groups = {}
    for x in range(n):
        groups.setdefault(colors[x], []).append(x)
    choices = []
    for key in sorted(groups):
        group = groups[key]
        twins = len({(down[x] & ~(1 << x), up[x] & ~(1 << x)) for x in group}) == 1
        choices.append([group] if twins else itertools.permutations(group))
    for choice in itertools.product(*choices):
        yield list(itertools.chain.from_iterable(choice))


def _masked_extensions(join, n):
    """Join tables of size n that add a coatom to the lattice ``join`` of
    size n - 1 >= 2 (bottom 0, top n - 2): bottom 0, new coatom n - 2,
    top n - 1, each with its up- and down-set bitmasks.  Only the
    extensions in which no other coatom has a larger down-set than the new
    one are kept.

    Lemma.  A coatom m of a lattice with at least 3 elements can be
    removed: two elements whose join was m then have only the top above
    them, so the rest is a lattice.  Hence every lattice of size n arises
    from one of size n - 1 by adding a coatom m below the old top t whose
    strict down-set D is a down-set of the elements other than t that
    contains the bottom.  Such a D gives a lattice iff every two elements
    of D join inside D or at t; otherwise that join and m are two
    incomparable least upper bounds.  In the new table a join that was t
    becomes m inside D and the top elsewhere, and x + m is m for x in D
    and the top otherwise.  So the bitmasks follow from the old ones: an
    element x other than m and the top keeps its down-set, and its up-set
    gains the top, and m when x is in D; m's down-set is D and m, and the
    top's is every element.

    Pruning.  The other coatoms of the extension are the old coatoms not
    in D, with their down-sets unchanged; m's down-set is D and m.  Take
    any lattice L of size n >= 3 and remove a coatom m of largest
    down-set: the rest is a lattice of size n - 1, isomorphic to one of
    the classes, and adding m back to that class with the image of m's
    strict down-set as D gives a table isomorphic to L in which no other
    coatom has a larger down-set than m.  So the kept extensions of the
    classes of size n - 1 still reach every class of size n (80 tables
    instead of 116 for the 53 classes of size 7, 341 instead of 541 for
    the 222 of size 8).
    """
    k = n - 2  # the elements other than t are 0..k-1; m takes t's index k
    top = n - 1
    m_bit, top_bit = 1 << k, 1 << top
    down = down_masks(join[:k])
    above = [sum(1 << y for y in range(k) if down[y] >> x & 1) | top_bit for x in range(k)]
    coatoms = [(1 << c, bin(down[c]).count("1")) for c in range(k)
               if not any(down[y] >> c & 1 for y in range(k) if y != c)]
    for d in range(1, 1 << k, 2):
        size = bin(d).count("1") + 1  # m and its strict down-set d
        if any(size < below for bit, below in coatoms if not d & bit):
            continue
        inside = [x for x in range(k) if d >> x & 1]
        if any(down[x] & ~d for x in inside) or any(
                join[x][y] < k and not d >> join[x][y] & 1
                for x in inside for y in inside):
            continue
        up = [k if d >> x & 1 else top for x in range(k)]  # x + m
        rows = [[v if v < k else max(up[x], up[y]) for y, v in enumerate(row[:k])]
                + [up[x], top] for x, row in enumerate(join[:k])]
        up_masks = [u | m_bit if d >> x & 1 else u for x, u in enumerate(above)]
        yield (rows + [up + [k, top], [top] * n],
               up_masks + [m_bit | top_bit, top_bit], [*down, d | m_bit, (1 << n) - 1])


def _least_relabelling(join, n, up, down):
    """The least relabelled join table over the orderings of
    ``_admissible_orders``, in which colour classes take consecutive labels
    in colour order; n >= 2, as ``itemgetter`` of one index gives an item,
    not a tuple.  Row i of the table relabelled along the ordering
    ``order`` (with label[order[i]] = i) is the row of order[i] with its
    entries relabelled by ``bytes.translate`` and its columns taken in
    ``order`` by ``itemgetter``, both in C; so each candidate is built row
    by row and dropped at its first row above the least table found so
    far."""
    rows = [bytes(row) for row in join]
    best = None
    label = bytearray(256)  # a translate table; only codes below n occur
    for order in _admissible_orders(_poset_colors(up, down, n), n, up, down):
        for i, x in enumerate(order):
            label[x] = i
        pick = itemgetter(*order)
        key = []
        tied = best is not None  # every row so far equals best's
        for i, x in enumerate(order):
            row = pick(rows[x].translate(label))
            if tied and row != best[i]:
                if row > best[i]:
                    break
                tied = False
            key.append(row)
        else:
            if not tied:
                best = key
    return tuple(best)


def enumerate_lattices(max_n, limit=ENUM_HARD_LIMIT):
    """One FiniteLattice per isomorphism class, sizes 1..max_n.

    The classes of sizes 1 and 2 are the chains; every lattice of size
    n >= 3 adds a coatom to a lattice of size n - 1 (the lemma at
    ``_masked_extensions``), so the classes of size n are the canonical
    join tables of the kept coatom extensions of the classes of size
    n - 1.  Each extension comes with the order bitmasks that follow from
    its parent's, so no order is derived from a table.  The canonical
    table is the least relabelling over the colour-respecting orderings
    (``_least_relabelling``), each candidate row relabelled in C by
    ``bytes.translate`` and ``itemgetter``.  A colour class of pairwise
    twins is listed in one ordering only (the lemma at
    ``_admissible_orders``): up to size 7 this takes the 120 orderings of
    M_5 and the 24 of each of three other extensions to one.

    Deterministic: classes are sorted by (size, canonical join table), and
    the k-th class of size n is named ``lat{n}_{k}``.  Raises
    LimitExceeded past the configured hard limit.
    """
    if max_n > limit:
        raise LimitExceeded(f"max_n={max_n} exceeds limit {limit}")
    chains = [((0,),), ((0, 1), (1, 1))][:max(max_n, 0)]
    # each table is a lattice: a chain, or by the lemma at _masked_extensions
    out = [FiniteLattice(table, name=f"lat{n}_1") for n, table in enumerate(chains, 1)]
    tables = chains[1:]
    for n in range(3, max_n + 1):
        tables = sorted({_least_relabelling(ext, n, up, down)
                         for join in tables for ext, up, down in _masked_extensions(join, n)})
        out.extend(FiniteLattice(table, name=f"lat{n}_{k}") for k, table in enumerate(tables, 1))
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
    name = [] if lat.name is None else [f"name {lat.name}"]
    return format_tables([f"n {lat.n}", *name], lat.join)
