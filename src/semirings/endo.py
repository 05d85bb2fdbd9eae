"""Endomorphism semirings of finite lattices and their dense subsemirings.

An endomorphism is a join- and zero-preserving self-map, stored as its
image tuple.  End(M) is a semiring under pointwise join and composition.
The least dense subsemiring is the set of sums (pointwise joins) of
elementary maps (zero below a, constant b elsewhere), built with joins
alone: while it is built, a map f on n elements is the string of the codes
f(x) + n·x (``bytes`` when n² <= 256, ``str`` above), and adding an
elementary map to every sum is one ``translate`` call per sum.  The Cayley
tables of a subsemiring and its closedness test use the same encoded maps:
each entry, a join or a composite of two members, is one ``translate``
call.  The dense subsemirings form an interval between it and End(M),
enumerated by the closed-set walk of ``closure.py``: a closed set
extended by one map is re-closed from that map alone, and each pair of
maps is combined once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

from .closure import closed_sets
from .errors import LineReader, ParseError, SizeLimit, ValidationError
from .lattice import FiniteLattice
from .semiring import FiniteSemiring

END_SIZE_LIMIT = 20000
SR_BASE_LIMIT = 512


def is_endomorphism(lat, image):
    """True iff the map preserves the zero and all pairwise joins."""
    if len(image) != lat.n or any(not 0 <= v < lat.n for v in image):
        return False
    if image[lat.zero] != lat.zero:
        return False
    join = lat.join
    for x in range(lat.n):
        for y in range(x + 1, lat.n):
            if image[join[x][y]] != join[image[x]][image[y]]:
                return False
    return True


def endomorphisms(lat, max_count=None):
    """All endomorphisms as lex-sorted image tuples.

    Walks the elements in a linear extension; values at joins of earlier
    elements are forced, so branching happens only at join-irreducibles.
    """
    n = lat.n
    join = lat.join
    order = sorted(range(n), key=lambda x: (bin(lat.down[x]).count("1"), x))
    decomp = [[] for _ in range(n)]
    for x in range(n):
        for y in range(x, n):
            z = join[x][y]
            if z != x and z != y:
                decomp[z].append((x, y))
    below = [[y for y in range(n) if y != x and lat.leq(y, x)] for x in range(n)]
    results = []
    img = [None] * n

    def rec(k):
        if k == n:
            results.append(tuple(img))
            if max_count is not None and len(results) > max_count:
                raise SizeLimit(f"more than {max_count} endomorphisms")
            return
        z = order[k]
        if z == lat.zero:
            img[z] = lat.zero
            rec(k + 1)
            img[z] = None
            return
        pairs = decomp[z]
        if pairs:
            x0, y0 = pairs[0]
            v = join[img[x0]][img[y0]]
            for x, y in pairs[1:]:
                if join[img[x]][img[y]] != v:
                    return
            for w in below[z]:
                if join[img[w]][v] != v:
                    return
            img[z] = v
            rec(k + 1)
            img[z] = None
        else:
            lower = lat.zero
            for w in below[z]:
                lower = join[lower][img[w]]
            for v in range(n):
                if join[lower][v] == v:
                    img[z] = v
                    rec(k + 1)
            img[z] = None

    rec(0)
    return sorted(results)


def identity_map(lat):
    return tuple(range(lat.n))


def zero_map(lat):
    return tuple(lat.zero for _ in range(lat.n))


def compose(f, g):
    """f after g."""
    return tuple(f[v] for v in g)


def pointwise_join(lat, f, g):
    join = lat.join
    return tuple(join[a][b] for a, b in zip(f, g))


def elementary(lat, a, b):
    """The map sending x to zero when x <= a and to b otherwise."""
    return tuple(lat.zero if lat.leq(x, a) else b for x in range(lat.n))


def elementary_maps(lat):
    """The distinct elementary maps, lex sorted."""
    return sorted({elementary(lat, a, b) for a in range(lat.n) for b in range(lat.n)})


@dataclass
class EndoSubsemiring:
    """A set of endomorphisms closed under pointwise join and composition,
    containing the zero map."""

    lattice: FiniteLattice
    members: frozenset

    @property
    def size(self):
        return len(self.members)

    def sorted_members(self):
        return sorted(self.members)

    def is_closed(self):
        """True iff the zero map, every join and every composite of members
        are members, which is when ``to_semiring`` succeeds."""
        try:
            self.to_semiring()
        except ValidationError:
            return False
        return True

    def to_semiring(self, name=None):
        """The Cayley tables over the sorted members, as a ``FiniteSemiring``.

        Each map f on the n elements is the string of the codes f(x) + n·x
        (see ``_codec``), and both operations are substitutions of codes:

        - f o g is ``g.translate(C_f)`` for the table C_f sending the code
          v + n·x to f(v) + n·x, since g's code at x is g(x) + n·x.
        - f + g is ``g.translate(J_f)`` for the table J_f sending v + n·x to
          join(f(x), v) + n·x, since the join is taken pointwise.

        So each row of ``add`` and ``mul`` is two tables for its member f and
        one ``translate`` per entry, and a dict from member strings to indices
        gives the entry.  ``ValidationError`` is raised when the members lack
        the zero map, a join or a composite.
        """
        lat = self.lattice
        n, join, cells = lat.n, lat.join, range(lat.n)
        pack, table, translate, _ = _codec(n)
        members = self.sorted_members()
        strings = [pack([v + n * x for x, v in enumerate(f)]) for f in members]
        at = {s: i for i, s in enumerate(strings)}.__getitem__
        add, mul = [], []
        try:
            zero = at(pack([lat.zero + n * x for x in cells]))
            for f in members:
                plus = table([join[f[x]][v] + n * x for x in cells for v in cells])
                after = table([f[v] + n * x for x in cells for v in cells])
                add.append(tuple(map(at, map(translate, strings, repeat(plus)))))
                mul.append(tuple(map(at, map(translate, strings, repeat(after)))))
        except KeyError:
            raise ValidationError(
                "member set is not closed under join and composition") from None
        return FiniteSemiring(len(strings), tuple(add), tuple(mul), zero, name)


def is_dense(sub):
    """True iff the subsemiring contains every elementary map."""
    return all(e in sub.members for e in elementary_maps(sub.lattice))


def end_semiring(lat, max_size=END_SIZE_LIMIT):
    """(End(M) as a FiniteSemiring, lex-sorted member tuples)."""
    members = endomorphisms(lat, max_count=max_size)
    name = None if lat.name is None else f"End({lat.name})"
    sub = EndoSubsemiring(lat, frozenset(members))
    return sub.to_semiring(name=name), tuple(members)


def _products(lat):
    """Join and both compositions of two endomorphisms."""
    join = lat.join

    def products(f, g):
        return (tuple([join[a][b] for a, b in zip(f, g)]),
                tuple([f[v] for v in g]),
                tuple([g[v] for v in f]))

    return products


def _codec(n):
    """(pack, table, translate, unpack) for maps on an n-element lattice.

    ``pack`` turns a list of codes below n² into a string, ``bytes`` when
    n² <= 256 and ``str`` otherwise; ``table`` turns the list of images of
    the codes 0 .. n² − 1 into a table for ``translate``, which leaves every
    other code alone; ``unpack`` turns a string back into its codes.
    """
    if n * n <= 256:
        pad = bytes(range(n * n, 256))
        return bytes, lambda codes: bytes(codes) + pad, bytes.translate, tuple

    def pack(codes):
        return "".join(map(chr, codes))

    def unpack(s):
        return tuple(map(ord, s))

    return pack, list, str.translate, unpack


def dense_closure(lat, max_size=END_SIZE_LIMIT):
    """Least dense subsemiring: the sums of elementary maps.

    The least subsemiring containing the set E of elementary maps is their
    join-span, the set of pointwise joins of subsets of E (the empty join
    being the zero map), so no composition is computed:

    - e_{a,b} o e_{c,d} is the zero map when d <= a and e_{c,b} otherwise:
      x <= c goes to e_{a,b}(0) = 0, and any other x to e_{a,b}(d).
    - Composition distributes over joins on both sides: f o (g + h) =
      f o g + f o h because the endomorphism f preserves joins, and
      (g + h) o f = g o f + h o f holds pointwise.  Also f o 0 = 0 o f = 0.
    - So the product of two sums of elementary maps is the sum of the
      pairwise products, each zero or elementary: the span is closed under
      composition, and under join by construction.  It contains the zero
      map and E, so it is a dense subsemiring; and every subsemiring
      containing E is closed under join, so it contains the span.

    The span is built as a fold, adding one elementary map at a time to
    every sum found so far.  A map already in the span is skipped: the
    span of a prefix is closed under join, so adding such a map finds
    nothing new.  ``SizeLimit`` is raised as soon as the span holds more
    than ``max_size`` maps.

    The encoding.  Each map f on the n elements is held as the string of
    the codes f(x) + n·x for x = 0 .. n − 1 (see ``_codec``).  Code v + n·x
    names the cell (x, v) and f(x) is its code mod n, so equal strings are
    equal maps, and strings compare as the image tuples do.  Adding e_{a,b}
    sends cell (x, v) to (x, join(v, b)) when x is not below a and fixes
    it otherwise.  That is a substitution of codes, so f + e_{a,b} is
    ``f.translate(T_ab)`` for its table T_ab, and each step of the fold is
    one ``translate`` per sum, all in C.  The generators are the e_{a,b}
    with a ≠ top and b ≠ zero: the others are the zero map, and these are
    distinct, since a is the largest element sent to zero and b the image
    of the top.
    """
    n, join, down, zero = lat.n, lat.join, lat.down, lat.zero
    pack, table, translate, unpack = _codec(n)
    gens = sorted(
        (pack([(zero if down[a] >> x & 1 else b) + n * x for x in range(n)]), a, b)
        for a in range(n) if a != lat.top for b in range(n) if b != zero)
    span = {pack([zero + n * x for x in range(n)])}
    for e, a, b in gens:
        if e in span:
            continue
        below = down[a]
        step = table([(v if below >> x & 1 else join[v][b]) + n * x
                      for x in range(n) for v in range(n)])
        span.update(list(map(translate, span, repeat(step))))
        if max_size is not None and len(span) > max_size:
            raise SizeLimit(f"least dense subsemiring exceeds {max_size} elements")
    decode = table([c % n for c in range(n * n)])
    members = frozenset(map(unpack, map(translate, span, repeat(decode))))
    return EndoSubsemiring(lat, members)


def enumerate_sr(lat, max_end=SR_BASE_LIMIT):
    """All dense subsemirings of End(M), i.e. all closed sets between the
    sums of elementary maps and the full endomorphism semiring.

    Deterministic order: ascending (size, sorted member list).
    """
    all_endos = endomorphisms(lat, max_count=max_end)
    base = dense_closure(lat, max_size=max_end).members
    families = closed_sets(base, all_endos, _products(lat), noun="dense subsemirings")
    return [EndoSubsemiring(lat, s) for s in families]


def transpose(lat, f):
    """Adjoint endomorphism of the dual lattice: a maps to the join of all
    x with f(x) <= a.  Reverses composition and preserves pointwise joins
    taken in the dual."""
    join = lat.join
    out = []
    for a in range(lat.n):
        acc = lat.zero
        for x in range(lat.n):
            if lat.leq(f[x], a):
                acc = join[acc][x]
        out.append(acc)
    return tuple(out)


def iso_to_dense_subsemiring(r, max_end=SR_BASE_LIMIT):
    """Decide whether a finite semiring is isomorphic to a dense subsemiring
    of the endomorphism semiring of some finite idempotent commutative
    monoid, and return (monoid, member) as a witness, else None.

    Only the monoid rebuilt from the additively absorbing element can work,
    because an isomorphism of dense subsemirings forces an isomorphism of
    the underlying monoids, so the search space is just that one family.
    """
    from .semiring import recover_monoid, semiring_iso

    lat = recover_monoid(r)
    if lat is None:
        return None
    for fam in enumerate_sr(lat, max_end=max_end):
        if fam.size != r.n:
            continue
        mapping = semiring_iso(r, fam.to_semiring())
        if mapping is not None:
            return lat, fam
    return None


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


# ---------------------------------------------------------------------------
# text format ".srs": lattice reference, then one member per line


def parse_srs(text):
    reader = LineReader(text)
    lattice_name = reader.field("lattice", "name")
    members = []
    width = None  # fixed by the first member
    while not reader.at_end():
        members.append(reader.row(width, "image entry"))
        width = len(members[0])
    if not members:
        raise ParseError("no members listed", len(reader.lines))
    return lattice_name, members


def load_srs(lattice_name, members, lat):
    if lat.name != lattice_name:
        raise ParseError(f"lattice {lat.name!r} does not match reference {lattice_name!r}")
    for m in members:
        if not is_endomorphism(lat, m):
            raise ParseError(f"member {m} is not an endomorphism of {lattice_name}")
    sub = EndoSubsemiring(lat, frozenset(members))
    return sub


def serialize_srs(sub):
    name = sub.lattice.name or "unnamed"
    lines = [f"lattice {name}"]
    for m in sub.sorted_members():
        lines.append(" ".join(str(v) for v in m))
    return "\n".join(lines) + "\n"
