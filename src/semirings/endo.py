"""Endomorphism semirings of finite lattices and their dense subsemirings.

An endomorphism is a join- and zero-preserving self-map, read as its
image tuple.  End(M) is a semiring under pointwise join and composition.
A subsemiring is held as lex-sorted image rows concatenated, one byte per
value, and an ``int`` mask of the rows it keeps.  End(M)'s rows are the
string of the homomorphism walk (``lattice.homomorphism_rows``) as it
comes, with every bit set; the members of a dense family share them, and
image tuples are decoded only when read.
The least dense subsemiring is the set of sums (pointwise joins) of
elementary maps (zero below a, constant b elsewhere), built with joins
alone.  It and the Cayley tables share one encoding of maps (``_codec``):
on n elements the cell (x, v) has the code v + s_x, s_x = n·(x mod
⌊256/n⌋), and a map f is the ``bytes`` string of the codes of its cells
(x, f(x)), so adding an elementary map to every sum, and each entry of a
Cayley table, a join or a composite of two members, is one ``translate``
call (per chunk above 16 elements).
``dense_closure`` decodes and sorts the sums into a subsemiring;
``dense_order`` only counts them, which is all ``min-order`` reads.  The
Cayley tables of a subsemiring and its closedness test are built from the
member rows with no tuple decoded.
The dense subsemirings form an interval between it and End(M),
enumerated by the Close-by-One walk of ``closure.py`` over the Cayley
table of End(M), on member indices, which builds each closed set once: a
closed set extended by one index is re-closed from that index alone, and
each pair is combined once, by one read of each table's row.  A step by
index x stops at the first index below x that its closure adds, since the
closure only grows and the walk would reject the step anyway; a kept step
never meets one, so the sets found are unchanged.  The least dense
subsemiring is a two-sided ideal of End(M), so a closure never pairs a
new map with its members by composition, and their sums with each map
outside it are read once per walk (``close``'s ``ideal``).  The interval
is one point exactly when M is distributive, decided by join-primes
(``lattice.is_distributive``); End(M) is then returned alone, with no
table built.  Each set found is the walk's mask over End(M)'s rows.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import product, repeat
from operator import itemgetter
from struct import iter_unpack

from .closure import close, closed_sets, ideal_sums, mask_of, members_of, principal_test_pairs
from .errors import LineReader, ParseError, SizeLimit, ValidationError, format_tables
from .lattice import check_lattice_size, homomorphism_rows, homomorphisms, is_distributive
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
    """All endomorphisms as lex-sorted image tuples, by the walk of
    ``lattice.homomorphisms``; ``SizeLimit`` past ``max_count``."""
    return homomorphisms(lat, lat, max_count)


def identity_map(lat):
    return tuple(range(lat.n))


def zero_map(lat):
    return tuple(lat.zero for _ in range(lat.n))


def compose(f, g):
    """f after g."""
    return tuple(f[v] for v in g)


def elementary(lat, a, b):
    """The map sending x to zero when x <= a and to b otherwise."""
    return tuple(lat.zero if lat.leq(x, a) else b for x in range(lat.n))


def elementary_maps(lat):
    """The distinct elementary maps, lex sorted."""
    return sorted({elementary(lat, a, b) for a in range(lat.n) for b in range(lat.n)})


class EndoSubsemiring:
    """A set of endomorphisms closed under pointwise join and composition,
    containing the zero map, built from any iterable of image tuples.

    It is held as ``rows``, lex-sorted image rows concatenated, one byte
    per value (so a lattice of more than ``lattice.LATTICE_SIZE_LIMIT`` =
    256 elements raises ``SizeLimit``), and ``mask``, an ``int`` whose
    bit k is set iff the k-th row is a member.  One built
    from a member set, by ``dense_closure`` or by ``parse_srs`` holds its
    own rows with every bit set; the members of a dense family share the
    rows of End(M) (``enumerate_sr``).  ``size`` counts the bits.
    ``packed``, the lex-sorted member images concatenated, is the rows
    themselves when every bit is set and is cut out of them on first use
    otherwise.  ``==`` (same lattice, same members) compares ``packed``
    forms; ``member_bytes`` cuts the member rows out; ``members``, the
    frozenset of image tuples, is decoded on first use and kept, and is
    read only by the tests and the benchmark: the package itself reads
    ``member_bytes`` or the mask.
    """

    def __init__(self, lattice, members):
        check_lattice_size(lattice.n)
        self._hold(lattice, b"".join(map(bytes, sorted(frozenset(members)))))

    @classmethod
    def _masked(cls, lattice, rows, mask=None):
        """The subsemiring of the rows of ``rows`` that ``mask`` keeps, all
        of them when ``mask`` is None."""
        sub = cls.__new__(cls)
        sub._hold(lattice, rows, mask)
        return sub

    def _hold(self, lattice, rows, mask=None):
        self.lattice, self.rows = lattice, rows
        self.mask = (1 << len(rows) // lattice.n) - 1 if mask is None else mask

    @cached_property
    def members(self):
        return frozenset(self.sorted_members())

    @property
    def size(self):
        return self.mask.bit_count()

    @cached_property
    def packed(self):
        if self.size * self.lattice.n == len(self.rows):
            return self.rows
        return b"".join(self.member_bytes())

    def sorted_members(self):
        """The member image tuples in lex order, decoded from ``packed``."""
        return list(iter_unpack(f"{self.lattice.n}B", self.packed))

    def member_bytes(self):
        """The member images as ``bytes`` strings in lex order, cut out of
        ``rows`` with no tuple built."""
        n, rows = self.lattice.n, self.rows
        return [rows[n * k:n * k + n] for k in members_of(self.mask)]

    def __eq__(self, other):
        if not isinstance(other, EndoSubsemiring):
            return NotImplemented
        return self.packed == other.packed and self.lattice == other.lattice

    def __repr__(self):
        return f"EndoSubsemiring({self.lattice!r}, size={self.size})"

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

        Each member is its code string (``_codec``), and both operations
        are substitutions of codes:

        - f o g is ``g.translate(C_f)`` for the table C_f sending the code of
          cell (x, v) to that of (x, f(v)), since g's code at x is that of
          (x, g(x)).  Block x of C_f's images is f's row by ``shifts[x]``.
        - f + g is ``g.translate(J_f)`` for the table J_f sending the code of
          (x, v) to that of (x, join(f(x), v)), since the join is taken
          pointwise.  Block x of J_f's images is ``joins[x][f(x)]``.

        So each row of ``add`` and ``mul`` is two tables for its member f,
        built from its image row (``member_bytes``) with no tuple decoded,
        and one ``translate`` per entry, and a dict from member strings to
        indices gives the entry.  ``ValidationError`` is raised when the
        members lack the zero map, a join or a composite.  The zero map is
        looked up explicitly: a join-closed set without it can still have an
        additive identity, which ``FiniteSemiring`` would take as its zero.
        """
        lat = self.lattice
        code, shifts, joins, table, translate = _codec(lat)
        rows = self.member_bytes()
        strings = [code(f) for f in rows]
        at = {s: i for i, s in enumerate(strings)}.__getitem__
        add, mul = [], []
        try:
            at(code(bytes([lat.zero]) * lat.n))  # KeyError without the zero map
            for f in rows:
                plus = table(b"".join(map(list.__getitem__, joins, f)))
                after = table(b"".join(map(f.translate, shifts)))
                add.append(tuple(map(at, translate(strings, plus))))
                mul.append(tuple(map(at, translate(strings, after))))
        except KeyError:
            raise ValidationError(
                "member set is not closed under join and composition") from None
        return FiniteSemiring(add, mul, name)


def is_dense(sub):
    """True iff the subsemiring contains every elementary map, read off
    its ``member_bytes``, so ``members`` is not decoded."""
    images = set(sub.member_bytes())
    return all(bytes(e) in images for e in elementary_maps(sub.lattice))


def end_semiring(lat):
    """(End(M) as a FiniteSemiring, lex-sorted member tuples); ``SizeLimit``
    past ``END_SIZE_LIMIT`` members, or from the walk before it starts when
    a value of a map does not fit in one byte.  The walk's string
    (``lattice.homomorphism_rows``) is End(M)'s rows as they are, with
    every bit set, and the tables are built from them; only the returned
    member tuples are decoded."""
    end = EndoSubsemiring._masked(lat, homomorphism_rows(lat, lat, END_SIZE_LIMIT))
    name = None if lat.name is None else f"End({lat.name})"
    return end.to_semiring(name=name), tuple(end.sorted_members())


def _codec(lat):
    """(code, shifts, joins, table, translate): the one encoding of the
    maps on the lattice ``lat`` of n elements, n at most
    ``lattice.LATTICE_SIZE_LIMIT`` (else ``SizeLimit``).

    A map f is the ``bytes`` string whose byte x is f(x) + s_x, the code of
    the cell (x, f(x)), with s_x = n·(x mod w) and w = ⌊256/n⌋.  Every code
    is below n·w <= 256.  Position x holds f(x) plus a constant, so equal
    strings are equal maps, and strings compare as the image tuples do.
    When n² <= 256, s_x = n·x (x < n <= w), so every cell has its own code.
    Above, position x = w·j + i of chunk j holds v + n·i: the cells of one
    chunk have distinct codes, and each chunk has its own table.

    - ``code(row)`` is the string of the map with image row ``row``
      (``bytes``): as big-endian integers, the row plus the string of the
      s_x, since no byte passes 255 and so no carry crosses a position.
    - ``shifts[x]`` is the ``translate`` table v -> v + s_x.
    - ``joins[x][u]`` is the block of the codes join(u, v) + s_x over v.  It
      depends on x only through s_x, which takes at most min(n, w) <= 16
      values, so at most 16·n blocks are built.
    - ``table(images)`` turns the images of the codes of the cells (0, 0),
      (0, 1) .. (n − 1, n − 1), in that order, into a table (a list of
      chunk tables above 16 elements) that leaves every other code alone.
    - ``translate(strings, table)`` gives the translate of each string of
      the collection ``strings``, in its order, all in C; above 16
      elements each chunk is cut out, translated by its own table and
      joined back with the others.
    """
    n = lat.n
    check_lattice_size(n)
    width = 256 // n
    offsets = [n * (x % width) for x in range(n)]  # s_x
    shift = {s: bytes(range(s, s + n)) + bytes(256 - n) for s in set(offsets)}
    blocks = {s: [bytes(row).translate(t) for row in lat.join] for s, t in shift.items()}
    shifts = [shift[s] for s in offsets]
    joins = [blocks[s] for s in offsets]
    base = int.from_bytes(bytes(offsets), "big")

    def code(row):
        return (int.from_bytes(row, "big") + base).to_bytes(n, "big")

    if n * n <= 256:
        pad = bytes(range(n * n, 256))
        return (code, shifts, joins, lambda images: images + pad,
                lambda strings, table: map(bytes.translate, strings, repeat(table)))
    span = n * width  # the codes of one chunk
    cuts = [itemgetter(slice(x, x + width)) for x in range(0, n, width)]

    def table(images):
        chunks = [images[c:c + span] for c in range(0, n * n, span)]
        return [chunk + bytes(range(len(chunk), 256)) for chunk in chunks]

    def translate(strings, tables):
        return map(b"".join, zip(*[map(bytes.translate, map(cut, strings), repeat(t))
                                   for cut, t in zip(cuts, tables)]))

    return code, shifts, joins, table, translate


def _dense_span(lat, codec, max_size):
    """The set of code strings (``codec``, from ``_codec``) of the sums of
    elementary maps, built by the fold that ``dense_closure`` describes;
    ``SizeLimit`` as soon as it holds more than ``max_size`` strings, the
    zero map alone included."""
    n, down, zero = lat.n, lat.down, lat.zero
    code, _, joins, table, translate = codec
    covers = principal_test_pairs(lat.join)
    uppers, lowers = Counter(c for c, _ in covers), Counter(d for _, d in covers)
    meet_irr = [a for a in range(n) if uppers[a] == 1]
    join_irr = [b for b in range(n) if lowers[b] == 1]
    span = {code(bytes([zero]) * n)}

    def check():
        if max_size is not None and len(span) > max_size:
            raise SizeLimit(f"least dense subsemiring exceeds {max_size} elements")

    check()  # before any step: a lattice without generators folds none
    for a, b in product(meet_irr, join_irr):
        below = down[a]
        step = table(b"".join([joins[x][zero if below >> x & 1 else b] for x in range(n)]))
        span.update(list(translate(span, step)))
        check()
    return span


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

    The span is built as a fold (``_dense_span``), adding one elementary
    map at a time to every sum found so far.  ``SizeLimit`` is raised as
    soon as the span holds more than ``max_size`` maps.

    The step.  Each sum is held as its code string (``_codec``).  Adding
    e_{a,b} sends cell (x, v) to (x, join(b, v)) when x is not below a and
    to (x, join(zero, v)) = (x, v) otherwise.  That is a substitution of
    codes, whose table has the block ``joins[x][b]`` or ``joins[x][zero]``
    at x: the table ``to_semiring`` builds to add e_{a,b}.  So each step of
    the fold is one ``translate`` per sum (per sum and chunk above 16
    elements), all in C.

    The generators.  Only the e_{a,b} with a meet-irreducible (one upper
    cover) and b join-irreducible (one lower cover) are folded, taken from
    the covering pairs of ``closure.principal_test_pairs``.  The span is
    the same: x goes to zero in e_{a,b} + e_{a',b} iff x <= a and x <= a',
    so e_{a,b} + e_{a',b} = e_{a∧a',b}, and pointwise e_{a,b} + e_{a,b'} =
    e_{a,b∨b'}.  In a finite lattice every a ≠ top is a meet of
    meet-irreducibles and every b ≠ zero a join of join-irreducibles, so
    every e_{a,b} with a ≠ top and b ≠ zero (the others are the zero map)
    is a sum of generators.  These are distinct, since a is the largest
    element sent to zero and b the image of the top, and none is a sum of
    others, so each step finds new sums: if e_{a,b} is the sum of the
    e_{a_i,b_i}, then every a_i >= a and a is their meet, and the one
    upper cover a* of a lies below every a_i ≠ a, so b, the image of a*,
    is the join of the b_i with a_i = a; hence some (a_i, b_i) = (a, b).

    The packed result.  The table sending the code of each cell (x, v) to v
    turns the string of a sum into its image bytes, one ``translate`` per
    sum (and chunk); sorted and joined, these are the ``packed`` form of
    the ``EndoSubsemiring``, so no image tuple is built.  Byte strings of
    one length sort as the image tuples do.
    """
    return EndoSubsemiring._masked(lat, b"".join(sorted(_dense_rows(lat, max_size))))


def _dense_rows(lat, max_size):
    """The image rows of the sums of elementary maps, as ``bytes``
    strings in no set order: one ``translate`` of each code string of
    ``_dense_span`` by the table sending the code of each cell (x, v) to v."""
    codec = *_, table, translate = _codec(lat)
    return translate(_dense_span(lat, codec, max_size), table(bytes(range(lat.n)) * lat.n))


def dense_order(lat, max_size=END_SIZE_LIMIT):
    """The order |D| of the least dense subsemiring D, with no map decoded.

    ``dense_closure`` builds D as the set of code strings of its maps
    (``_dense_span``) and then decodes, sorts and joins them.  Equal
    strings are equal maps and distinct strings distinct maps (``_codec``:
    position x holds f(x) plus a constant), so the number of strings is
    |D| and this returns it without that last step.  The fold and its
    check are the same, so ``SizeLimit`` is raised exactly when
    ``dense_closure`` with the same ``max_size`` raises it.
    """
    return len(_dense_span(lat, _codec(lat), max_size))


def enumerate_sr(lat, max_end=SR_BASE_LIMIT):
    """All dense subsemirings of End(M), i.e. all closed sets between the
    sums of elementary maps and the full endomorphism semiring.

    Deterministic order: ascending (size, sorted member list).  Only
    End(M) is bounded, by ``max_end``: the least dense subsemiring lies
    inside it.

    The walk (``closure.closed_sets``, Close-by-One over the indices in
    ascending order) runs over the Cayley table of End(M)
    (``to_semiring``): the closed sets of indices under +, * and the
    transposed *, each a mask, from the mask of the indices of the least
    dense subsemiring, each closure reading rows of the three tables.
    Those indices come straight from the code strings of ``_dense_span``:
    one ``translate`` a string gives its image row, and a dict of
    End(M)'s rows its index, with no ``dense_closure`` built, sorted or
    sliced.  A step by index x closes with
    ``floor=x`` and stops at the first index below x that it adds: the
    closure only grows, so that index lies in the new set and the walk
    would reject the step once it was closed; a kept step meets no such
    index and is closed in full.  Index i names the i-th map of the
    lex-sorted ``endomorphisms``, so i < j iff map i < map j, and index
    sets ordered by (size, sorted indices) are the member sets ordered by
    (size, sorted members): the order is the one the walk over maps gave.
    End(M)'s rows are the string of ``lattice.homomorphism_rows``, taken as
    they come with every bit set, so no map is decoded or re-encoded
    between the walk and the table; the walk checks the lattice size before
    it starts, since a row holds one byte per value.  Each member is End(M)'s
    rows and the walk's mask of its indices, as it comes, so the family
    shares one copy of the rows and nothing is sliced out until ``packed``
    or ``members`` is read.

    The least dense subsemiring D is a two-sided ideal of End(M), so each
    closure passes D as ``ideal`` (``closure.ideal_sums``): a new map is
    never paired with D's members by composition, since its composites
    with them lie in D, and its sums with them, which every set of the
    walk holds, are read once per walk for each map outside D.  For an
    elementary map e_{a,b} and an endomorphism f, e_{a,b}∘f is e_{a',b}
    for a' the largest x with f(x) <= a (such x hold the zero and are
    closed under joins; e_{top,b} is the zero map), and f∘e_{a,b} =
    e_{a,f(b)}, since f(zero) is the zero; composition distributes over
    sums on both sides (see ``dense_closure``), so a composite with a sum
    of elementary maps is a sum of elementary maps.

    When M is distributive (``lattice.is_distributive``), D is all of
    End(M), by the lemma behind ``lattice.condition_d``, so the interval
    is one point: End(M)'s rows with every bit set are returned alone, and
    neither D nor a table is built.
    """
    end = EndoSubsemiring._masked(lat, homomorphism_rows(lat, lat, max_end))
    if is_distributive(lat):
        return [end]
    r = end.to_semiring()
    at = {row: i for i, row in enumerate(end.member_bytes())}.__getitem__
    base = mask_of(map(at, _dense_rows(lat, None)))
    tables = (r.add, r.mul, r.mul_t)
    ideal = ideal_sums(r.add, base)
    sets = closed_sets(base, r.n, lambda s, x: close(s, (x,), tables, floor=x, ideal=ideal),
                       noun="dense subsemirings")
    return [EndoSubsemiring._masked(lat, end.rows, s) for s in sets]


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


# ---------------------------------------------------------------------------
# text format ".srs": lattice reference, then one member per line


def parse_srs(text, lattice_of):
    """The subsemiring a ``.srs`` text lists, its lattice ``lattice_of(name)``
    for the name on its first line; ``ParseError`` for a malformed line,
    a repeated member or a member that is not an endomorphism of that
    lattice.  Members wider than ``lattice.LATTICE_SIZE_LIMIT`` raise
    ``SizeLimit`` before ``lattice_of`` is called, so no such lattice is
    read or validated.  Closure is left to ``to_semiring``."""
    reader = LineReader(text)
    lattice_name = reader.field("lattice", "name")
    members = {}  # each member and the line it is listed on
    width = None  # fixed by the first member
    while not reader.at_end():
        member = reader.row(width, "image entry")
        if member in members:
            raise ParseError(f"member {member} already listed on line {members[member]}",
                             reader.line)
        members[member] = reader.line
        width = len(member)
    if not members:
        raise ParseError("no members listed", len(reader.lines))
    check_lattice_size(width)  # before the lattice is read and validated
    lat = lattice_of(lattice_name)
    for m in members:
        if not is_endomorphism(lat, m):
            raise ParseError(f"member {m} is not an endomorphism of {lattice_name}")
    return EndoSubsemiring(lat, frozenset(members))


def serialize_srs(sub):
    return format_tables([f"lattice {sub.lattice.name or 'unnamed'}"], sub.sorted_members())
