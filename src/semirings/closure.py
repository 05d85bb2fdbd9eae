"""The one subset closure, the one closed-set walk, the one congruence
closure, the one table relabelling and the one isomorphism search and
check of the package.

Subsemirings of End(M), subsemirings of a Cayley-table semiring and
subsemimodules are all least sets closed under some binary products and,
for modules, a unary action; each is closed here by :func:`close`, and
the callers only pass the translation tables whose entries are the
products of two elements.  Those closed sets, and the module
congruences, each named by the set of test pairs it relates, are the
closed sets of a closure operator, and all are enumerated by the one
walk :func:`closed_sets`, which builds each closed set once.  Inside
the closure and the walk a set is an ``int`` mask, bit x set for each
member x (:func:`members_of` and :func:`mask_of` convert), so the walk's
canonicity test and the closure's floor stop are each one AND; callers
that return frozensets or congruences convert at their edge.  A set that
lies in every set a walk closes and that every table but the first
absorbs (the least dense subsemiring in End(M)) is passed as ``ideal``:
its products by the first table with each element are read once per
walk (:func:`ideal_sums`), not once per closure.
Semiring congruences, module congruences and plain equivalences
generated by pairs are all least partitions compatible with some
translation tables; each is closed by :func:`close_congruence`, and the
callers only say which tables.  A given partition is compatible exactly
when closing the pairs that generate it gives it back.
Whether every principal congruence is total is decided on the pairs of
:func:`principal_test_pairs` alone (:func:`only_total_principals`), and
with idempotent addition a closure is known to be total as soon as it
relates the pair of :func:`zero_top_pair`.  :func:`down_masks` derives
the order of a lattice or of an idempotent addition, :func:`lower_covers`
its covering relation, :func:`identity` the zero of an addition and
:func:`absorbing` its absorbing top.  Every
quotient and restriction of a semiring or a module relabels its tables
by :func:`relabel`.  Lattices and semirings have one isomorphism search,
:func:`table_iso`, and one isomorphism check, :func:`is_table_iso`, over
the same translation tables.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress, count
from operator import add

from .errors import SizeLimit

# Most closed sets one enumeration may find.
SET_LIMIT = 100000
# the characters of a binary string as the bytes 0 and 1
_BITS = bytes.maketrans(b"01", b"\0\1")


def members_of(mask):
    """The elements of the set ``mask`` in ascending order: the positions
    of its set bits.  A mask of a few bits is taken apart by its lowest
    bit, one step a member; a larger one is read off its binary string in
    C, whose cost barely grows with the count."""
    if 16 * mask.bit_count() > mask.bit_length() + 128:
        return list(compress(count(), bin(mask)[:1:-1].encode().translate(_BITS)))
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_of(elements):
    """The mask of the set of distinct ``elements``: bit x set for each."""
    return sum(map((1).__lshift__, elements))


def ideal_sums(table, ideal):
    """The ``ideal`` argument of :func:`close` for the set ``ideal`` (a
    mask) and the first of the tables: the pair of ``ideal`` and the list
    whose entry f is the mask of the products ``table[f][d]`` over d in
    ``ideal``, for each f outside it (0 inside, where no closure reads)."""
    inside = members_of(ideal)
    return ideal, [0 if ideal >> f & 1 else mask_of(set(map(row.__getitem__, inside)))
                   for f, row in enumerate(table)]


def close(base, seeds, tables, images=None, *, floor=None, ideal=None):
    """Least superset of ``base`` and ``seeds`` closed under the products of
    ``tables`` and the unary ``images``, as a mask (bit x set for each
    member x); None as soon as a product or image it adds lies below
    ``floor``, when that is given.

    ``tables`` are translation tables as in :func:`close_congruence`:
    ``t[f][g]`` is a product of f and g, and each list holds the transpose
    of each of its tables, so the entries ``t[f][g]`` over all tables
    cover every product of the pair in both orders (for a semiring
    ``add``, ``mul`` and ``mul_t``; for a module its addition).
    ``images``, if given, is a table whose row f lists the unary images of
    f (for a module: ``act_t``, its orbit under the action).  ``base``, a
    mask, must already be closed, and ``seeds`` lists elements.  Two facts
    keep the work small:

    - Every pair of members of ``base`` already has its products in
      ``base``, and every member its images.  So only the seeds and the
      elements they generate go on the worklist: closing ``s | {f}`` for a
      closed ``s`` starts from ``f`` alone, not from all of ``s``.
    - Each unordered pair is visited once.  A popped element f is paired
      only with the elements already processed, itself included, by
      reading row f of each table at each of them, one ``map`` per table;
      once the worklist is empty every member has been processed, so
      every pair has met exactly once.

    The products read are gathered in a set and turned into a mask, and
    the members they add are that mask less ``members``.  The ``floor``
    stop serves the Close-by-One walk of :func:`closed_sets`, whose step
    from s by x is kept only when the closure adds nothing below x.  The
    closure only grows, so the first element below ``floor`` that it adds
    stays in the result: returning None there gives the walk's decision
    without finishing, and a closure that never adds one runs in full and
    returns the same set as without ``floor``.  The test is one AND of the
    added members with the mask of the elements below ``floor``.

    ``ideal``, if given, is the pair ``(I, sums)`` of :func:`ideal_sums`:
    a set I inside ``base`` that every table but the first absorbs
    (``t[f][g]`` lies in I whenever g does; for the tables ``add``,
    ``mul`` and ``mul_t`` of End(M), I the sums of elementary maps, a
    two-sided ideal), and for each f outside I the mask of the products
    ``first[f][d]`` over d in I.  A popped element then reads every table
    only at the processed elements outside I, and takes its products
    with I by the first table from ``sums``.  The result is the same, by
    two lemmas:

    - A product with a member of I read away by the other tables is in
      I, inside ``base``, so it is already a member and adds nothing.
    - The products of f with I by the first table depend on f alone, not
      on the set being closed, so they are read once per walk, in
      :func:`ideal_sums`, and not once per closure: a walk of
      :func:`closed_sets` from a ``base`` holding I closes only sets
      holding ``base``, and a popped element lies outside ``base``.
    """
    members = base
    if ideal is None:
        outside, sums = members_of(base), None
    else:
        inside, sums = ideal
        outside = members_of(base & ~inside)
    work = []
    for f in seeds:
        if not members >> f & 1:
            members |= 1 << f
            work.append(f)
    below = 0 if floor is None else (1 << floor) - 1
    while work:
        f = work.pop()
        outside.append(f)
        new = set()
        for t in tables:
            new.update(map(t[f].__getitem__, outside))
        if images is not None:
            new.update(images[f])
        added = mask_of(new)
        if sums is not None:
            added |= sums[f]
        added &= ~members
        if added & below:
            return None
        members |= added
        work.extend(members_of(added))
    return members


def relabel(table, rows, cols, label):
    """``label[table[a][b]]`` for a in ``rows`` and b in ``cols``, as a
    tuple of rows: the table of a quotient (``rows`` the block
    representatives, ``label`` the block ids) or of a restriction
    (``rows`` the sorted members, ``label`` their positions)."""
    return tuple(tuple(label[table[a][b]] for b in cols) for a in rows)


def closed_sets(base, n, extend, *, noun):
    """Every closed set of a closure operator c on the elements
    ``range(n)`` between the closed set ``base`` and the set of all
    elements, each a mask (bit x set for each member x), ordered by
    ascending (size, sorted members).

    ``extend(s, x)`` is c(s ∪ {x}), as a mask, the least closed set
    containing the closed set s and the element x.  The walk runs over
    the elements in ascending order, Close-by-One (Kuznetsov 1993).  A set
    T found from s by x is kept only when T − s holds no element below x,
    one AND of ``t & ~s`` with the mask ``(1 << x) - 1``, and a kept T is
    extended only by the elements above x that it lacks (``base`` by all
    of them).  Every closed set T above ``base`` is then built exactly
    once, by this lemma.  Let the greedy path of T be A_0 = ``base``, y_j
    the least element of T that A_{j-1} lacks, and A_j = c(A_{j-1} ∪
    {y_j}), until A_k = T.

    - The walk takes the greedy path.  Each A_j lies in T, since c is
      monotone and T = c(T) contains A_{j-1} and y_j; so the path grows
      strictly inside T and ends at T.  Every element of T below y_j is
      in A_{j-1}, so A_j − A_{j-1} holds nothing below y_j and the step is
      kept; and A_j holds every element of T up to y_j, so y_{j+1} > y_j
      and the walk allows the next step.
    - The walk takes no other path.  Along any path of kept steps
      A_0, y_1, A_1, ..., y_k, A_k the y_j increase, and step j adds y_j
      and nothing below it.  So y_j is the least element of A_k that
      A_{j-1} lacks, the path is the greedy path of A_k, and a set is
      found once.

    So no set is built twice and none needs to be looked up.
    ``SizeLimit`` is raised once more than ``SET_LIMIT`` sets exist.

    ``extend(s, x)`` may return None instead of a set T that would not be
    kept, and may stop its closure early to do so, by this lemma.  If the
    closure from s ∪ {x} adds some y < x, then y lies outside s, and
    since a closure only grows, y is in T − s: the step fails the test
    above whatever else the closure adds.  So stopping at the first such
    y gives the same decision, and a kept step never meets one, so it is
    closed in full and every set found is unchanged.  The walks over
    element tables pass ``floor=x`` to :func:`close` for this.

    The order needs no member list.  Two sets of one size with sorted
    members a < b first differ at some index k, where a_k < b_k; they
    agree below, so y = a_k is the least element of the symmetric
    difference, and it lies in the first set.  Reading each mask's bits
    from bit 0 up as a string of ``0`` and ``1``, the first string holds
    ``1`` at y where the second holds ``0``, and the two agree before y:
    sets of one size in ascending member order are their bit strings in
    descending order.
    """
    rest = (1 << n) - 1
    found = [base]
    stack = [(base, 0)]
    while stack:
        s, start = stack.pop()
        for x in members_of((rest & ~s) >> start << start):
            t = extend(s, x)
            if t is None or (t & ~s) & ((1 << x) - 1):
                continue
            if len(found) >= SET_LIMIT:
                raise SizeLimit(f"more than {SET_LIMIT} {noun}")
            found.append(t)
            stack.append((t, x + 1))
    return sorted(found, key=lambda s: (-s.bit_count(), bin(s)[:1:-1]), reverse=True)


def close_congruence(n, pairs, tables, total_pair=None):
    """Least partition of range(n) containing ``pairs`` and compatible with
    every table in ``tables``, as one block label per element; None as
    soon as a merge makes it total.

    A table ``t`` lists the translations of each element: ``t[u][a]`` is
    the image of u under the a-th translation.  For a semiring the tables
    are ``add`` (u + a), ``mul`` (u * a) and ``mul_t`` (a * u); for a
    module, its addition and the columns of its action (r u); with
    ``tables=()`` the result is the equivalence generated by ``pairs``.
    The closure runs a union-find forest of its own, started from the
    identity partition; three lemmas make it exact:

    - Pushing only the translations of merged roots gives the least
      congruence.  Each merge joins two roots u and v and pushes
      ``zip(t[u], t[v])`` for every table, and each pushed pair is popped
      and merged before the stack runs empty.  Every block is connected by
      such merge edges, and the translations of a merge edge end in one
      block; so, by transitivity along a path, do the translations of any
      two elements of a block: the partition is compatible.  It is also
      least: by induction every pair on the stack lies in any compatible
      partition that contains ``pairs``, so the roots it joins do too, and
      so do their translations.
    - Stopping as soon as the partition is total is exact.  The partition
      only grows and stays inside the least compatible one, so once it
      relates two elements that only the total partition relates, that
      one is total too, and no pair left on the stack could change it.
      Without ``total_pair`` the closure stops at one block.
      ``total_pair`` names two elements that no compatible partition but
      the total one relates, such as :func:`zero_top_pair` when ``add``
      is one of the tables; the closure then stops as soon as their two
      roots coincide, before the forest has one block.
    - Compatibility of a given partition P is decided by closing.  Let
      ``pairs`` relate each element to the first element of its block in
      P (``Congruence.pairs``), so that the equivalence they generate is
      P.  Their closure is then the least compatible partition containing
      P; it equals P exactly when P is compatible, since a compatible P is
      its own least compatible superset and the closure is compatible.
    """
    parent = list(range(n))
    blocks = n
    # roots of the two ends of total_pair; -1 and -2 are never roots
    z, w = (-1, -2) if total_pair is None else total_pair
    stack = list(pairs)
    while stack:
        u, v = stack.pop()
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        if u == v:
            continue
        parent[v] = u
        blocks -= 1
        if v == z:
            z = u
        elif v == w:
            w = u
        if z == w or blocks == 1:
            return None
        for t in tables:
            stack.extend(zip(t[u], t[v]))
    labels = []
    for x in range(n):
        while parent[x] != x:
            x = parent[x]
        labels.append(x)
    return labels


def only_total_principals(add, zero, tables):
    """Whether every congruence compatible with ``tables``, which include
    ``add`` with identity ``zero``, is the identity or total: the closure
    of each pair of :func:`principal_test_pairs` is total, each stopped at
    the pair of :func:`zero_top_pair`."""
    stop = zero_top_pair(add, zero)
    return all(close_congruence(len(add), [pair], tables, stop) is None
               for pair in principal_test_pairs(add))


def idempotent(table):
    """Whether x op x = x for every x of the operation ``table``."""
    return all(row[x] == x for x, row in enumerate(table))


def identity(table):
    """The first x whose row of the operation ``table`` (a tuple of tuples)
    is the identity row, x op y = y for every y; None if there is none.
    A commutative operation has at most one identity."""
    cells = tuple(range(len(table)))
    return table.index(cells) if cells in table else None


def absorbing(add):
    """The absorbing element z of the commutative addition ``add``, with
    z + x = z for every x; None if there is none.

    There is at most one, and it is the sum of all elements, by this
    lemma.  If z and z' both absorb, then z = z + z' = z'.  If z absorbs,
    the sum of all elements is z plus the sum of the others, which is z.
    So the sum is the only candidate, and its row tells whether it
    absorbs.  With idempotent + the sum s always absorbs: x + s = s for
    every x, since x already occurs in s and x + x = x.
    """
    top = 0
    for x in range(1, len(add)):
        top = add[top][x]
    return top if add[top].count(top) == len(add) else None


def zero_top_pair(add, zero):
    """``(zero, top)``, with top the absorbing element of
    :func:`absorbing`, when the commutative addition ``add`` is idempotent
    and has identity ``zero``; None otherwise.

    Only the total congruence relates the two, by this lemma.  With
    idempotent + the top exists and x + top = top for every x.  If a
    congruence θ compatible with + relates zero and top, adding x to both
    sides gives x = x + zero θ x + top = top for every x, so θ is total.
    :func:`close_congruence` stops on this pair (``total_pair``) long
    before the closure reaches one block.
    """
    if not idempotent(add):
        return None
    return zero, absorbing(add)


def down_masks(add):
    """The order x ≤ y iff x + y = y of the commutative table ``add`` as
    down-set bitmasks: bit x of ``down[y]`` is set iff y + x = y."""
    return tuple([sum(1 << x for x, v in enumerate(row) if v == y) for y, row in enumerate(add)])


def lower_covers(down):
    """The covering relation of the order given by the bitmasks ``down``
    of :func:`down_masks`, one mask per element: bit c of ``covers[b]`` is
    set iff c ⋖ b, that is c < b and no x has c < x < b.  ``down[b]``
    holds every x ≤ b, so the elements strictly below b that lie below
    another element strictly below b are the union of the strict down-sets
    of those elements, and the rest are b's lower covers."""
    covers = []
    for b, below in enumerate(down):
        strict = below & ~(1 << b)
        shadowed = 0
        rest = strict
        while rest:
            low = rest & -rest
            shadowed |= down[low.bit_length() - 1] & ~low
            rest ^= low
        covers.append(strict & ~shadowed)
    return tuple(covers)


def principal_test_pairs(add):
    """Pairs whose principal congruences decide simplicity: the covering
    pairs (c, b), c ⋖ b, of the order x ≤ y iff x + y = y when the
    commutative addition ``add`` is idempotent, and every pair x < y
    otherwise.

    A structure whose congruences are compatible with ``add`` (a semiring,
    or a module with this addition) has only the trivial congruences iff
    the least congruence containing each returned pair is total, by this
    lemma.  Let + be idempotent and x θ y for a congruence θ and x ≠ y.
    Adding x to both sides gives x θ x + y, and likewise y θ x + y; one of
    x, y differs from w = x + y, say x < w.  If x ≤ z ≤ w, adding z to
    both sides of x θ w gives z θ w.  Take c with x ≤ c ⋖ w: then c θ w,
    so every principal congruence Θ(x, y) contains Θ(c, w) for a covering
    pair, and if those are all total, so is every Θ(x, y).

    The covers are the masks of :func:`lower_covers`, read by b and then
    by ascending c.
    """
    n = len(add)
    if not idempotent(add):
        return [(x, y) for x in range(n) for y in range(x + 1, n)]
    return [(c, b) for b, covered in enumerate(lower_covers(down_masks(add)))
            for c in members_of(covered)]


def _joint_colors(structures):
    """Colour refinement run on several ``(tables, zero)`` structures at
    once, so that colours are comparable across them: an isomorphism maps
    each element to one of the same colour.

    The first colour of x is whether it is the zero, then per table the
    number of a with ``t[x][a] == x`` and whether ``t[x][x]`` is the zero.
    Each round colours x by its colour and the sorted profile of
    ``(colour of a, colour of t[x][a] per table)`` over all a, and the
    refinement stops once a round splits no colour class of any structure.
    Colours are numbered by first appearance, from 0 to ``count - 1``, so a
    profile entry is written as one integer with these colours as its
    digits in base ``count``.  That code is injective, so the profiles, and
    with them the numbered colours, are those of the entries as tuples.
    """
    ranks = {}
    cols = [[ranks.setdefault((x == zero, *(t[x].count(x) for t in tables),
                               *(t[x][x] == zero for t in tables)), len(ranks))
             for x in range(len(tables[0]))]
            for tables, zero in structures]
    count = len(ranks)
    while True:
        ranks = {}
        new = []
        for (tables, _), col in zip(structures, cols):
            digits = [(t, [c * count ** k for c in col]) for k, t in enumerate(tables, 1)]
            sig = []
            for x, c in enumerate(col):
                entries = col
                for t, scaled in digits:
                    entries = map(add, entries, map(scaled.__getitem__, t[x]))
                sig.append((c, tuple(sorted(entries))))
            new.append([ranks.setdefault(s, len(ranks)) for s in sig])
        cols = new
        # each signature holds the old colour, so the classes only split
        if len(ranks) == count:
            return cols
        count = len(ranks)


def table_iso(tables1, zero1, tables2, zero2):
    """An isomorphism of the structure ``tables1`` with zero ``zero1`` onto
    ``tables2`` with zero ``zero2``, as the tuple of images, or None.

    The tables are translation tables as in :func:`close_congruence`:
    ``(add, mul, mul_t)`` for a semiring, ``(join,)`` for a lattice.  A
    mapping f is an isomorphism iff it is a bijection with
    ``f[zero1] == zero2`` and ``f[t1[x][a]] == t2[f[x]][f[a]]`` for every
    pair of tables (:func:`is_table_iso`).  Each list must hold the
    transpose of each of its tables (``mul_t`` of ``mul``; a commutative
    table is its own), so that ``t[x][a]`` over all tables covers every
    product of x and a in both orders.

    Backtracking with colour pruning: the zero is mapped first, and each
    level of the search then maps a generator, the least unmapped element
    by (size of its colour class, index), to each free element of its
    colour in turn.  Each assignment x -> y propagates
    ``t1[x][w] -> t2[y][f(w)]`` for every w already mapped, x included, so
    every pair of mapped elements meets once in the propagation and a
    completed mapping is an isomorphism.  The unmapped elements are
    exactly those outside the closure of the zero and the generators taken
    so far under every table, by this lemma.  After an assignment
    succeeds, the mapped set is closed, since each t1[a][w] with a and w
    mapped was pushed when the later of the two was mapped; and each
    mapped element is the zero, a generator or such a product, so it lies
    in every closed set holding them.  So each generator lies outside the
    closure of the earlier ones, and the images of the zero and the
    generators determine the whole mapping.
    """
    n = len(tables1[0])
    if len(tables2[0]) != n:
        return None
    c1, c2 = _joint_colors(((tables1, zero1), (tables2, zero2)))
    if sorted(c1) != sorted(c2):
        return None
    class_size = Counter(c1)
    rarest = sorted(range(n), key=lambda x: (class_size[c1[x]], x))
    pairs = tuple(zip(tables1, tables2))
    fwd = [None] * n
    bwd = [None] * n
    trail = []

    def assign(u, v):
        """Record u -> v and propagate through every table."""
        stack = [(u, v)]
        while stack:
            a, b = stack.pop()
            if fwd[a] is not None:
                if fwd[a] != b:
                    return False
                continue
            if bwd[b] is not None or c1[a] != c2[b]:
                return False
            fwd[a] = b
            bwd[b] = a
            trail.append(a)
            for t1, t2 in pairs:
                row1, row2 = t1[a], t2[b]
                stack.extend([(row1[w], row2[fwd[w]]) for w in trail])
        return True

    def rec():
        g = next((x for x in rarest if fwd[x] is None), None)
        if g is None:
            return True
        for v in range(n):
            if bwd[v] is not None or c2[v] != c1[g]:
                continue
            mark = len(trail)
            if assign(g, v) and rec():
                return True
            while len(trail) > mark:
                a = trail.pop()
                bwd[fwd[a]] = None
                fwd[a] = None
        return False

    if not (assign(zero1, zero2) and rec()):
        return None
    return tuple(fwd)


def is_table_iso(mapping, tables1, zero1, tables2, zero2):
    """Whether ``mapping`` (the image of each element) is an isomorphism of
    the structures of :func:`table_iso`: a bijection sending ``zero1`` to
    ``zero2`` with ``mapping[t1[x][a]] == t2[mapping[x]][mapping[a]]`` for
    every pair of tables and all x, a."""
    n = len(tables1[0])
    if len(tables2[0]) != n or sorted(mapping) != list(range(n)) or mapping[zero1] != zero2:
        return False
    image = mapping.__getitem__
    return all(list(map(image, t1[x])) == list(map(t2[mapping[x]].__getitem__, mapping))
               for t1, t2 in zip(tables1, tables2) for x in range(n))
