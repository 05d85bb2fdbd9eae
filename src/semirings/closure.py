"""The one subset closure, the one closed-set walk, the one congruence
closure and the one isomorphism search and check of the package.

Subsemirings of End(M), subsemirings of a Cayley-table semiring and
subsemimodules are all least sets closed under some binary products and,
for modules, a unary action.  Each is closed here by :func:`close` and
enumerated by :func:`closed_sets`; the callers only say what the products
of two elements are.  Semiring congruences, module congruences and plain
equivalences generated by pairs are all least partitions compatible with
some translation tables; each is closed by :func:`close_congruence`, and
the callers only say which tables, as they do to :func:`compatible`.
Whether every principal congruence is total is decided on the pairs of
:func:`principal_test_pairs` alone (:func:`only_total_principals`), and
with idempotent addition a closure is known to be total as soon as it
relates the pair of :func:`zero_top_pair`.  Lattices and semirings have
one isomorphism search, :func:`table_iso`, and one isomorphism check,
:func:`is_table_iso`, over the same translation tables.
"""

from __future__ import annotations

from collections import Counter

from .errors import SizeLimit

# Most closed sets, or module congruences, one enumeration may find.
SET_LIMIT = 100000


def close(base, seeds, products, images=None):
    """Least superset of ``base`` and ``seeds`` closed under ``products``
    and ``images``, as a frozenset.

    ``products(f, g)`` returns every product of the unordered pair in both
    orders (for a semiring: f + g, f * g and g * f); ``images(f)``, if
    given, returns the unary images of f (for a module: its orbit under the
    action).  ``base`` must already be closed.  Two facts keep the work
    small:

    - Every pair of members of ``base`` already has its products in
      ``base``, and every member its images.  So only the seeds and the
      elements they generate go on the worklist: closing ``s | {f}`` for a
      closed ``s`` starts from ``f`` alone, not from all of ``s``.
    - Each unordered pair is visited once.  A popped element is paired
      only with the elements already processed, itself included; once the
      worklist is empty every member has been processed, so every pair
      has met exactly once.
    """
    members = set(base)
    done = list(members)
    work = []
    for f in seeds:
        if f not in members:
            members.add(f)
            work.append(f)
    while work:
        f = work.pop()
        done.append(f)
        new = [h for g in done for h in products(f, g) if h not in members]
        if images is not None:
            new.extend(h for h in images(f) if h not in members)
        for h in new:
            if h not in members:
                members.add(h)
                work.append(h)
    return frozenset(members)


def closed_sets(base, universe, products, images=None, *, noun):
    """Every closed set between the closed set ``base`` and ``universe``,
    ordered by ascending (size, sorted members).

    Walks upward: each set found is extended by each element of
    ``universe`` it lacks, and closed incrementally from that element.
    Every closed set above ``base`` is reached, because it is the closure
    of ``base`` and its members added one at a time.  ``SizeLimit`` is
    raised once more than ``SET_LIMIT`` sets exist.
    """
    seen = {base}
    stack = [base]
    while stack:
        s = stack.pop()
        for x in universe:
            if x in s:
                continue
            t = close(s, (x,), products, images)
            if t not in seen:
                if len(seen) >= SET_LIMIT:
                    raise SizeLimit(f"more than {SET_LIMIT} {noun}")
                seen.add(t)
                stack.append(t)
    return sorted(seen, key=lambda s: (len(s), sorted(s)))


def close_congruence(parent, pairs, tables, total_pair=None):
    """Merge ``pairs`` into the union-find forest ``parent``, in place, until
    the partition is compatible with every table in ``tables``; return the
    number of blocks left, or 1 as soon as the result is known to be total.

    A table ``t`` lists the translations of each element: ``t[u][a]`` is
    the image of u under the a-th translation.  For a semiring the tables
    are ``add`` (u + a), ``mul`` (u * a) and ``mul_t`` (a * u); for a
    module, its addition and the columns of its action (r u).  ``parent``
    must describe a partition already compatible with ``tables``, as the
    identity ``list(range(n))`` always is; with ``tables=()`` every
    partition is.  The result is then the least compatible partition
    containing the start partition and ``pairs``, by two lemmas:

    - Pushing only the translations of merged roots gives the least
      congruence.  Each merge joins two roots u and v and pushes
      ``zip(t[u], t[v])`` for every table, and each pushed pair is popped
      and merged before the stack runs empty.  Every block is connected by
      such merge edges and by edges inside start blocks, and the
      translations of both kinds of edge end in one block; so, by
      transitivity along a path, do the translations of any two elements
      of a block: the partition is compatible.  It is also least: by
      induction every pair on the stack lies in any compatible partition
      that contains the start and ``pairs``, so the roots it joins do too,
      and so do their translations.
    - Stopping as soon as the partition is total is exact.  The partition
      only grows and stays inside the least compatible one, so once it
      relates two elements that only the total partition relates, that
      one is total too, and no pair left on the stack could change it.
      Without ``total_pair`` the closure stops at one block.
      ``total_pair`` names two elements that no compatible partition but
      the total one relates, such as :func:`zero_top_pair` when ``add``
      is one of the tables; the closure then stops as soon as their two
      roots coincide and returns 1, and ``parent`` is left below the
      total partition.
    """
    blocks = sum(1 for x, p in enumerate(parent) if x == p)
    # roots of the two ends of total_pair; -1 and -2 are never roots
    z, w = -1, -2
    if total_pair is not None:
        z, w = total_pair
        while parent[z] != z:
            z = parent[z]
        while parent[w] != w:
            w = parent[w]
        if z == w:
            return 1
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
            return 1
        for t in tables:
            stack.extend(zip(t[u], t[v]))
    return blocks


def compatible(blocks, tables):
    """Whether the partition ``blocks`` (a block id per element) is
    compatible with the translation ``tables`` of :func:`close_congruence`.

    Each element x is compared with the first element f of its block only,
    by transitivity: if ``t[x][a]`` and ``t[f][a]`` share a block for every
    such x, then so do ``t[x][a]`` and ``t[y][a]`` for x, y in one block.
    """
    first = {}
    for x, b in enumerate(blocks):
        f = first.setdefault(b, x)
        if f == x:
            continue
        for t in tables:
            for u, v in zip(t[x], t[f]):
                if blocks[u] != blocks[v]:
                    return False
    return True


def only_total_principals(add, zero, tables):
    """Whether every congruence compatible with ``tables``, which include
    ``add`` with identity ``zero``, is the identity or total: the closure
    of each pair of :func:`principal_test_pairs` is total, each stopped at
    the pair of :func:`zero_top_pair`."""
    stop = zero_top_pair(add, zero)
    return all(close_congruence(list(range(len(add))), [pair], tables, stop) == 1
               for pair in principal_test_pairs(add))


def idempotent(table):
    """Whether x op x = x for every x of the operation ``table``."""
    return all(row[x] == x for x, row in enumerate(table))


def zero_top_pair(add, zero):
    """``(zero, top)``, with top the sum of all elements, when the
    commutative addition ``add`` is idempotent and has identity ``zero``;
    None otherwise.

    Only the total congruence relates the two, by this lemma.  Let + be
    idempotent.  Then x + top = top for every x, since x already occurs in
    the sum top.  If a congruence θ compatible with + relates zero and
    top, adding x to both sides gives x = x + zero θ x + top = top for
    every x, so θ is total.  :func:`close_congruence` stops on this pair
    (``total_pair``) long before the closure reaches one block.
    """
    if not idempotent(add):
        return None
    top = zero
    for x in range(len(add)):
        top = add[top][x]
    return zero, top


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

    The covers come from ``down``-style bitmasks, as in
    ``lattice.validate_lattice``: ``down[y]`` holds every x ≤ y, and c ⋖ b
    iff c < b and c lies below no other element strictly below b.
    """
    n = len(add)
    if not idempotent(add):
        return [(x, y) for x in range(n) for y in range(x + 1, n)]
    down = [0] * n
    for y in range(n):
        row = add[y]
        for x in range(n):
            if row[x] == y:
                down[y] |= 1 << x
    pairs = []
    for b in range(n):
        strict = down[b] & ~(1 << b)
        shadowed = 0
        rest = strict
        while rest:
            low = rest & -rest
            shadowed |= down[low.bit_length() - 1] & ~low
            rest ^= low
        covered = strict & ~shadowed
        while covered:
            low = covered & -covered
            pairs.append((low.bit_length() - 1, b))
            covered ^= low
    return pairs


def _joint_colors(structures):
    """Colour refinement run on several ``(tables, zero)`` structures at
    once, so that colours are comparable across them: an isomorphism maps
    each element to one of the same colour.

    The first colour of x is whether it is the zero, then per table the
    number of a with ``t[x][a] == x`` and whether ``t[x][x]`` is the zero.
    Each round colours x by its colour and the sorted profile of
    ``(colour of a, colour of t[x][a] per table)`` over all a, and the
    refinement stops once a round splits no colour class of any structure.
    """
    cols = [[(x == zero, *(t[x].count(x) for t in tables), *(t[x][x] == zero for t in tables))
             for x in range(len(tables[0]))]
            for tables, zero in structures]
    count = len({c for col in cols for c in col})
    while True:
        sigs = [[(col[x], tuple(sorted(zip(col, *(map(col.__getitem__, t[x]) for t in tables)))))
                 for x in range(len(col))]
                for (tables, _), col in zip(structures, cols)]
        ranks = {}
        cols = [[ranks.setdefault(s, len(ranks)) for s in sig] for sig in sigs]
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

    Backtracking with colour pruning: the zero is mapped first, then the
    generators picked from the rarest colour classes (the closure of the
    zero and the earlier generators under every table lacks each one),
    and each assignment x -> y propagates ``t1[x][w] -> t2[y][f(w)]`` for
    every w already mapped.  The images of the zero and the generators
    therefore determine the whole mapping, and every pair of elements
    meets once in the propagation, so a completed mapping is an
    isomorphism.
    """
    n = len(tables1[0])
    if len(tables2[0]) != n:
        return None
    c1, c2 = _joint_colors(((tables1, zero1), (tables2, zero2)))
    if sorted(c1) != sorted(c2):
        return None
    class_size = Counter(c1)

    def products(x, y):
        return [t[x][y] for t in tables1]

    gens = []
    members = close(frozenset(), (zero1,), products)
    while len(members) < n:
        g = min((x for x in range(n) if x not in members), key=lambda x: (class_size[c1[x]], x))
        gens.append(g)
        members = close(members, (g,), products)
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

    def rec(k):
        if k == len(gens):
            return None not in fwd
        g = gens[k]
        for v in range(n):
            if bwd[v] is not None or c2[v] != c1[g]:
                continue
            mark = len(trail)
            if assign(g, v) and rec(k + 1):
                return True
            while len(trail) > mark:
                a = trail.pop()
                bwd[fwd[a]] = None
                fwd[a] = None
        return False

    if not (assign(zero1, zero2) and rec(0)):
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
