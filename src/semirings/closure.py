"""The one subset closure and the one closed-set walk of the package.

Subsemirings of End(M), subsemirings of a Cayley-table semiring and
subsemimodules are all least sets closed under some binary products and,
for modules, a unary action.  Each is closed here by :func:`close` and
enumerated by :func:`closed_sets`; the callers only say what the products
of two elements are.
"""

from __future__ import annotations

from .errors import SizeLimit


def close(base, seeds, products, images=None, max_size=None):
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

    ``SizeLimit`` is raised when a generated element would be added to a
    set that already holds ``max_size`` members, so a closure larger than
    ``max_size`` (and larger than ``base`` plus ``seeds``) always raises.
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
                if max_size is not None and len(members) >= max_size:
                    raise SizeLimit(f"closure exceeds {max_size} elements")
                members.add(h)
                work.append(h)
    return frozenset(members)


def closed_sets(base, universe, products, images=None, *, max_count, noun):
    """Every closed set between the closed set ``base`` and ``universe``,
    ordered by ascending (size, sorted members).

    Walks upward: each set found is extended by each element of
    ``universe`` it lacks, and closed incrementally from that element.
    Every closed set above ``base`` is reached, because it is the closure
    of ``base`` and its members added one at a time.  ``SizeLimit`` is
    raised once more than ``max_count`` sets exist.
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
                if len(seen) >= max_count:
                    raise SizeLimit(f"more than {max_count} {noun}")
                seen.add(t)
                stack.append(t)
    return sorted(seen, key=lambda s: (len(s), sorted(s)))
