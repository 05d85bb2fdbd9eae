"""Left semimodules over a finite semiring, and the descent that produces
an irreducible one for any congruence-simple semiring with nonzero
multiplication.

A semimodule is a commutative monoid table plus a dense |R| x m action
table.  Congruences here are compatible with addition by module elements
and with the left action (not with right multiplication), so a semiring
has more module congruences over itself than semiring congruences.
"""

from __future__ import annotations

from dataclasses import dataclass

from .closure import (
    SET_LIMIT,
    close,
    close_congruence,
    closed_sets,
    compatible,
    idempotent,
    only_total_principals,
    zero_top_pair,
)
from .errors import (
    AnnulatorIsEverything,
    LineReader,
    ModuleAxiomFail,
    NotALattice,
    NotCompatible,
    ParseError,
    PreconditionFailed,
    SizeLimit,
    check_table,
)
from .endo import EndoSubsemiring, is_dense, zero_map
from .lattice import validate_lattice
from .semiring import Congruence, is_congruence_simple, structure_flags


class Semimodule:
    __slots__ = ("ring", "m", "madd", "act", "mzero", "name", "_act_t")

    def __init__(self, ring, m, madd, act, mzero, name=None):
        self.ring = ring
        self.m = m
        self.madd = madd
        self.act = act
        self.mzero = mzero
        self.name = name
        self._act_t = None

    @property
    def act_t(self):
        """Columns of the action table: per element, its orbit profile."""
        if self._act_t is None:
            self._act_t = tuple(zip(*self.act))
        return self._act_t

    def __repr__(self):
        return f"Semimodule(m={self.m}, ring_n={self.ring.n})"


def validate_semimodule(ring, madd, act, name=None):
    """Check monoid and action axioms; the module zero is detected as the
    neutral element of the addition table."""
    madd = tuple(tuple(row) for row in madd)
    act = tuple(tuple(row) for row in act)
    m = len(madd)
    check_table(madd, m, "madd ")
    if len(act) != ring.n:
        raise ParseError(f"act table has {len(act)} rows, expected {ring.n}")
    check_table(act, m, "act ")
    mzero = None
    for e in range(m):
        if all(madd[e][x] == x for x in range(m)):
            mzero = e
            break
    if mzero is None:
        raise ModuleAxiomFail("addition has no neutral element")
    for x in range(m):
        for y in range(x + 1, m):
            if madd[x][y] != madd[y][x]:
                raise ModuleAxiomFail("x + y != y + x", (x, y))
    for x in range(m):
        for y in range(m):
            axy = madd[x][y]
            for z in range(m):
                if madd[axy][z] != madd[x][madd[y][z]]:
                    raise ModuleAxiomFail("(x+y)+z != x+(y+z)", (x, y, z))
    for x in range(m):
        if act[ring.zero][x] != mzero:
            raise ModuleAxiomFail("0_R x != 0_M", (x,))
    for r in range(ring.n):
        if act[r][mzero] != mzero:
            raise ModuleAxiomFail("r 0_M != 0_M", (r,))
        for s in range(ring.n):
            rs = ring.mul[r][s]
            r_plus_s = ring.add[r][s]
            for x in range(m):
                if act[r][act[s][x]] != act[rs][x]:
                    raise ModuleAxiomFail("r(sx) != (rs)x", (r, s, x))
                if act[r_plus_s][x] != madd[act[r][x]][act[s][x]]:
                    raise ModuleAxiomFail("(r+s)x != rx+sx", (r, s, x))
        for x in range(m):
            for y in range(m):
                if act[r][madd[x][y]] != madd[act[r][x]][act[r][y]]:
                    raise ModuleAxiomFail("r(x+y) != rx+ry", (r, x, y))
    return Semimodule(ring, m, madd, act, mzero, name)


def regular_module(ring):
    """The semiring acting on itself by left multiplication."""
    return Semimodule(ring, ring.n, ring.add, ring.mul, ring.zero,
                      name=None if ring.name is None else f"{ring.name}_reg")


def natural_module(sub):
    """A subsemiring of End(M) acting on M by application."""
    lat = sub.lattice
    members = sub.sorted_members()
    ring = sub.to_semiring()
    act = tuple(tuple(f[x] for x in range(lat.n)) for f in members)
    return validate_semimodule(ring, lat.join, act)


def acts_nonzero(mod):
    return any(v != mod.mzero for row in mod.act for v in row)


def _products(mod):
    """The sum of two module elements; the action closes through the images
    ``mod.act_t[x]`` of each element instead."""
    madd = mod.madd

    def products(x, y):
        return (madd[x][y],)

    return products


def close_module_subset(mod, seed):
    """Least subset containing seed and the module zero, closed under
    addition and the action."""
    return close(frozenset(), (mod.mzero, *seed), _products(mod), mod.act_t.__getitem__)


def subsemimodules(mod):
    """All action-stable submonoids, smallest first."""
    return closed_sets(close_module_subset(mod, ()), range(mod.m), _products(mod),
                       mod.act_t.__getitem__, noun="subsemimodules")


def submodule(mod, subset, name=None):
    members = sorted(subset)
    index = {x: i for i, x in enumerate(members)}
    madd = tuple(tuple(index[mod.madd[a][b]] for b in members) for a in members)
    act = tuple(tuple(index[mod.act[r][b]] for b in members) for r in range(mod.ring.n))
    return Semimodule(mod.ring, len(members), madd, act, index[mod.mzero], name)


# ---------------------------------------------------------------------------
# module congruences


def _translations(mod):
    """Sums with each module element and images under each ring element."""
    return mod.madd, mod.act_t


def module_principal(mod, x, y):
    """Least module congruence identifying x and y."""
    return Congruence.generated(mod.m, [(x, y)], _translations(mod))


def is_module_congruence(mod, cong):
    """Whether ``cong`` is compatible with the module addition and the
    action; the translations by + are the rows of ``madd``, as + commutes."""
    return cong.n == mod.m and compatible(cong.blocks, _translations(mod))


def module_congruences(mod):
    """Every module congruence, as joins of the principal ones."""
    m = mod.m
    found = {Congruence(m, tuple(range(m)))}
    principals = set()
    for x in range(m):
        for y in range(x + 1, m):
            principals.add(module_principal(mod, x, y))
    found |= principals
    work = list(found)
    while work:
        c = work.pop()
        for p in principals:
            joined = Congruence.generated(m, _pairs_of(c) + _pairs_of(p),
                                          _translations(mod))
            if joined not in found:
                if len(found) >= SET_LIMIT:
                    raise SizeLimit(f"more than {SET_LIMIT} module congruences")
                found.add(joined)
                work.append(joined)
    return sorted(found, key=lambda c: (c.num_blocks, c.blocks), reverse=True)


def _pairs_of(cong):
    reps = {}
    pairs = []
    for x, b in enumerate(cong.blocks):
        if b in reps:
            pairs.append((reps[b], x))
        else:
            reps[b] = x
    return pairs


def maximal_nontotal_congruence(mod):
    """A module congruence maximal among the nontotal ones.

    Greedy single pass: try to absorb each pair in turn, keeping the
    closure only while it stays nontotal.  After the pass no further pair
    can be added, which is exactly maximality.  With idempotent addition
    a closure that relates the module zero and the top of
    ``closure.zero_top_pair`` is total (x = x + 0 θ x + top = top), so it
    is abandoned at that merge; a nontotal closure runs to the end, and
    the partition kept is the same as with the stop at one block.
    """
    m = mod.m
    tables = _translations(mod)
    stop = zero_top_pair(mod.madd, mod.mzero)
    current = []
    blocks = Congruence(m, tuple(range(m)))
    for x in range(m):
        for y in range(x + 1, m):
            if blocks.same(x, y):
                continue
            parent = list(range(m))
            if close_congruence(parent, current + [(x, y)], tables, stop) > 1:
                current.append((x, y))
                blocks = Congruence.from_parents(parent)
    return blocks


def quotient_module(mod, cong, name=None):
    if not is_module_congruence(mod, cong):
        raise NotCompatible("partition is not a module congruence")
    k = cong.num_blocks
    reps = [None] * k
    for x in range(mod.m):
        if reps[cong.blocks[x]] is None:
            reps[cong.blocks[x]] = x
    madd = tuple(tuple(cong.blocks[mod.madd[a][b]] for b in reps) for a in reps)
    act = tuple(tuple(cong.blocks[mod.act[r][b]] for b in reps) for r in range(mod.ring.n))
    return Semimodule(mod.ring, k, madd, act, cong.blocks[mod.mzero], name)


# ---------------------------------------------------------------------------
# irreducibility


@dataclass(frozen=True)
class Irreducibility:
    acts_nonzero: bool
    sub_irreducible: bool
    quotient_irreducible: bool

    @property
    def irreducible(self):
        return self.sub_irreducible and self.quotient_irreducible


def _only_trivial_congruences(mod):
    """True iff every principal module congruence on a distinct pair is
    total, by ``closure.only_total_principals``: the covering-pair lemma
    and the zero-top stop use only compatibility with addition, so they
    hold for modules with idempotent addition as for semirings."""
    return only_total_principals(mod.madd, mod.mzero, _translations(mod))


def irreducibility(mod):
    """Irreducibility flags; with a nonzero action, the only submodules are
    zero and the whole module iff every nonzero element generates it, that
    is iff the least single-generated nonzero submodule is the whole."""
    nz = acts_nonzero(mod)
    return Irreducibility(
        acts_nonzero=nz,
        sub_irreducible=nz and len(minimal_nonzero_submodule(mod)) == mod.m,
        quotient_irreducible=nz and _only_trivial_congruences(mod),
    )


def minimal_nonzero_submodule(mod):
    """Smallest single-generated nonzero subsemimodule; ties go to the
    least generator."""
    best = None
    for x in range(mod.m):
        if x == mod.mzero:
            continue
        s = close_module_subset(mod, (x,))
        if best is None or len(s) < len(best):
            best = s
    return best


def descend_to_irreducible(r, check=True):
    """The irreducible-semimodule descent.

    Starts from the semiring acting on itself, quotients by a maximal
    nontotal congruence, then alternately passes to a minimal nonzero
    subsemimodule or quotients again until both kinds of structure are
    trivial.  Sizes strictly decrease after the first quotient, so this
    terminates.  Returns the full chain of modules.
    """
    if check:
        flags = structure_flags(r)
        if flags.trivial_mul:
            raise PreconditionFailed("multiplication is trivial")
        if not is_congruence_simple(r):
            raise PreconditionFailed("semiring is not congruence-simple")
    m0 = regular_module(r)
    chain = [m0]
    m1 = quotient_module(m0, maximal_nontotal_congruence(m0))
    chain.append(m1)
    cur = m1
    while True:
        flags = irreducibility(cur)
        if flags.irreducible:
            return chain
        if not flags.acts_nonzero:
            raise PreconditionFailed("descent reached a zero-action module")
        if not flags.sub_irreducible:
            nxt = submodule(cur, minimal_nonzero_submodule(cur))
        else:
            nxt = quotient_module(cur, maximal_nontotal_congruence(cur))
        if nxt.m >= cur.m:
            raise PreconditionFailed("descent stopped shrinking")
        cur = nxt
        chain.append(cur)


def find_irreducible(r, check=True):
    """A finite irreducible semimodule over a congruence-simple semiring
    with nonzero multiplication."""
    return descend_to_irreducible(r, check=check)[-1]


# ---------------------------------------------------------------------------
# representation, annihilators, commutant


def module_lattice(mod):
    """The addition table as a lattice; requires idempotent addition."""
    if not idempotent(mod.madd):
        raise NotALattice("module addition is not idempotent")
    return validate_lattice(mod.madd, zero=mod.mzero)


@dataclass(frozen=True)
class Representation:
    subsemiring: EndoSubsemiring
    action_maps: tuple
    faithful: bool
    dense: bool


def representation(r, mod):
    """The map sending each semiring element to its action endomorphism.

    Returns the image subsemiring of End(module lattice) with flags:
    faithful (injective) and dense (contains every elementary map).
    """
    lat = module_lattice(mod)
    maps = tuple(tuple(mod.act[x]) for x in range(r.n))
    sub = EndoSubsemiring(lat, frozenset(maps))
    return Representation(
        subsemiring=sub,
        action_maps=maps,
        faithful=sub.size == r.n,
        dense=is_dense(sub),
    )


def annihilator(mod, x):
    """Semiring elements acting as zero on the single element x."""
    return frozenset(r for r in range(mod.ring.n) if mod.act[r][x] == mod.mzero)


def annihilator_congruence(mod):
    """Partition of module elements by equal annihilator sets."""
    keys = {}
    blocks = []
    for x in range(mod.m):
        k = annihilator(mod, x)
        if k not in keys:
            keys[k] = len(keys)
        blocks.append(keys[k])
    return Congruence(mod.m, tuple(blocks))


def annulator(mod):
    """Module elements killed by the whole semiring."""
    return frozenset(
        x for x in range(mod.m)
        if all(mod.act[r][x] == mod.mzero for r in range(mod.ring.n))
    )


def annulator_quotient(mod):
    """Quotient by the congruence x ~ y iff x + a = y + b for annihilated
    a, b.  The zero class of the quotient is exactly the annulator."""
    ann = annulator(mod)
    if len(ann) == mod.m:
        raise AnnulatorIsEverything("the action is zero everywhere")
    reach = [frozenset(mod.madd[x][a] for a in ann) for x in range(mod.m)]
    pairs = [(x, y) for x in range(mod.m) for y in range(x + 1, mod.m)
             if reach[x] & reach[y]]
    cong = Congruence.generated(mod.m, pairs, ())
    return quotient_module(mod, cong), cong


def commutant(r, mod):
    """Endomorphisms of the module lattice commuting with every action map.

    Returns (EndoSubsemiring, is_semifield, is_trivial)."""
    from .endo import compose, endomorphisms, identity_map

    lat = module_lattice(mod)
    maps = [tuple(mod.act[x]) for x in range(r.n)]
    members = [
        f for f in endomorphisms(lat)
        if all(compose(f, t) == compose(t, f) for t in maps)
    ]
    sub = EndoSubsemiring(lat, frozenset(members))
    ident = identity_map(lat)
    zmap = zero_map(lat)
    semifield = True
    for f in members:
        if f == zmap:
            continue
        if not any(
            compose(f, g) == ident and compose(g, f) == ident for g in members
        ):
            semifield = False
            break
    trivial = set(members) == {zmap, ident}
    return sub, semifield, trivial


# ---------------------------------------------------------------------------
# text format ".smod": ring reference, m count, madd rows, blank, act rows


def parse_smod(text):
    reader = LineReader(text)
    ring_name = reader.field("ring", "name")
    m = reader.count("m")
    madd = tuple(reader.row(m, "entry") for _ in range(m))
    act = []
    while not reader.at_end():
        act.append(reader.row(m, "entry"))
    return ring_name, madd, tuple(act)


def load_smod(ring_name, madd, act, ring):
    if ring.name != ring_name:
        raise ParseError(f"ring {ring.name!r} does not match reference {ring_name!r}")
    return validate_semimodule(ring, madd, act)


def serialize_smod(mod):
    name = mod.ring.name or "unnamed"
    lines = [f"ring {name}", f"m {mod.m}"]
    for row in mod.madd:
        lines.append(" ".join(str(v) for v in row))
    lines.append("")
    for row in mod.act:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"
