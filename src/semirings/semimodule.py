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
    close,
    close_congruence,
    closed_sets,
    idempotent,
    identity,
    only_total_principals,
    principal_test_pairs,
    relabel,
    zero_top_pair,
)
from .errors import (
    LineReader,
    ParseError,
    PreconditionFailed,
    ValidationError,
    associative_cases,
    check_axiom,
    check_table,
    commutative_cases,
    format_tables,
)
from .endo import EndoSubsemiring, compose, endomorphisms, identity_map, is_dense, zero_map
from .lattice import FiniteLattice
from .semiring import Congruence, absorbing_ideal, is_congruence_simple, structure_flags


class Semimodule:
    """The addition ``madd`` on 0..m-1, m = len(madd), with ``mzero`` its
    identity read by ``closure.identity``, the action ``act[r][x]`` of
    ``ring`` and ``act_t`` its columns (row x holds r x for each r), the
    tables kept as tuples of tuple rows; unchecked."""

    __slots__ = ("ring", "m", "madd", "act", "mzero", "act_t")

    def __init__(self, ring, madd, act):
        madd = tuple(map(tuple, madd))  # list rows would not match tuple rows
        act = tuple(map(tuple, act))
        self.ring = ring
        self.m = len(madd)
        self.madd = madd
        self.act = act
        self.mzero = identity(madd)
        self.act_t = tuple(zip(*act))

    def __repr__(self):
        return f"Semimodule(m={self.m}, ring_n={self.ring.n})"


def validate_semimodule(ring, madd, act):
    """The Semimodule of an addition and an action table from outside the
    package, over the validated semiring ``ring``.

    After the shape checks, the module zero is the first neutral element
    of ``madd`` (``closure.identity``), and ``errors.check_axiom`` checks
    six axioms in this order, each raising ``ValidationError`` on the first
    witness: x + y = y + x, (x + y) + z = x + (y + z), 0_R x = 0_M,
    r(sx) = (rs)x, (r + s)x = rx + sx and r(x + y) = rx + ry.  Then
    r 0_M = 0_M holds too: r 0_M = r(0_R 0_M) = (r 0_R) 0_M = 0_R 0_M = 0_M.
    """
    madd = tuple(tuple(row) for row in madd)
    act = tuple(tuple(row) for row in act)
    m = len(madd)
    check_table(madd, m, "madd ")
    if len(act) != ring.n:
        raise ParseError(f"act table has {len(act)} rows, expected {ring.n}")
    check_table(act, m, "act ")
    mzero = identity(madd)
    if mzero is None:
        raise ValidationError("addition has no neutral element")
    check_axiom("x + y != y + x", commutative_cases(madd))
    check_axiom("(x+y)+z != x+(y+z)", associative_cases(madd))
    check_axiom("0_R x != 0_M", [((), act[ring.zero], (mzero,) * m)])
    check_axiom("r(sx) != (rs)x", (
        ((r, s), tuple(map(row.__getitem__, act[s])), act[v])
        for r, row in enumerate(act) for s, v in enumerate(ring.mul[r])))
    check_axiom("(r+s)x != rx+sx", (
        ((r, s), act[v], tuple(madd[a][b] for a, b in zip(row, act[s])))
        for r, row in enumerate(act) for s, v in enumerate(ring.add[r])))
    check_axiom("r(x+y) != rx+ry", (
        ((r, x), tuple(map(row.__getitem__, madd[x])), tuple(map(madd[row[x]].__getitem__, row)))
        for r, row in enumerate(act) for x in range(m)))
    return Semimodule(ring, madd, act)


def regular_module(ring):
    """The semiring acting on itself by left multiplication."""
    return Semimodule(ring, ring.add, ring.mul)


def acts_nonzero(mod):
    return any(v != mod.mzero for row in mod.act for v in row)


def close_module_subset(mod, seed):
    """Least subset containing seed and the module zero, closed under
    addition and the action."""
    # the sums are the products; the action closes through the images act_t[x]
    return close(frozenset(), (mod.mzero, *seed), (mod.madd,), mod.act_t)


def subsemimodules(mod):
    """All action-stable submonoids, smallest first."""
    return closed_sets(close_module_subset(mod, ()), range(mod.m),
                       lambda s, x: close(s, (x,), (mod.madd,), mod.act_t, floor=x),
                       noun="subsemimodules")


def ideal_module(r):
    """The left ideal R·z of ``semiring.absorbing_ideal`` as a submodule
    of the regular module, or None when R has no such ideal.  On a
    congruence-simple non-ring of order > 2 it is the irreducible module
    of the dense representation (``iso_to_dense_subsemiring``)."""
    ideal = absorbing_ideal(r)
    return None if ideal is None else submodule(regular_module(r), ideal)


def iso_to_dense_subsemiring(r):
    """Decide whether a finite semiring is isomorphic to a dense subsemiring
    of the endomorphism semiring of some finite idempotent commutative
    monoid, and return (the lattice of R·z, the image subsemiring) as a
    witness, else None.

    That is exactly when R acts faithfully on its left ideal R·z
    (``ideal_module``, z additively absorbing) with a dense image, as
    ``representation`` decides, by this lemma:

    - If R ≅ D, a dense subsemiring of End(M), then z = e_{0,top}, the
      largest endomorphism, and r∘z = e_{0,r(top)}.  D holds every e_{a,b}
      and e_{0,m}(top) = m, so D·z = {e_{0,m} : m in M}, a copy of M with
      e_{0,m} + e_{0,m'} = e_{0,m∨m'}, on which s acts as on M:
      s∘e_{0,m} = e_{0,s(m)}.  The natural action is faithful and D is
      dense.
    - Conversely, R·z is an idempotent submonoid (xz + yz = (x+y)z,
      0·z = 0), a lattice, and sending x to its action on R·z is a
      semiring homomorphism R → End(R·z) (the distributive and
      associative laws, and x·0 = 0).  So a faithful action with a dense
      image is an isomorphism onto a dense subsemiring.

    A witness proves R congruence-simple, by this lemma (the "if" half of
    the paper's theorem): a dense subsemiring R of End(M) is
    congruence-simple.  Let f ≠ g lie in R, and take x with f(x) ≰ g(x),
    swapping f and g if needed.  A = e_{g(x),top} and X = e_{0,x} are
    elementary, so they lie in R, and A∘f∘X = e_{0,top} = z while
    A∘g∘X = 0.  So the congruence generated by (f, g) relates 0 and z,
    the bottom and top of R's idempotent addition, and is total by
    ``closure.zero_top_pair``.
    """
    mod = ideal_module(r)
    if mod is None:
        return None
    rep = representation(r, mod)
    if not (rep.faithful and rep.dense):
        return None
    return rep.subsemiring.lattice, rep.subsemiring


def submodule(mod, subset):
    """The submodule on a closed ``subset``, reindexed sorted."""
    members = sorted(subset)
    return _relabelled(mod, members, {x: i for i, x in enumerate(members)})


def _relabelled(mod, keep, label):
    """The module on ``keep``, each element x renamed ``label[x]``: a
    quotient or a submodule, its tables by ``closure.relabel``; every ring
    element keeps its row of the action."""
    return Semimodule(mod.ring, relabel(mod.madd, keep, keep, label),
                      relabel(mod.act, range(mod.ring.n), keep, label))


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
    action; the translations by + are the rows of ``madd``, as + commutes.
    By the last lemma of ``closure.close_congruence``, it is exactly when
    the closure of ``cong.pairs`` is ``cong``."""
    return cong.n == mod.m and Congruence.generated(mod.m, cong.pairs, _translations(mod)) == cong


def module_congruences(mod):
    """Every module congruence, finest first: the closed sets of the pairs
    of ``closure.principal_test_pairs``, walked by ``closure.closed_sets``.

    With idempotent addition, every congruence θ is the join of the
    principal congruences of the covering pairs it relates.  If x < y are
    related, so is each step c_i ⋖ c_{i+1} of a maximal chain from x to
    y, since c_i = x + c_i θ y + c_i = y for every i; and an incomparable
    pair x θ y goes through x + y (x = x + x θ x + y, likewise y).
    Without idempotence ``principal_test_pairs`` returns every pair.  So
    θ is the congruence generated by the set of test pairs it relates,
    and the closure operator that takes a set of test pairs to the test
    pairs its generated congruence relates has one closed set per
    congruence.  The identity relates no test pair, so the walk starts
    from the empty set.
    """
    m, tables = mod.m, _translations(mod)
    pairs = principal_test_pairs(mod.madd)

    def extend(s, pair):
        cong = Congruence.generated(m, [*s, pair], tables)
        return frozenset(p for p in pairs if cong.same(*p))

    sets = closed_sets(frozenset(), pairs, extend, noun="module congruences")
    return sorted([Congruence.generated(m, s, tables) for s in sets],
                  key=lambda c: (c.num_blocks, c.blocks), reverse=True)


def maximal_nontotal_congruence(mod):
    """A module congruence maximal among the nontotal ones.

    Greedy single pass over the pairs of ``closure.principal_test_pairs``:
    try to absorb each pair in turn, keeping the closure only while it
    stays nontotal.  With idempotent addition those are the covering
    pairs, and the result θ is still maximal.  Every module congruence is
    the join of the principal congruences of the covering pairs it
    relates (the lemma of ``module_congruences``).  Suppose a nontotal
    ψ ⊋ θ existed.  Then ψ relates some covering pair (c, b) that θ does
    not.  When (c, b) was tried, the closure of the pairs kept so far lay
    inside ψ, so it was nontotal and (c, b) was accepted, a contradiction.
    Without idempotence every pair x < y is tried, and after the pass no
    further pair can be added, which is exactly maximality.

    With idempotent addition a closure that relates the module zero and
    the top of ``closure.zero_top_pair`` is total (x = x + 0 θ x + top =
    top), so it is abandoned at that merge; a nontotal closure runs to
    the end, and the partition kept is the same as with the stop at one
    block.
    """
    m = mod.m
    tables = _translations(mod)
    stop = zero_top_pair(mod.madd, mod.mzero)
    current = []
    blocks = Congruence(range(m))
    for x, y in principal_test_pairs(mod.madd):
        if blocks.same(x, y):
            continue
        labels = close_congruence(m, current + [(x, y)], tables, stop)
        if labels is not None:
            current.append((x, y))
            blocks = Congruence(labels)
    return blocks


def quotient_module(mod, cong):
    if not is_module_congruence(mod, cong):
        raise ValidationError("partition is not a module congruence")
    return _relabelled(mod, cong.reps, cong.blocks)


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
    """The irreducible-semimodule descent: the chain M0, M1, then S if S
    is smaller than M1.

    M0 is the semiring acting on itself, M1 = M0/θ for a maximal nontotal
    congruence θ, and S the minimal single-generated nonzero submodule of
    M1.  M1 has only the trivial congruences, since those of M0/θ are the
    congruences of M0 above θ.  S is irreducible by two lemmas, so no
    step follows it:

    - (A) S is generated by each of its nonzero elements: for y ≠ 0 in S,
      ⟨y⟩ ⊆ S, and ⟨y⟩ is no smaller than S by minimality.  So {0} and S
      are the only submodules of S.
    - (B) S has only the trivial congruences.  Let σ be a congruence of S
      other than the identity.  Its zero class is a submodule of S
      (x σ 0 and y σ 0 give x + y σ 0 and rx σ r0 = 0), so by (A) it is
      S, and σ is total, or it is {0}.  Suppose it is {0}.  The units of
      M1 (the elements with an additive inverse) that lie in S form a
      submodule too (ru + r(−u) = r0 = 0), so by (A) S holds no unit but
      0, or S consists of units and is a finite group.  If S is a group,
      x σ y gives x − y σ 0, so x = y, and σ is the identity.  Otherwise
      the pairs (m + u, m + v), m in M1 and u σ v, generate a congruence
      Θ of M1 containing σ (their translates by + and by the action are
      such pairs again), and m + u = 0 makes u a unit of S, so u = 0,
      m = 0 and, as v σ u, v = 0: the class of 0 under Θ is {0}.  Then Θ
      is neither the identity nor total, against M1 having only the
      trivial congruences.

    M1 and S must act nonzero (``PreconditionFailed`` otherwise).
    Returns the chain of modules.
    """
    if check:
        flags = structure_flags(r)
        if flags.trivial_mul:
            raise PreconditionFailed("multiplication is trivial")
        if not is_congruence_simple(r):
            raise PreconditionFailed("semiring is not congruence-simple")
    m0 = regular_module(r)
    theta = maximal_nontotal_congruence(m0)
    # close_congruence closed theta under the module's translations: a congruence
    chain = [m0, _acting(_relabelled(m0, theta.reps, theta.blocks))]
    sub = minimal_nonzero_submodule(chain[1])
    if len(sub) < chain[1].m:
        chain.append(_acting(submodule(chain[1], sub)))
    return chain


def _acting(mod):
    """``mod``, after checking that its action is nonzero."""
    if not acts_nonzero(mod):
        raise PreconditionFailed("descent reached a zero-action module")
    return mod


def find_irreducible(r, check=True):
    """A finite irreducible semimodule over a congruence-simple semiring
    with nonzero multiplication."""
    return descend_to_irreducible(r, check=check)[-1]


# ---------------------------------------------------------------------------
# representation, annihilators, commutant


def module_lattice(mod):
    """The addition table as a lattice; requires idempotent addition."""
    if not idempotent(mod.madd):
        raise PreconditionFailed("module addition is not idempotent")
    # a module's addition is a commutative monoid; idempotent, a lattice
    return FiniteLattice(mod.madd)


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
    return Congruence(annihilator(mod, x) for x in range(mod.m))


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
        raise PreconditionFailed("the action is zero everywhere")
    reach = [frozenset(mod.madd[x][a] for a in ann) for x in range(mod.m)]
    pairs = [(x, y) for x in range(mod.m) for y in range(x + 1, mod.m)
             if reach[x] & reach[y]]
    cong = Congruence.generated(mod.m, pairs, ())
    return quotient_module(mod, cong), cong


def commutant(r, mod):
    """Endomorphisms of the module lattice commuting with every action map.

    Returns (EndoSubsemiring, is_semifield, is_trivial).  The commutant is
    a semifield when every nonzero member has a two-sided inverse among
    the members, which is exactly when every nonzero member is a
    bijection:

    - an inverse makes f a bijection;
    - the inverse of a bijective join homomorphism of a finite lattice is
      one (the Aut(M) lemma of ``catalog.member_reports``), and it fixes
      the zero as f does;
    - the inverse commutes with each action map t, since f∘t = t∘f gives
      t∘f⁻¹ = f⁻¹∘f∘t∘f⁻¹ = f⁻¹∘t∘f∘f⁻¹ = f⁻¹∘t.
    """
    lat = module_lattice(mod)
    maps = [tuple(mod.act[x]) for x in range(r.n)]
    members = [
        f for f in endomorphisms(lat)
        if all(compose(f, t) == compose(t, f) for t in maps)
    ]
    sub = EndoSubsemiring(lat, frozenset(members))
    zmap = zero_map(lat)
    semifield = all(len(set(f)) == lat.n for f in members if f != zmap)
    trivial = set(members) == {zmap, identity_map(lat)}
    return sub, semifield, trivial


# ---------------------------------------------------------------------------
# text format ".smod": ring reference, m count, madd rows, blank, act rows


def parse_smod(text, ring_of):
    """The module a ``.smod`` text gives, over the semiring
    ``ring_of(name)`` for the name on its first line, checked by
    ``validate_semimodule``."""
    reader = LineReader(text)
    ring_name = reader.field("ring", "name")
    m = reader.count("m")
    madd = tuple(reader.row(m, "entry") for _ in range(m))
    act = []
    while not reader.at_end():
        act.append(reader.row(m, "entry"))
    return validate_semimodule(ring_of(ring_name), madd, act)


def serialize_smod(mod):
    return format_tables([f"ring {mod.ring.name or 'unnamed'}", f"m {mod.m}"], mod.madd, mod.act)
