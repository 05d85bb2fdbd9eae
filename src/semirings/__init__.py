"""Finite lattices, endomorphism semirings, and congruence-simplicity.

The library constructs the endomorphism semiring of a finite idempotent
commutative monoid, enumerates its dense subsemirings, decides
congruence-simplicity of finite semirings from the covering pairs of the
additive order, and descends to irreducible semimodules.  The ``semirings`` console script reproduces the
classification data for all monoids of up to five elements.
"""

__version__ = "0.1.0"

from .lattice import (
    FiniteLattice,
    LatticeIso,
    condition_d,
    dual,
    embed_ring_of_sets,
    enumerate_lattices,
    hom_to_l2,
    homomorphism_rows,
    homomorphisms,
    is_distributive,
    lattice_iso,
    validate_lattice,
)
from .semiring import (
    Congruence,
    FiniteSemiring,
    additive_reachability_congruence,
    is_congruence_simple,
    principal_congruence,
    quotient_semiring,
    recover_monoid,
    semiring_anti_iso,
    semiring_iso,
    structure_flags,
    subsemirings,
    validate_semiring,
)
from .endo import (
    EndoSubsemiring,
    dense_closure,
    dense_order,
    elementary,
    end_semiring,
    endomorphisms,
    enumerate_sr,
    is_dense,
    is_endomorphism,
    transpose,
)
from .semimodule import (
    Semimodule,
    annihilator_congruence,
    annulator_quotient,
    commutant,
    find_irreducible,
    irreducibility,
    iso_to_dense_subsemiring,
    module_congruences,
    module_principal,
    representation,
    subsemimodules,
    validate_semimodule,
)
