"""Braid orbits of finite-group tuples.

Classifies tuples over a finite group up to the braid moves
(a, b) -> (b, b^-1 a b), enumerates the classes per Nielsen type, studies
stabilisation by appending distinguished vectors, and extracts the abelian
invariant that separates stable generating classes.
"""

from .braid import (
    Caps,
    FiberSpec,
    OrbitClass,
    braid_equivalent,
    enumerate_classes,
    evaluate,
    fiber_size,
    format_tuple,
    generated_subgroup,
    nielsen,
    orbit,
    orbit_members,
    parse_tuple,
    sigma,
    sigma_inv,
)
from .errors import CapExceeded, GroupTableError, HomologyError, HurwitzError, ParseError
from .groups import (
    ConjClassTable,
    FiniteGroup,
    GammaSet,
    SubgroupMask,
    build_builtin,
    build_from_table,
    commutator_subgroup,
    load_group,
    make_gamma,
    subgroup_closure,
    to_table_doc,
)
from .homology import (
    H2Report,
    TorsorContext,
    TorsorElement,
    abelian_invariant_factors,
    h2_order,
    h2_structure,
    torsor_compose,
    torsor_group,
)
from .lattice import OrbitLattice, get_lattice
from .marked import (
    MarkedClass,
    MarkedVector,
    enumerate_marked_classes,
    marked_orbit,
    monoid_act,
)
from .stability import (
    StabilityLevel,
    StabilityReport,
    StableEqResult,
    Stabilizer,
    adj_word_equal,
    factor_witness,
    find_stability_bound,
    make_stabilizer,
    stable_equivalent,
    u_gamma,
)

__version__ = "0.1.0"
