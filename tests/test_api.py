"""The public surface, pinned: a new name or parameter is added here on purpose."""

import dataclasses
import inspect
import types

import hurwitz
from hurwitz import (
    ActionFamily,
    FiberSpec,
    Stabilizer,
    adj_word_equal,
    enumerate_marked_classes,
    find_stability_bound,
    format_tuple,
    h2_order,
    h2_structure,
    marked_nielsen,
    marked_orbit,
    nielsen,
    orbit_members,
)

PUBLIC = {
    "ActionFamily", "CapExceeded", "Caps", "ConjClassTable", "FiberSpec", "FiniteGroup",
    "GammaSet", "GroupTableError", "H2Report", "HomologyError",
    "HurwitzError", "MarkedClass", "MarkedVector", "OrbitClass", "OrbitLattice",
    "ParseError", "StabilityLevel", "StabilityReport", "StableEqResult", "Stabilizer",
    "SubgroupMask", "TorsorContext", "TorsorElement", "abelian_invariant_factors",
    "adj_word_equal", "braid_equivalent", "build_builtin", "build_from_table",
    "commutator_subgroup", "enumerate_classes", "enumerate_marked_classes", "evaluate",
    "factor_witness", "fiber_size", "find_stability_bound", "format_tuple",
    "generated_subgroup", "get_lattice", "h2_order", "h2_structure",
    "load_group", "make_gamma", "make_stabilizer", "marked_family", "marked_nielsen",
    "marked_orbit", "monoid_act", "nielsen", "orbit", "orbit_members", "parse_tuple",
    "sigma", "sigma_inv", "stable_equivalent", "subgroup_closure", "to_table_doc",
    "torsor_compose", "torsor_group", "u_gamma",
}

PARAMETERS = {
    nielsen: ["G", "v"],
    format_tuple: ["G", "v"],
    orbit_members: ["G", "v", "max_states"],
    marked_nielsen: ["G", "mv"],
    marked_orbit: ["G", "family", "mv", "caps"],
    enumerate_marked_classes: ["G", "family", "tail_spec", "prefixes", "caps"],
    find_stability_bound: ["G", "gamma", "nu0", "window", "confirm", "caps"],
    adj_word_equal: ["G", "gamma", "v", "w", "window", "confirm", "caps"],
    h2_order: ["G", "gamma", "window", "confirm", "caps"],
    h2_structure: ["G", "gamma", "window", "confirm", "caps"],
}

FIELDS = {
    ActionFamily: ["prefix_len"],
    FiberSpec: ["nu", "gamma", "ev", "generated"],
    Stabilizer: ["vector", "nu", "ev", "sub"],
}


def test_public_names_are_pinned():
    got = {name for name, value in vars(hurwitz).items()
           if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert got == PUBLIC


def test_parameter_lists_are_pinned():
    got = {f: list(inspect.signature(f).parameters) for f in PARAMETERS}
    assert got == PARAMETERS
    assert {cls: [f.name for f in dataclasses.fields(cls)] for cls in FIELDS} == FIELDS
