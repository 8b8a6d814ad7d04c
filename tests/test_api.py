"""The public surface, pinned: a new name or parameter is added here on purpose."""

import dataclasses
import inspect
import pathlib
import re
import types

import hurwitz
from hurwitz import (
    FiberSpec,
    MarkedVector,
    Stabilizer,
    adj_word_equal,
    enumerate_marked_classes,
    find_stability_bound,
    format_tuple,
    h2_order,
    h2_structure,
    marked_orbit,
    monoid_act,
    nielsen,
    orbit_members,
)

PUBLIC = {
    "CapExceeded", "Caps", "ConjClassTable", "FiberSpec", "FiniteGroup",
    "GammaSet", "GroupTableError", "H2Report", "HomologyError",
    "HurwitzError", "MarkedClass", "MarkedVector", "OrbitClass", "OrbitLattice",
    "ParseError", "StabilityLevel", "StabilityReport", "StableEqResult", "Stabilizer",
    "SubgroupMask", "TorsorContext", "TorsorElement", "abelian_invariant_factors",
    "adj_word_equal", "braid_equivalent", "build_builtin", "build_from_table",
    "commutator_subgroup", "enumerate_classes", "enumerate_marked_classes", "evaluate",
    "factor_witness", "fiber_size", "find_stability_bound", "format_tuple",
    "generated_subgroup", "get_lattice", "h2_order", "h2_structure",
    "load_group", "make_gamma", "make_stabilizer", "marked_orbit", "monoid_act", "nielsen",
    "orbit", "orbit_members", "parse_tuple",
    "sigma", "sigma_inv", "stable_equivalent", "subgroup_closure", "to_table_doc",
    "torsor_compose", "torsor_group", "u_gamma",
}

PARAMETERS = {
    nielsen: ["G", "v"],
    format_tuple: ["G", "v"],
    orbit_members: ["G", "v", "max_states"],
    marked_orbit: ["G", "mv", "caps"],
    monoid_act: ["G", "x", "v", "caps"],
    enumerate_marked_classes: ["G", "k", "tail_spec", "prefixes", "caps"],
    find_stability_bound: ["G", "gamma", "nu0", "window", "confirm", "caps"],
    adj_word_equal: ["G", "gamma", "v", "w", "window", "confirm", "caps"],
    h2_order: ["G", "gamma", "window", "confirm", "caps"],
    h2_structure: ["G", "gamma", "window", "confirm", "caps"],
}

FIELDS = {
    FiberSpec: ["nu", "gamma", "ev", "generated"],
    MarkedVector: ["prefix", "tail"],
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


def test_readme_python_blocks_run():
    """Every fenced Python block of the README runs on its own, so a change
    of the API cannot leave the README's examples stale."""
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
