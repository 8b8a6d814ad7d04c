import functools
import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from hurwitz import (
    CapExceeded,
    FiberSpec,
    ParseError,
    braid_equivalent,
    build_builtin,
    build_from_table,
    enumerate_classes,
    evaluate,
    fiber_size,
    format_tuple,
    generated_subgroup,
    get_lattice,
    make_gamma,
    nielsen,
    orbit,
    orbit_members,
    parse_tuple,
    sigma,
    sigma_inv,
    to_table_doc,
)
from hurwitz.braid import METHODS, Caps, iter_fiber_tuples
from conftest import bench_oracles, el, two_sided_orbit


def s3_tuples(G, d):
    return itertools.product(range(G.order), repeat=d)


# -- moves ---------------------------------------------------------------------


def test_sigma_example(s3):
    v = (el(s3, "(12)"), el(s3, "(13)"))
    assert sigma(s3, 1, v) == (el(s3, "(13)"), el(s3, "(23)"))


def test_sigma_fixes_equal_pair(s4):
    for a in range(s4.order):
        assert sigma(s4, 1, (a, a)) == (a, a)


def test_sigma_position_errors(s3):
    with pytest.raises(IndexError):
        sigma(s3, 0, (1, 2))
    with pytest.raises(IndexError):
        sigma(s3, 2, (1, 2))
    with pytest.raises(IndexError):
        sigma_inv(s3, 1, (1,))


@given(st.lists(st.integers(0, 23), min_size=2, max_size=5), st.data())
@settings(max_examples=150, deadline=None)
def test_sigma_inverse_law_s4(entries, data):
    G = build_builtin("sym:4")
    v = tuple(entries)
    i = data.draw(st.integers(1, len(v) - 1))
    assert sigma_inv(G, i, sigma(G, i, v)) == v
    assert sigma(G, i, sigma_inv(G, i, v)) == v


def test_braid_relation_adjacent(s3):
    for v in s3_tuples(s3, 3):
        lhs = sigma(s3, 1, sigma(s3, 2, sigma(s3, 1, v)))
        rhs = sigma(s3, 2, sigma(s3, 1, sigma(s3, 2, v)))
        assert lhs == rhs


def test_braid_relation_far_commutation(s3):
    rng = random.Random(11)
    for _ in range(200):
        v = tuple(rng.randrange(6) for _ in range(4))
        assert sigma(s3, 1, sigma(s3, 3, v)) == sigma(s3, 3, sigma(s3, 1, v))


# -- invariants ----------------------------------------------------------------


def test_evaluate_empty(s3):
    assert evaluate(s3, ()) == 0


def test_evaluate_example(s3):
    assert evaluate(s3, (el(s3, "(12)"), el(s3, "(13)"))) == el(s3, "(123)")


@given(st.lists(st.integers(0, 5), max_size=4), st.lists(st.integers(0, 5), max_size=4))
@settings(max_examples=80, deadline=None)
def test_evaluate_is_monoid_hom(a, b):
    G = build_builtin("sym:3")
    v, w = tuple(a), tuple(b)
    assert evaluate(G, v + w) == G.prod(evaluate(G, v), evaluate(G, w))


def test_nielsen_examples(s3):
    assert nielsen(s3, ()) == (0, 0, 0)
    v = (el(s3, "(12)"), el(s3, "(13)"), el(s3, "(123)"))
    assert nielsen(s3, v) == (0, 2, 1)
    assert nielsen(s3, v[2:]) == (0, 0, 1)


@given(st.lists(st.integers(0, 5), max_size=4), st.lists(st.integers(0, 5), max_size=4))
@settings(max_examples=80, deadline=None)
def test_nielsen_additive_under_concat(a, b):
    G = build_builtin("sym:3")
    va, vb = tuple(a), tuple(b)
    combined = nielsen(G, va + vb)
    assert combined == tuple(x + y for x, y in zip(nielsen(G, va), nielsen(G, vb)))


def test_nielsen_monotone_under_prefix(s3):
    rng = random.Random(5)
    for _ in range(100):
        v = tuple(rng.randrange(6) for _ in range(rng.randrange(4)))
        w = v + tuple(rng.randrange(6) for _ in range(rng.randrange(3)))
        assert all(x <= y for x, y in zip(nielsen(s3, v), nielsen(s3, w)))


def test_invariants_constant_on_orbits_exhaustive_small(s3):
    for d in range(2, 4):
        for v in s3_tuples(s3, d):
            base = (evaluate(s3, v), nielsen(s3, v), generated_subgroup(s3, v).bits)
            for i in range(1, d):
                for move in (sigma, sigma_inv):
                    u = move(s3, i, v)
                    assert (evaluate(s3, u), nielsen(s3, u), generated_subgroup(s3, u).bits) == base


# -- orbits --------------------------------------------------------------------


def test_orbit_equal_pair_is_fixed(s3):
    got = orbit(s3, (el(s3, "(12)"), el(s3, "(12)")))
    assert got.size == 1


def test_orbit_of_transposition_pair(s3):
    members = orbit_members(s3, (el(s3, "(12)"), el(s3, "(13)")))
    expected = {
        (el(s3, "(12)"), el(s3, "(13)")),
        (el(s3, "(13)"), el(s3, "(23)")),
        (el(s3, "(23)"), el(s3, "(12)")),
    }
    assert members == expected


def test_orbit_length_leq_one(s3):
    assert orbit(s3, ()).size == 1
    for a in range(6):
        assert orbit(s3, (a,)).size == 1


def test_orbit_canonical_is_min(s4):
    rng = random.Random(3)
    for _ in range(25):
        v = tuple(rng.randrange(24) for _ in range(4))
        members = orbit_members(s4, v)
        assert orbit(s4, v).canonical == min(members)


def test_orbit_members_match_two_sided_closure(s3, s4):
    # the kernel follows sigma only; the oracle follows sigma and sigma_inv
    for d in range(5):
        for v in s3_tuples(s3, d):
            assert orbit_members(s3, v) == two_sided_orbit(s3, v)
    rng = random.Random(29)
    for _ in range(25):
        v = tuple(rng.randrange(24) for _ in range(4))
        assert orbit_members(s4, v) == two_sided_orbit(s4, v)
    # the benchmark's shapes, against a breadth-first search that shares no
    # code with the package: alt:6 triples (n = 360) and sym:4 5-tuples
    a6 = build_builtin("alt:6")
    rng = random.Random(31)
    for G, degree, d in ((a6, 6, 3), (s4, 4, 5)):
        oracle = bench_oracles().TableGroup.from_permutations(G.names, degree)
        for _ in range(3):
            v = tuple(rng.randrange(G.order) for _ in range(d))
            assert orbit_members(G, v) == oracle.orbit(v)


def test_orbit_cap(s3):
    v = (1, 2, 3, 5, 2, 1)
    with pytest.raises(CapExceeded) as exc:
        orbit_members(s3, v, max_states=5)
    assert exc.value.visited == 5
    assert str(exc.value) == (
        "orbit of a length-6 tuple of Nielsen type (0, 5, 1) exceeds state cap (visited 5 states)")
    # a cap of 0 holds no tuple, not even the start
    with pytest.raises(CapExceeded) as exc:
        orbit_members(s3, (1,), max_states=0)
    assert exc.value.visited == 0
    size = len(orbit_members(s3, v))
    assert len(orbit_members(s3, v, max_states=size)) == size
    with pytest.raises(CapExceeded) as exc:
        orbit_members(s3, v, max_states=size - 1)
    assert exc.value.visited == size - 1


@pytest.mark.parametrize("bad", [(1, -1), (1, 7), (1, True), (1, 1.0)])
def test_brute_paths_reject_entries_outside_the_group(s3, bad):
    # (1, -1) once read entry 5 by negative indexing, (1, 7) raised an
    # IndexError, (1, True) was answered as if it were (1, 1) and (1, 1.0)
    # raised a TypeError
    message = re.escape(f"entry {bad[1]} at position 1")
    with pytest.raises(ValueError, match=message):
        orbit(s3, bad)
    with pytest.raises(ValueError, match=message):
        orbit_members(s3, bad)
    with pytest.raises(ValueError, match=message):
        braid_equivalent(s3, bad, (1, 5), method="direct")
    with pytest.raises(ValueError, match=message):
        braid_equivalent(s3, (1, 5), bad, method="direct")
    with pytest.raises(ValueError, match=message):
        braid_equivalent(s3, bad, bad, method="direct")


@pytest.mark.parametrize("bad", [(1, -1), (1, 9), (1, True), (1, 1.0)])
@pytest.mark.parametrize("helper", [
    evaluate, nielsen, generated_subgroup,
    functools.partial(sigma, i=1), functools.partial(sigma_inv, i=1),
], ids=["evaluate", "nielsen", "generated_subgroup", "sigma", "sigma_inv"])
def test_public_helpers_reject_entries_outside_the_group(s3, helper, bad):
    # on (1, -1) each read entry 5 by negative indexing: evaluate gave 4,
    # nielsen (0, 2, 0), sigma (-1, 2); evaluate(s3, (1, 9)) raised a bare
    # IndexError
    with pytest.raises(ValueError, match=re.escape(f"entry {bad[1]!r} at position 1")):
        helper(s3, v=bad)


# -- equivalence ---------------------------------------------------------------


def test_braid_equivalent_reflexive(s3):
    rng = random.Random(7)
    for _ in range(30):
        v = tuple(rng.randrange(6) for _ in range(rng.randrange(5)))
        assert braid_equivalent(s3, v, v)


def test_braid_equivalent_examples(s3):
    t12, t13, t23 = el(s3, "(12)"), el(s3, "(13)"), el(s3, "(23)")
    assert braid_equivalent(s3, (t12, t13), (t23, t12))
    assert evaluate(s3, (t12, t13)) != evaluate(s3, (t12, t23))
    assert not braid_equivalent(s3, (t12, t13), (t12, t23))


@pytest.mark.parametrize("method", ["direkt", "Direct", ""])
def test_unknown_method_raises(s3, s3_transpositions, method):
    # a misspelt method is an error, not a silent lattice run; checked before
    # the prefilters, so even a pair equal on its face raises
    t12 = el(s3, "(12)")
    with pytest.raises(ValueError, match="unknown method"):
        braid_equivalent(s3, (t12,), (t12,), method=method)
    with pytest.raises(ValueError, match="unknown method"):
        enumerate_classes(s3, FiberSpec(nu=(0, 2, 0), gamma=s3_transpositions), method=method)


def test_braid_equivalent_methods_agree(s3, s4):
    rng = random.Random(13)
    for _ in range(120):
        d = rng.randrange(0, 5)
        v = tuple(rng.randrange(6) for _ in range(d))
        w = tuple(rng.randrange(6) for _ in range(d))
        assert braid_equivalent(s3, v, w, method="direct") == braid_equivalent(s3, v, w)
    # the direct search stops when it reaches w: members met mid-walk, and
    # non-members with the same evaluation, Nielsen type and subgroup, which
    # the search must exhaust; each of these fibers holds two classes
    G = s4
    gamma = make_gamma(G, "all-nontrivial")
    for names in (("(124)", "(1342)", "(132)", "(143)"), ("(1243)", "(124)", "(142)", "(1342)"),
                  ("(1432)", "(143)", "(1432)", "(1423)"), ("(243)", "(1423)", "(1342)", "(1243)")):
        v = tuple(el(G, x) for x in names)
        members = orbit_members(G, v)
        spec = FiberSpec(nu=nielsen(G, v), gamma=gamma, ev=evaluate(G, v))
        sub = generated_subgroup(G, v).bits
        others = [t for t in iter_fiber_tuples(G, spec)
                  if generated_subgroup(G, t).bits == sub and t not in members]
        assert others
        ordered = sorted(members)
        for w in (ordered[len(ordered) // 3], ordered[len(ordered) // 2], ordered[-1]):
            assert braid_equivalent(G, v, w, method="direct")
            assert braid_equivalent(G, v, w)
        for w in others[:: max(1, len(others) // 3)][:3]:
            assert not braid_equivalent(G, v, w, method="direct")
            assert not braid_equivalent(G, v, w)


def test_direct_search_stops_at_its_target(s3):
    # the orbit of (2, 1) holds 3 tuples and sigma reaches the target first,
    # so a cap of 2 is room enough for the verdict but not for the orbit
    v = (2, 1)
    assert braid_equivalent(s3, v, sigma(s3, 1, v), "direct", Caps(orbit_states=2))
    with pytest.raises(CapExceeded):
        orbit_members(s3, v, 2)


def test_lattice_verdict_matches_raw_orbits_without_subgroup_prefilter():
    # the lattice path decides by class id alone; check it on every pair the
    # evaluation and Nielsen prefilters let through, on a cold lattice
    G = build_builtin("sym:3")
    t12, t13 = el(G, "(12)"), el(G, "(13)")
    buckets = {}
    for d in range(4):
        for v in s3_tuples(G, d):
            buckets.setdefault((d, evaluate(G, v), nielsen(G, v)), []).append(v)
    pairs = subgroups_differ = 0
    for bucket in buckets.values():
        for i, v in enumerate(bucket):
            members = orbit_members(G, v)
            for w in bucket[i + 1:]:
                pairs += 1
                if generated_subgroup(G, v).bits != generated_subgroup(G, w).bits:
                    subgroups_differ += 1
                assert braid_equivalent(G, v, w) == (w in members)
    assert pairs > 1000 and subgroups_differ > 0
    assert not braid_equivalent(G, (t12, t12), (t13, t13))
    assert generated_subgroup(G, (t12, t12)).bits != generated_subgroup(G, (t13, t13)).bits


# -- fibers --------------------------------------------------------------------


def test_fiber_spec_validation(s3, s3_transpositions):
    spec = FiberSpec(nu=(0, 0, 2), gamma=s3_transpositions)
    with pytest.raises(ValueError, match="outside gamma"):
        spec.validate(s3)
    with pytest.raises(ValueError):
        FiberSpec(nu=(0, 2), gamma=s3_transpositions).validate(s3)


@pytest.mark.parametrize("bad", [1.5, 2.0, True, -1, "2"], ids=repr)
def test_nielsen_counts_must_be_non_negative_ints(bad):
    # 1.5 walked the chain of `classes_at` below zero without end; 2.0 and
    # True were served as 2 and 1
    G = build_builtin("sym:3")  # a fresh lattice, with no level memoised
    spec = FiberSpec(nu=(0, bad, 0), gamma=make_gamma(G, "all-nontrivial"))
    msg = re.escape(f"entry {bad!r} at position 1 is not a non-negative int")
    for method in METHODS:
        with pytest.raises(ValueError, match=msg):
            enumerate_classes(G, spec, method=method)
    with pytest.raises(ValueError, match=msg):
        fiber_size(G, spec)
    L = get_lattice(G)
    with pytest.raises(ValueError, match=msg):
        L.classes_at((0, bad, 0))
    assert L.node_count() == 1


@pytest.mark.parametrize("bad", [True, 1.0, 6, -1], ids=repr)
def test_fiber_evaluation_must_be_an_element_index(s3, s3_all, bad):
    spec = FiberSpec(nu=(0, 2, 0), gamma=s3_all, ev=bad)
    with pytest.raises(ValueError, match=re.escape(f"evaluation {bad!r} is not an element index")):
        enumerate_classes(s3, spec)


def test_fiber_size_checks_the_length_of_its_type(s3, s3_all):
    # a two-entry type of a three-class group was counted as 9 tuples
    with pytest.raises(ValueError, match="nu has 2 entries, group has 3 classes"):
        fiber_size(s3, FiberSpec(nu=(0, 2), gamma=s3_all))


# (group, gamma) pairs for the brute fiber oracle; each gamma keeps
# |gamma|^5 tuples small enough to list by itertools.product
FIBER_CASES = [
    ("sym:4", ("(12)", "(12)(34)")),
    ("alt:4", ("(123)", "(132)")),
    ("dihedral:4", "all-nontrivial"),
    ("quaternion:8", "all-nontrivial"),
]


@functools.cache
def product_fibers(group, reps, d):
    """The group, gamma, and every length-``d`` tuple over gamma in
    lexicographic order, grouped by Nielsen type (the sorted product)."""
    G = build_builtin(group)
    gamma = make_gamma(G, reps if reps == "all-nontrivial" else [el(G, r) for r in reps])
    fibers: dict = {}
    for t in itertools.product(gamma.elements(), repeat=d):
        fibers.setdefault(nielsen(G, t), []).append(t)
    return G, gamma, fibers


def test_fiber_size_matches_enumeration(s3, s3_all):
    for nu in [(0, 2, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3)]:
        spec = FiberSpec(nu=nu, gamma=s3_all)
        count = sum(1 for _ in iter_fiber_tuples(s3, spec))
        d = sum(nu)
        expected = math.comb(d, nu[1]) * 3 ** nu[1] * 2 ** nu[2]
        assert count == expected == fiber_size(s3, spec)
    for group, reps in FIBER_CASES:
        for d in range(6):
            G, gamma, fibers = product_fibers(group, reps, d)
            for nu, tuples in fibers.items():
                spec = FiberSpec(nu=nu, gamma=gamma)
                assert sum(1 for _ in iter_fiber_tuples(G, spec)) == len(tuples) \
                    == fiber_size(G, spec)


def test_fiber_tuples_respect_ev(s3, s3_all):
    spec = FiberSpec(nu=(0, 2, 1), gamma=s3_all, ev=0)
    listed = list(iter_fiber_tuples(s3, spec))
    # oracle: filter the unconstrained fiber by brute evaluation
    raw = [t for t in iter_fiber_tuples(s3, FiberSpec(nu=(0, 2, 1), gamma=s3_all))
           if evaluate(s3, t) == 0]
    assert listed == raw
    # oracle: the sorted product over gamma, filtered by Nielsen type and
    # evaluation, order included; the evaluation free, then pinned to each
    # element, reachable or not
    unreachable = 0
    for group, reps in FIBER_CASES:
        for d in range(6):
            G, gamma, fibers = product_fibers(group, reps, d)
            for nu, tuples in fibers.items():
                assert list(iter_fiber_tuples(G, FiberSpec(nu=nu, gamma=gamma))) == tuples
                for ev in range(G.order):
                    expected = [t for t in tuples if evaluate(G, t) == ev]
                    unreachable += not expected
                    assert list(iter_fiber_tuples(G, FiberSpec(nu=nu, gamma=gamma, ev=ev))) \
                        == expected
    assert unreachable


def test_enumerate_classes_spec_example(s3, s3_transpositions):
    spec = FiberSpec(nu=(0, 2, 0), gamma=s3_transpositions, ev=el(s3, "(123)"))
    classes = enumerate_classes(s3, spec, method="direct")
    assert len(classes) == 1
    assert classes[0].size == 3


def test_enumerate_classes_empty_fiber(s3, s3_all):
    spec = FiberSpec(nu=(0, 0, 0), gamma=s3_all, ev=0)
    classes = enumerate_classes(s3, spec)
    assert len(classes) == 1
    assert classes[0].canonical == ()


def test_enumerate_classes_abelian_single(c4):
    gam = make_gamma(c4, "all-nontrivial")
    # multiset oracle: in an abelian group the moves only permute entries,
    # so a fiber with consistent evaluation holds exactly one class
    for nu in [(0, 2, 0, 0), (0, 1, 1, 1), (0, 0, 2, 2)]:
        spec = FiberSpec(nu=nu, gamma=gam)
        classes = enumerate_classes(c4, spec, method="direct")
        assert len(classes) == 1
        spec_ev = FiberSpec(nu=nu, gamma=gam, ev=evaluate(c4, classes[0].canonical))
        assert len(enumerate_classes(c4, spec_ev, method="direct")) == 1


def test_enumerate_classes_sizes_sum_to_fiber(s3, s3_all):
    spec = FiberSpec(nu=(0, 2, 2), gamma=s3_all)
    classes = enumerate_classes(s3, spec, method="direct")
    assert sum(c.size for c in classes) == fiber_size(s3, spec)


def test_enumerate_classes_generated_filter(s3, s3_transpositions):
    spec = FiberSpec(nu=(0, 2, 0), gamma=s3_transpositions, generated=s3.full_mask())
    classes = enumerate_classes(s3, spec)
    assert all(c.subgroup.bits == (1 << s3.order) - 1 for c in classes)
    # the six ordered distinct-transposition pairs split into two orbits of
    # size three, one per 3-cycle evaluation
    assert len(classes) == 2
    assert sorted(c.size for c in classes) == [3, 3]


def test_enumerate_classes_fiber_cap(s3, s3_all):
    spec = FiberSpec(nu=(0, 3, 3), gamma=s3_all)
    with pytest.raises(CapExceeded, match=re.escape("fiber exceeds tuple cap (visited 11 tuples)")):
        enumerate_classes(s3, spec, caps=Caps(fiber_tuples=10), method="direct")


def test_concat_class_well_defined(s3):
    # oracle: full orbit enumeration on both sides, exhaustive at length 2
    for v in itertools.product(range(6), repeat=2):
        for w in itertools.product(range(6), repeat=2):
            base = v + w
            for vv in orbit_members(s3, v):
                for ww in orbit_members(s3, w):
                    assert braid_equivalent(s3, base, vv + ww)
    # spot checks at length 3
    rng = random.Random(23)
    for _ in range(10):
        v = tuple(rng.randrange(6) for _ in range(3))
        w = tuple(rng.randrange(6) for _ in range(3))
        for vv in orbit_members(s3, v):
            for ww in orbit_members(s3, w):
                assert braid_equivalent(s3, v + w, vv + ww)


# -- centrality -----------------------------------------------------------------


def test_centrality_small(s3):
    # ev(v) = identity makes juxtaposition commute up to braiding
    vs = [v for v in s3_tuples(s3, 2) if evaluate(s3, v) == 0]
    ws = list(s3_tuples(s3, 2))
    for v in vs:
        for w in ws[::3]:
            assert braid_equivalent(s3, v + w, w + v)


# -- parsing --------------------------------------------------------------------


def test_parse_tuple_indices(s3):
    assert parse_tuple(s3, "1,2,4") == (1, 2, 4)
    assert parse_tuple(s3, "") == ()
    assert parse_tuple(s3, "[]") == ()


def test_parse_tuple_names(s3):
    assert parse_tuple(s3, "[(12),(13)]") == (el(s3, "(12)"), el(s3, "(13)"))
    assert parse_tuple(s3, "[e]") == (0,)


def test_parse_tuple_product_names(klein):
    v = parse_tuple(klein, "[(1,0),(0,1)]")
    assert v == (2, 1)


def test_parse_tuple_errors_carry_position(s3):
    with pytest.raises(ParseError) as exc:
        parse_tuple(s3, "1,xx,3")
    assert exc.value.position == 2
    with pytest.raises(ParseError) as exc:
        parse_tuple(s3, "[(12),(99)]")
    assert exc.value.position == 6
    with pytest.raises(ParseError) as exc:
        parse_tuple(s3, "1,9")
    assert exc.value.position == 2


def test_format_round_trip(s3):
    v = (el(s3, "(12)"), 0, el(s3, "(132)"))
    assert parse_tuple(s3, format_tuple(s3, v)) == v
    # a group without names prints and reads indices
    plain = build_from_table({k: w for k, w in to_table_doc(s3).items() if k != "names"})
    assert format_tuple(plain, v) == ",".join(map(str, v))
    assert parse_tuple(plain, format_tuple(plain, v)) == v
