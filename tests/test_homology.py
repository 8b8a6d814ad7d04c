import dataclasses
import json
import random
import re
import types

import pytest

import hurwitz.homology
from hurwitz import (
    H2Report,
    HomologyError,
    OrbitLattice,
    StabilityLevel,
    StabilityReport,
    abelian_invariant_factors,
    build_builtin,
    build_from_table,
    commutator_subgroup,
    find_stability_bound,
    get_lattice,
    h2_order,
    h2_structure,
    make_gamma,
    make_stabilizer,
    stable_equivalent,
    torsor_compose,
    torsor_group,
    u_gamma,
)
from conftest import bench_oracles


# -- invariant factor helper (independent of the torsor machinery) ---------------


def cyclic_mul(n):
    return lambda a, b: (a + b) % n


def test_invariant_factors_cyclic():
    assert abelian_invariant_factors(1, cyclic_mul(1), 0) == []
    assert abelian_invariant_factors(6, cyclic_mul(6), 0) == [6]
    assert abelian_invariant_factors(5, cyclic_mul(5), 0) == [5]


def test_invariant_factors_products():
    def prod_mul(n1, n2):
        def mul(a, b):
            a1, a2 = divmod(a, n2)
            b1, b2 = divmod(b, n2)
            return ((a1 + b1) % n1) * n2 + (a2 + b2) % n2

        return mul

    assert abelian_invariant_factors(4, prod_mul(2, 2), 0) == [2, 2]
    assert abelian_invariant_factors(8, prod_mul(2, 4), 0) == [2, 4]
    # C2 x C3 is cyclic of order 6
    assert abelian_invariant_factors(6, prod_mul(2, 3), 0) == [6]


# -- h2 orders -------------------------------------------------------------------


def test_h2_abelian_is_trivial(c4, klein):
    for G in (c4, klein):
        rep = h2_order(G, make_gamma(G, "all-nontrivial"), window=3)
        assert rep.order == 1
        assert rep.commutator_order == 1


def test_h2_s3_transpositions(s3, s3_transpositions):
    rep = h2_order(s3, s3_transpositions, window=4)
    assert rep.order == 1
    assert rep.commutator_order == 3
    # the stable generating count is therefore exactly |A3|
    assert rep.slice_counts == tuple((ev, 1) for ev, _ in rep.slice_counts)
    assert len(rep.slice_counts) == 3


def test_h2_s3_all_nontrivial_cross_levels(s3, s3_all):
    rep = h2_order(s3, s3_all, window=3)
    assert rep.order == 1
    # one re-count, at the next round: each class c steps by ord(c) e_c
    ((nu, count),) = rep.cross_checks
    assert (rep.stable_level, nu) == ((0, 2, 3), (0, 4, 6))
    assert count == rep.order * rep.commutator_order
    # the u_gamma ray re-counts one u_gamma further on
    ray = find_stability_bound(s3, s3_all, None, 3)
    stable, cross = ray.levels[ray.bound], ray.levels[ray.bound + 1]
    assert cross.nu == tuple(a + b for a, b in zip(stable.nu, u_gamma(s3, s3_all).nu))
    assert (stable.nu, cross.nu, cross.generating_count) == ((0, 6, 6), (0, 12, 12), count)


def test_h2_quaternion_small_gamma(q8):
    gam = make_gamma(q8, [q8.index_of("i"), q8.index_of("j")])
    rep = h2_order(q8, gam, window=3)
    # a quotient of the (trivial) Schur multiplier of Q8
    assert rep.order == 1
    assert rep.commutator_order == 2


def test_h2_dihedral_small_gamma(d4):
    gam = make_gamma(d4, [d4.index_of("r"), d4.index_of("s")])
    rep = h2_order(d4, gam, window=3)
    assert rep.commutator_order == 2
    assert rep.order * rep.commutator_order == sum(c for _, c in rep.slice_counts)


def test_h2_window_exhaustion_raises(s3, s3_transpositions):
    with pytest.raises(HomologyError):
        h2_order(s3, s3_transpositions, window=0)


def test_h2_requires_a_generating_gamma():
    G = build_builtin("sym:3")
    L = get_lattice(G)
    before = L.node_count()
    for fn in (h2_order, h2_structure, torsor_group):
        with pytest.raises(ValueError, match="gamma does not generate the group"):
            fn(G, make_gamma(G, [G.index_of("(123)")]))  # 3-cycles generate A3
    assert L.node_count() == before


def test_h2_without_a_stable_level_names_the_rounds(a4):
    # one round of (123)^3 steps, from (0, 0, 3, 0) onto (0, 0, 6, 0), is not bijective
    gamma = make_gamma(a4, [a4.index_of("(123)")])
    with pytest.raises(HomologyError, match=re.escape(
            "no stable level found within window 1: no bijective tail within explored "
            "window; last level explored (0, 0, 6, 0), generating classes per round [7, 8]")):
        h2_order(a4, gamma, window=1)


# the u_gamma ray's answer: the generating count at find_stability_bound's
# stable level over |[G,G]|.  Each is 1 or 2, which fixes the structure.
AGREE = [
    ("sym:3", "all-nontrivial"), ("sym:3", ["(12)"]), ("cyclic:4", "all-nontrivial"),
    ("cyclic:2xcyclic:2", "all-nontrivial"), ("alt:4", ["(123)"]),
    ("alt:4", ["(123)", "(132)"]), ("sym:4", ["(1234)"]), ("dihedral:4", "all-nontrivial"),
]


@pytest.mark.parametrize("spec, names", AGREE, ids=[f"{g}-{n if isinstance(n, str) else '+'.join(n)}"
                                                    for g, n in AGREE])
def test_per_class_steps_agree_with_the_u_gamma_ray(spec, names):
    G = build_builtin(spec)
    gamma = make_gamma(G, names if isinstance(names, str) else [G.index_of(x) for x in names])
    ray = find_stability_bound(G, gamma, None, 2)
    stable = ray.levels[ray.bound]
    order, rest = divmod(stable.generating_count, commutator_subgroup(G).size)
    assert rest == 0 and order in (1, 2)
    rep = h2_structure(G, gamma, window=2)
    assert (rep.order, rep.structure) == (order, () if order == 1 else (order,))
    assert all(a <= b for a, b in zip(rep.stable_level, stable.nu))


def test_h2_structure_alt5_three_cycles_is_z2():
    # the u_gamma step of alt:5 3-cycles has 60 letters, out of reach
    G = build_builtin("alt:5")
    rep = h2_structure(G, make_gamma(G, [G.index_of("(123)")]), window=2)
    assert rep.order == 2 and rep.structure == (2,)
    assert rep.stable_level == (0, 6, 0, 0, 0)
    assert rep.cross_checks == (((0, 9, 0, 0, 0), 120),)


# -- torsor group -----------------------------------------------------------------


def test_torsor_identity_law(s3, s3_transpositions):
    ctx = torsor_group(s3, s3_transpositions, window=3)
    for x in ctx.elements:
        assert torsor_compose(ctx, x, ctx.base).node == x.node
        assert torsor_compose(ctx, ctx.base, x).node == x.node


def test_torsor_shift_need_not_generate(s3, s3_transpositions):
    # s is the step (t, t) of the least transposition t, once per round up to
    # the bound; it generates <t> only, and the base point is the idempotent
    ctx = torsor_group(s3, s3_transpositions, window=2)
    t = min(s3_transpositions.elements())
    assert (ctx.level, ctx.shift) == ((0, 4, 0), (t,) * 4)
    assert torsor_compose(ctx, ctx.base, ctx.base) == ctx.base


def test_torsor_needs_exactly_one_idempotent(a4_torsor):
    # a shift one round short of the level makes x + s and x + x differ in
    # Nielsen type, so no class is idempotent
    L, level = a4_torsor.lattice, a4_torsor.level
    nodes = tuple(el.node for el in a4_torsor.elements)
    with pytest.raises(HomologyError, match=re.escape(
            f"composition at level {level} has 0 idempotents, expected exactly one")):
        hurwitz.homology._torsor(L, level, a4_torsor.shift[:len(a4_torsor.shift) // 2], nodes)


def test_torsor_base_point_properties(s3, s3_all):
    ctx = torsor_group(s3, s3_all, window=3)
    assert ctx.base.cls.ev == 0
    assert ctx.base.cls.subgroup.bits == (1 << s3.order) - 1
    assert ctx.base.cls.nu == ctx.level


def assert_abelian_group_law(ctx):
    els = ctx.elements
    table = {}
    for x in els:
        for y in els:
            table[(x.node, y.node)] = torsor_compose(ctx, x, y).node
    for x in els:
        for y in els:
            assert table[(x.node, y.node)] == table[(y.node, x.node)]
            for z in els:
                left = table[(table[(x.node, y.node)], z.node)]
                right = table[(x.node, table[(y.node, z.node)])]
                assert left == right


def test_torsor_group_table_is_abelian_group(s3, s3_transpositions):
    assert_abelian_group_law(torsor_group(s3, s3_transpositions, window=3))


# -- a nontrivial invariant: alt:4 with the class of (123) ------------------------


@pytest.fixture(scope="module")
def a4_three_cycles(a4):
    return make_gamma(a4, [a4.index_of("(123)")])


@pytest.fixture(scope="module")
def a4_torsor(a4, a4_three_cycles):
    return torsor_group(a4, a4_three_cycles, window=2)


def test_h2_structure_alt4_three_cycles_is_z2(a4, a4_three_cycles):
    rep = h2_structure(a4, a4_three_cycles, window=2)
    assert rep.order == 2 and rep.structure == (2,)
    assert rep.stable_level == (0, 0, 6, 0)
    assert (rep.bound, rep.confident) == (1, False)
    assert rep.commutator_order == 4
    assert rep.base_point == (2, 2, 2, 4, 4, 4)
    assert rep.slice_counts == ((0, 2), (3, 2), (8, 2), (11, 2))


def test_alt4_three_cycles_along_the_u_gamma_ray(a4, a4_three_cycles):
    # the ray is stable from its first level, and its composition took the
    # class of u_gamma as the base point; its count agrees with the steps'
    ray = find_stability_bound(a4, a4_three_cycles, None, 2)
    assert (ray.bound, ray.confident) == (0, True)
    assert [(lv.nu, lv.generating_count) for lv in ray.levels[:2]] == [
        ((0, 0, 12, 0), 8), ((0, 0, 24, 0), 8)]
    L = get_lattice(a4)
    assert L.canonical(L.find(u_gamma(a4, a4_three_cycles).vector)) == (2,) * 9 + (4, 4, 4)


def test_alt4_torsor_is_an_abelian_group_of_order_2(a4_torsor):
    assert len(a4_torsor.elements) == 2
    assert a4_torsor.base in a4_torsor.elements
    for x in a4_torsor.elements:
        assert torsor_compose(a4_torsor, x, a4_torsor.base) == x
    assert_abelian_group_law(a4_torsor)


def test_alt4_torsor_matches_sl23_lift(a4, a4_three_cycles, a4_torsor):
    # independent check: the product of the order-3 lifts to SL(2,3) is a
    # braid invariant, so z + s ~ x + y forces lift(z) lift(s) = lift(x) lift(y)
    oracles = bench_oracles()
    lift = oracles.LiftingInvariant(a4.names)
    shift = lift.of(a4_torsor.shift)
    els = a4_torsor.elements
    for x in els:
        for y in els:
            z = torsor_compose(a4_torsor, x, y)
            assert (oracles.mat_mul(lift.of(z.cls.canonical), shift)
                    == oracles.mat_mul(lift.of(x.cls.canonical), lift.of(y.cls.canonical)))
    minus_one = (2, 0, 0, 2)
    assert {lift.of(x.cls.canonical) for x in els} == {oracles.IDENTITY, minus_one}


# -- two more nontrivial invariants: sym:4 (1234) and alt:4 with both 3-cycles ---


@pytest.fixture(scope="module")
def a4_pair(a4):
    return make_gamma(a4, [a4.index_of("(123)"), a4.index_of("(132)")])


def test_h2_structure_sym4_four_cycles_is_z2(s4):
    gamma = make_gamma(s4, [s4.index_of("(1234)")])
    rep = h2_structure(s4, gamma, window=2)
    assert rep.order == 2 and rep.structure == (2,)
    assert rep.stable_level == (0, 0, 0, 0, 8)
    assert rep.cross_checks == (((0, 0, 0, 0, 12), 24),)
    assert rep.commutator_order == 12
    assert len(rep.slice_counts) == 12 and all(c == 2 for _, c in rep.slice_counts)
    ray = find_stability_bound(s4, gamma, None, 2)
    assert [(lv.nu, lv.generating_count) for lv in ray.levels[ray.bound:ray.bound + 2]] == [
        ((0, 0, 0, 0, 24), 24), ((0, 0, 0, 0, 48), 24)]


def test_h2_structure_alt4_both_three_cycle_classes_is_z2(a4, a4_pair):
    rep = h2_structure(a4, a4_pair, window=2)
    assert rep.order == 2 and rep.structure == (2,)
    assert rep.stable_level == (0, 3, 3, 0)
    assert rep.cross_checks == (((0, 6, 6, 0), 8),)
    assert rep.commutator_order == 4
    assert rep.slice_counts == ((0, 2), (3, 2), (8, 2), (11, 2))
    ray = find_stability_bound(a4, a4_pair, None, 2)
    assert [(lv.nu, lv.generating_count) for lv in ray.levels[ray.bound:ray.bound + 2]] == [
        ((0, 12, 12, 0), 8), ((0, 24, 24, 0), 8)]


def test_alt4_pair_slices_are_split_by_the_sl23_lift(a4, a4_pair):
    # the two classes of each evaluation slice at the stable level have the
    # two lifts to SL(2,3) of that evaluation, which differ by the central -1
    oracles = bench_oracles()
    lift = oracles.LiftingInvariant(a4.names)
    minus_one = (2, 0, 0, 2)
    rep = h2_order(a4, a4_pair, window=2)
    L = get_lattice(a4)
    full = a4.full_mask().bits
    slices = {}
    for x in L.classes_at(rep.stable_level):
        if L.sub_bits(x) == full:
            slices.setdefault(L.ev(x), []).append(lift.of(L.canonical(x)))
    assert tuple(sorted((ev, len(values)) for ev, values in slices.items())) == rep.slice_counts
    for first, second in slices.values():
        assert second == oracles.mat_mul(first, minus_one)


def test_torsor_compose_without_a_match_raises(a4_torsor):
    ctx = dataclasses.replace(a4_torsor, _shifted={})
    with pytest.raises(HomologyError, match="not uniquely defined"):
        torsor_compose(ctx, ctx.base, ctx.base)


# each gamma has H = Z/2 at its stable level, so every fault below is caught
NONTRIVIAL = [("alt:4", "(123)", (0, 0, 6, 0)), ("sym:4", "(1234)", (0, 0, 0, 0, 8))]


def _other_element(original, ctx, x, y):
    return next(el for el in ctx.elements if el is not x)


def _with_order_3(report, ctx):
    return dataclasses.replace(report, order=3), ctx


@pytest.mark.parametrize("spec, cls, level", NONTRIVIAL, ids=["alt4", "sym4"])
@pytest.mark.parametrize("name, fault, message", [
    ("abelian_invariant_factors", lambda original, m, mul, e: [4],
     "invariant factors [4] at level {} do not multiply to 2"),
    ("torsor_compose", _other_element,
     "base point is not an identity for composition at level {}"),
    ("_stable_torsor", lambda original, *args: _with_order_3(*original(*args)),
     "identity-evaluation slice at level {} has 2 classes but the counted order is 3"),
], ids=["factors", "identity", "slice"])
def test_h2_structure_errors_name_the_level(spec, cls, level, name, fault, message, monkeypatch):
    # ``fault`` stands in for ``hurwitz.homology.<name>`` and may call it
    original = getattr(hurwitz.homology, name)
    monkeypatch.setattr(hurwitz.homology, name, lambda *args: fault(original, *args))
    G = build_builtin(spec)
    with pytest.raises(HomologyError, match=re.escape(message.format(level))):
        h2_structure(G, make_gamma(G, [G.index_of(cls)]), window=2)


def test_h2_structure_counts_before_it_builds_the_torsor(monkeypatch):
    # a count that is no multiple of |[G,G]| is reported as such, before the
    # torsor's composition is built at twice the stable level
    monkeypatch.setattr(hurwitz.homology, "commutator_subgroup",
                        lambda G: types.SimpleNamespace(size=5))
    G = build_builtin("alt:4")
    with pytest.raises(HomologyError, match=re.escape(
            "stable generating count 8 is not a positive multiple of |[G,G]| = 5; "
            "level (0, 0, 6, 0) may be sub-stable")):
        h2_order(G, make_gamma(G, [G.index_of("(123)")]), window=2)
    # nothing past the search's last round (0, 0, 9, 0) was built
    L = get_lattice(G)
    assert max(L.level(x) for x in range(L.node_count())) == (0, 0, 9, 0)


def test_torsor_group_runs_the_checks_of_h2_order(monkeypatch):
    # torsor_group reads the same stable level as h2_order, so a count that
    # fails there fails here too, before any composition is built
    monkeypatch.setattr(hurwitz.homology, "commutator_subgroup",
                        lambda G: types.SimpleNamespace(size=5))
    G = build_builtin("alt:4")
    gamma = make_gamma(G, [G.index_of("(123)")])
    with pytest.raises(HomologyError, match="stable generating count 8") as order_error:
        h2_order(G, gamma, window=2)
    with pytest.raises(HomologyError) as torsor_error:
        torsor_group(G, gamma, window=2)
    assert str(torsor_error.value) == str(order_error.value)


def test_h2_does_not_depend_on_earlier_shifts_of_narrower_domains():
    # stable_equivalent shifts the classes containing <t> by (t, t) at the
    # levels (0, 2k, 0); h2 of the transpositions shifts the generating
    # classes there by the same step, t the least transposition, and must
    # not read the other domain
    G = build_builtin("sym:3")
    gamma = make_gamma(G, [G.index_of("(12)")])
    t, u = min(gamma.elements()), max(gamma.elements())
    verdict = stable_equivalent(G, (t, t), (u, u), make_stabilizer(G, (t, t)))
    assert verdict.equivalent is False
    fresh = build_builtin("sym:3")
    assert h2_structure(G, gamma, window=3) == h2_structure(fresh, gamma, window=3)


def test_h2_structure_searches_for_its_stable_level_once(a4, a4_three_cycles, monkeypatch):
    calls = []
    search = hurwitz.homology._search_rounds

    def counting(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(hurwitz.homology, "_search_rounds", counting)
    h2_structure(a4, a4_three_cycles, window=2)
    assert len(calls) == 1


def test_h2_structure_reads_its_stable_level_off_the_search(monkeypatch):
    # a fresh group, so that its lattice holds only what this call builds
    G = build_builtin("alt:4")
    gamma = make_gamma(G, [G.index_of("(123)")])
    search = hurwitz.homology._search_rounds
    classes_at = OrbitLattice.classes_at
    nodes_after_search = []
    late_classes_at = []

    def searching(*args, **kwargs):
        report = search(*args, **kwargs)
        nodes_after_search.append(get_lattice(G).node_count())
        return report

    def counting(self, nu):
        if nodes_after_search:
            late_classes_at.append(nu)
        return classes_at(self, nu)

    monkeypatch.setattr(hurwitz.homology, "_search_rounds", searching)
    monkeypatch.setattr(OrbitLattice, "classes_at", counting)
    assert h2_structure(G, gamma, window=2).structure == (2,)
    assert late_classes_at == []
    # the search ends at round (0, 0, 9, 0); only the shifts by s and the
    # products of the composition, at twice the stable level (0, 0, 6, 0),
    # build classes past it
    L = get_lattice(G)
    late = {L.level(x) for x in range(nodes_after_search[0], L.node_count())}
    assert late == {(0, 0, j, 0) for j in (10, 11, 12)}


def test_reports_serialise_every_field_as_json_values(a4, a4_three_cycles):
    h2 = h2_structure(a4, a4_three_cycles, window=2).to_jsonable()
    stability = find_stability_bound(a4, a4_three_cycles, None, 2).to_jsonable()
    for data in (h2, stability):
        assert data == json.loads(json.dumps(data))

    def names(cls):
        return {f.name for f in dataclasses.fields(cls)}

    assert set(h2) == names(H2Report)
    assert set(stability) == names(StabilityReport)
    assert all(set(lv) == names(StabilityLevel) for lv in stability["levels"])
    assert h2["cross_checks"] == [[[0, 0, 9, 0], 8]] and h2["structure"] == [2]


def test_h2_structure_trivial_cases(s3, s3_transpositions, c4):
    rep = h2_structure(s3, s3_transpositions, window=3)
    assert rep.order == 1 and rep.structure == ()
    rep = h2_structure(c4, make_gamma(c4, "all-nontrivial"), window=3)
    assert rep.order == 1 and rep.structure == ()


def test_h2_structure_product_matches_order(s3, s3_all):
    rep = h2_structure(s3, s3_all, window=3)
    product = 1
    for d in rep.structure:
        product *= d
    assert product == rep.order


def test_counts_equal_across_all_stable_levels(s3, s3_all, s3_transpositions):
    # not just along the stabiliser ray: any two levels componentwise above
    # the floor carry the same number of classes
    from hurwitz.lattice import get_lattice

    L = get_lattice(s3)
    cases = [
        (s3_all, [(0, 6, 6), (0, 7, 6), (0, 6, 7), (0, 8, 7), (0, 12, 6)]),
        (s3_transpositions, [(0, 6, 0), (0, 7, 0), (0, 9, 0), (0, 13, 0)]),
    ]
    for _, levels in cases:
        counts = {len(L.classes_at(nu)) for nu in levels}
        assert len(counts) == 1


def test_complete_invariant_at_stable_levels(s3, s3_all, s3_transpositions):
    # stable generating classes are pinned down by Nielsen type, evaluation
    # and the torsor coordinate: each (level, ev) slice carries exactly
    # `order` classes, and the composition separates the identity slice
    from hurwitz.lattice import get_lattice

    L = get_lattice(s3)
    full = s3.full_mask().bits
    for gam in (s3_all, s3_transpositions):
        rep = h2_order(s3, gam, window=3)
        base = rep.stable_level
        bumps = [base] + [
            base[:cid] + (base[cid] + 1,) + base[cid + 1:]
            for cid in gam.class_ids
        ]
        for nu in bumps:
            by_ev = {}
            for node in L.classes_at(nu):
                if L.sub_bits(node) != full:
                    continue
                by_ev.setdefault(L.ev(node), 0)
                by_ev[L.ev(node)] += 1
            assert all(c == rep.order for c in by_ev.values())
            assert len(by_ev) == rep.commutator_order


# -- relabelling -----------------------------------------------------------------


def relabelled(G, rng):
    """``G`` rebuilt from its table with the elements renumbered at random,
    the identity kept at index 0; every element keeps its name."""
    n = G.order
    p = [0] + rng.sample(range(1, n), n - 1)
    mul = [[0] * n for _ in range(n)]
    names = [""] * n
    for i in range(n):
        names[p[i]] = G.names[i]
        for j in range(n):
            mul[p[i]][p[j]] = p[G.mul[i][j]]
    return build_from_table({"order": n, "mul": mul, "names": names})


def named_level(G, nu):
    """A level read as class member names -> count, which a relabelling keeps."""
    members = G.classes.members
    return {frozenset(G.names[x] for x in members[c]): k for c, k in enumerate(nu) if k}


def level_of(G, named):
    members = G.classes.members
    return tuple(named.get(frozenset(G.names[x] for x in m), 0) for m in members)


def h2_answers(G, gamma_names):
    gamma = make_gamma(G, gamma_names if gamma_names == "all-nontrivial"
                       else [G.index_of(x) for x in gamma_names])
    report = find_stability_bound(G, gamma, None, 2)
    rep = h2_structure(G, gamma, window=2)
    L = get_lattice(G)
    return (rep.order, rep.structure, rep.bound, rep.confident,
            [(lv.count, lv.generating_count) for lv in report.levels],
            sorted(c for _, c in rep.slice_counts),
            named_level(G, rep.stable_level),
            sorted(L.size(x) for x in L.classes_at(rep.stable_level)),
            L.node_count())


def classes_answers(G, named):
    L = OrbitLattice(G)
    nodes = L.classes_at(level_of(G, named))
    full = G.full_mask().bits
    return (len(nodes), sum(L.sub_bits(x) == full for x in nodes),
            sorted(L.size(x) for x in nodes), L.node_count())


@pytest.mark.parametrize("spec, kind, arg", [
    ("sym:3", "h2", "all-nontrivial"),
    ("alt:4", "h2", ["(123)"]),
    ("sym:4", "h2", ["(1234)"]),
    ("quaternion:8", "classes", (0, 2, 2, 2, 2)),
    ("dihedral:4", "classes", (0, 1, 2, 2, 2)),
])
def test_answers_do_not_depend_on_element_labels(spec, kind, arg):
    # the same group under four random numberings of its elements: gamma and
    # levels are carried across by element names, and every answer (orders,
    # counts, class sizes, node counts) is that of the builtin numbering
    G = build_builtin(spec)
    if kind == "h2":
        want = h2_answers(G, arg)
    else:
        arg = named_level(G, arg)
        want = classes_answers(G, arg)
    rng = random.Random(spec)
    for _ in range(4):
        R = relabelled(G, rng)
        assert R.mul != G.mul
        got = h2_answers(R, arg) if kind == "h2" else classes_answers(R, arg)
        assert got == want
