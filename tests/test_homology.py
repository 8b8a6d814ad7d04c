import dataclasses

import pytest

import hurwitz.homology
from hurwitz import (
    HomologyError,
    abelian_invariant_factors,
    h2_order,
    h2_structure,
    make_gamma,
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
    rep = h2_order(s3, s3_all, window=3, cross_levels=2)
    assert rep.order == 1
    assert len(rep.cross_checks) == 2
    assert all(count == rep.order * rep.commutator_order for _, count in rep.cross_checks)


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


# -- torsor group -----------------------------------------------------------------


def test_torsor_identity_law(s3, s3_transpositions):
    ctx = torsor_group(s3, s3_transpositions, window=3)
    for x in ctx.elements:
        assert torsor_compose(ctx, x, ctx.base).node == x.node
        assert torsor_compose(ctx, ctx.base, x).node == x.node


def test_torsor_base_point_properties(s3, s3_all):
    ctx = torsor_group(s3, s3_all, window=3)
    assert ctx.base.cls.ev == 0
    assert ctx.base.cls.subgroup.is_full()
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
    assert rep.stable_level == (0, 0, 12, 0)
    assert rep.commutator_order == 4
    assert rep.base_point == (2,) * 9 + (4, 4, 4)
    assert rep.slice_counts == ((0, 2), (3, 2), (8, 2), (11, 2))


def test_alt4_torsor_is_an_abelian_group_of_order_2(a4_torsor):
    assert len(a4_torsor.elements) == 2
    assert a4_torsor.base in a4_torsor.elements
    for x in a4_torsor.elements:
        assert torsor_compose(a4_torsor, x, a4_torsor.base) == x
    assert_abelian_group_law(a4_torsor)


def test_alt4_torsor_matches_sl23_lift(a4, a4_three_cycles, a4_torsor):
    # independent check: the product of the order-3 lifts to SL(2,3) is a
    # braid invariant, so z + u^k ~ x + y forces lift(z) lift(u^k) = lift(x) lift(y)
    oracles = bench_oracles()
    lift = oracles.LiftingInvariant(a4.names)
    u = u_gamma(a4, a4_three_cycles)
    shift = lift.of(u.vector * (sum(a4_torsor.level) // len(u.vector)))
    els = a4_torsor.elements
    for x in els:
        for y in els:
            z = torsor_compose(a4_torsor, x, y)
            assert (oracles.mat_mul(lift.of(z.cls.canonical), shift)
                    == oracles.mat_mul(lift.of(x.cls.canonical), lift.of(y.cls.canonical)))
    minus_one = (2, 0, 0, 2)
    assert {lift.of(x.cls.canonical) for x in els} == {oracles.IDENTITY, minus_one}


def test_torsor_compose_without_a_match_raises(a4_torsor):
    ctx = dataclasses.replace(a4_torsor, _shifted={})
    with pytest.raises(HomologyError, match="not uniquely defined"):
        torsor_compose(ctx, ctx.base, ctx.base)


def test_h2_structure_searches_for_its_stable_level_once(a4, a4_three_cycles, monkeypatch):
    calls = []
    search = hurwitz.homology.find_stability_bound

    def counting(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(hurwitz.homology, "find_stability_bound", counting)
    h2_structure(a4, a4_three_cycles, window=2)
    assert len(calls) == 1


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
