import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from hurwitz import (
    GroupTableError,
    build_builtin,
    build_from_table,
    commutator_subgroup,
    make_gamma,
    subgroup_closure,
    to_table_doc,
)
from conftest import MALFORMED_TABLES, el


# -- builtin families -----------------------------------------------------------


def test_trivial_group():
    G = build_builtin("cyclic:1")
    assert G.order == 1
    assert G.classes.count == 1


def test_s3_structure(s3):
    assert s3.order == 6
    assert s3.classes.count == 3
    # independent oracle: classify permutations by cycle type
    perms = sorted(itertools.permutations(range(3)))
    assert len(perms) == 6
    by_type = {}
    for p in perms:
        fixed = sum(1 for i in range(3) if p[i] == i)
        by_type.setdefault(fixed, []).append(p)
    # sizes 1 (identity), 3 (transpositions), 2 (3-cycles)
    assert sorted(s3.classes.sizes) == sorted(len(v) for v in by_type.values()) == [1, 2, 3]


def test_s3_identity_is_first(s3):
    assert s3.names[0] == "e"
    assert all(s3.mul[0][x] == x == s3.mul[x][0] for x in range(6))


def test_sym_order_is_lexicographic_one_line():
    G = build_builtin("sym:3")
    # lexicographic one-line order pins every index
    assert G.names == ["e", "(23)", "(12)", "(123)", "(132)", "(13)"]


def test_dihedral4():
    G = build_builtin("dihedral:4")
    assert G.order == 8
    r, s = el(G, "r"), el(G, "s")
    assert G.element_order(r) == 4
    assert G.element_order(s) == 2
    # s r s = r^-1
    assert G.prod(G.prod(s, r), s) == G.inv[r]


def test_alt_groups():
    assert build_builtin("alt:3").order == 3
    assert build_builtin("alt:4").order == 12
    assert build_builtin("alt:5").order == 60


def test_quaternion_classes(q8):
    assert q8.order == 8
    assert sorted(q8.classes.sizes) == [1, 1, 2, 2, 2]
    i, j, k = el(q8, "i"), el(q8, "j"), el(q8, "k")
    assert q8.prod(i, j) == k
    assert q8.prod(j, i) == el(q8, "-k")
    assert q8.prod(i, i) == el(q8, "-1")


def test_product_group(klein):
    assert klein.order == 4
    assert klein.is_abelian
    assert all(klein.element_order(x) in (1, 2) for x in range(4))


def test_multi_factor_product():
    G = build_builtin("cyclic:2xcyclic:3xcyclic:2")
    assert G.order == 12
    assert G.is_abelian
    assert sorted({G.element_order(x) for x in range(12)}) == [1, 2, 3, 6]
    H = build_builtin("cyclic:2xsym:3")
    assert H.order == 12
    assert not H.is_abelian
    assert commutator_subgroup(H).size == 3


def test_bad_specs():
    for spec in ("nosuch:3", "sym:9", "quaternion:16", "cyclic:0", "dihedral:1", "sym"):
        with pytest.raises(Exception):
            build_builtin(spec)


def test_order_cap_enforced():
    with pytest.raises(ValueError, match="maximum"):
        build_builtin("cyclic:5000")
    with pytest.raises(ValueError, match="maximum"):
        build_builtin("sym:6xsym:6")


def test_sampled_validation_beyond_exhaustive_cap():
    # order above the exhaustive-associativity cap takes the sampled path
    G = build_builtin("cyclic:600")
    assert G.order == 600
    assert G.element_order(1) == 600


def test_element_orders_and_powers(s3, q8):
    assert s3.element_order(0) == 1
    assert s3.element_order(el(s3, "(12)")) == 2
    assert s3.element_order(el(s3, "(123)")) == 3
    i = el(q8, "i")
    assert q8.element_order(i) == 4
    assert q8.power(i, 2) == el(q8, "-1")
    assert q8.power(i, -1) == el(q8, "-i")
    assert q8.power(i, 0) == 0


# -- table documents ---------------------------------------------------------


KLEIN_TABLE = {
    "order": 4,
    "mul": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
}


def test_build_from_table_klein():
    G = build_from_table(KLEIN_TABLE)
    assert G.order == 4
    assert G.classes.count == 4  # abelian: singleton classes
    assert all(s == 1 for s in G.classes.sizes)


def test_corrupted_table_names_witness():
    bad = {"order": 4, "mul": [row[:] for row in KLEIN_TABLE["mul"]]}
    bad["mul"][1][2] = 1  # break the table away from the group law
    with pytest.raises(GroupTableError) as exc:
        build_from_table(bad)
    # the error carries a concrete witness (a failing triple or axiom)
    assert any(ch.isdigit() for ch in str(exc.value))


def test_identity_not_first_rejected():
    shifted = {"order": 2, "mul": [[1, 0], [0, 1]]}
    with pytest.raises(GroupTableError, match="identity"):
        build_from_table(shifted)


@pytest.mark.parametrize("doc", MALFORMED_TABLES)
def test_malformed_table_document_rejected(doc):
    with pytest.raises(GroupTableError):
        build_from_table(json.dumps(doc))


def test_table_round_trip(s3):
    doc = to_table_doc(s3)
    G2 = build_from_table(json.dumps(doc))
    assert G2.mul == s3.mul
    assert G2.names == s3.names


# -- conjugation ---------------------------------------------------------------


def test_conj_by_identity(s3):
    assert all(s3.conj(a, 0) == a for a in range(6))


def test_conj_example(s3):
    assert s3.conj(el(s3, "(12)"), el(s3, "(13)")) == el(s3, "(23)")


def test_conj_abelian_trivial(c4):
    for a in range(4):
        for b in range(4):
            assert c4.conj(a, b) == a


def test_conj_right_action_law(s3, q8):
    for G in (s3, q8):
        for a in range(G.order):
            for b in range(G.order):
                for c in range(G.order):
                    assert G.conj(G.conj(a, b), c) == G.conj(a, G.prod(b, c))


def test_class_of_conjugation_invariant(s3, d4):
    for G in (s3, d4):
        cls = G.classes
        for a in range(G.order):
            for b in range(G.order):
                assert cls.class_of[a] == cls.class_of[G.conj(a, b)]


def test_class_zero_is_identity(s3, c4, q8):
    for G in (s3, c4, q8):
        assert G.classes.members[0] == (0,)
        assert G.classes.sizes[0] == 1


def test_cyclic4_singleton_classes(c4):
    assert c4.classes.count == 4


# -- subgroups -----------------------------------------------------------------


def test_closure_empty_is_identity(s3):
    assert subgroup_closure(s3, []).elements() == [0]


def test_closure_transpositions_is_s3(s3):
    m = subgroup_closure(s3, [el(s3, "(12)"), el(s3, "(13)")])
    assert m.is_full()


def test_closure_three_cycle_is_a3(s3):
    m = subgroup_closure(s3, [el(s3, "(123)")])
    assert m.size == 3
    assert el(s3, "(132)") in m


@given(st.lists(st.integers(0, 5), max_size=4), st.lists(st.integers(0, 5), max_size=4))
@settings(max_examples=60, deadline=None)
def test_closure_idempotent_and_monotone(seed_a, seed_b):
    G = build_builtin("sym:3")
    a = subgroup_closure(G, seed_a)
    again = subgroup_closure(G, a.elements())
    assert again.bits == a.bits
    bigger = subgroup_closure(G, seed_a + seed_b)
    assert a.issubset(bigger)


def test_commutator_subgroups(s3, c4, klein, q8):
    assert commutator_subgroup(c4).size == 1
    assert commutator_subgroup(klein).size == 1
    m = commutator_subgroup(s3)
    assert m.size == 3 and el(s3, "(123)") in m
    mq = commutator_subgroup(q8)
    assert mq.size == 2 and el(q8, "-1") in mq


# -- gamma sets ----------------------------------------------------------------


def test_gamma_from_transposition(s3):
    g = make_gamma(s3, [el(s3, "(12)")])
    assert g.size == 3
    assert sorted(g.elements()) == sorted([el(s3, "(12)"), el(s3, "(13)"), el(s3, "(23)")])


def test_gamma_all_nontrivial(s3):
    g = make_gamma(s3, "all-nontrivial")
    assert g.size == 5
    assert 0 not in g


def test_gamma_abelian_singleton(c4):
    g = make_gamma(c4, [1])
    assert g.elements() == [1]


def test_gamma_rejects_identity_and_empty(s3):
    with pytest.raises(ValueError):
        make_gamma(s3, [0])
    with pytest.raises(ValueError):
        make_gamma(s3, [])


def test_gamma_closed_under_conjugation(s3, q8):
    for G in (s3, q8):
        g = make_gamma(G, "all-nontrivial")
        for x in g.elements():
            for h in range(G.order):
                assert G.conj(x, h) in g
