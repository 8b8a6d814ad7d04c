import itertools
import json
import re

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
from hurwitz.groups import SubgroupMask, _build_cyclic, _build_dihedral, closure_bits
from conftest import MALFORMED_TABLES, bench_oracles, el


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
    assert G.element_orders[r] == 4
    assert G.element_orders[s] == 2
    # s r s = r^-1
    assert G.mul[G.mul[s][r]][s] == G.inv[r]


@pytest.mark.parametrize("n", [1, 2, 3, 7, 1000])
def test_rotation_tables_match_entrywise_formulas(n):
    # the row slicing of the cyclic and dihedral builders against the
    # entry-by-entry formulas of the presentation
    def dihedral_mul(a, b):
        fa, ia = divmod(a, n)
        fb, ib = divmod(b, n)
        if fa == 0 and fb == 0:
            return (ia + ib) % n
        if fa == 0:
            return n + (ib - ia) % n
        if fb == 0:
            return n + (ia + ib) % n
        return (ib - ia) % n

    assert _build_cyclic(n)[0] == [[(i + j) % n for j in range(n)] for i in range(n)]
    assert _build_dihedral(n)[0] == [[dihedral_mul(a, b) for b in range(2 * n)]
                                     for a in range(2 * n)]


def test_alt_groups():
    assert build_builtin("alt:3").order == 3
    assert build_builtin("alt:4").order == 12
    assert build_builtin("alt:5").order == 60


def test_quaternion_classes(q8):
    assert q8.order == 8
    assert sorted(q8.classes.sizes) == [1, 1, 2, 2, 2]
    i, j, k = el(q8, "i"), el(q8, "j"), el(q8, "k")
    assert q8.mul[i][j] == k
    assert q8.mul[j][i] == el(q8, "-k")
    assert q8.mul[i][i] == el(q8, "-1")


def test_product_group(klein):
    assert klein.order == 4
    assert all(s == 1 for s in klein.classes.sizes)
    assert all(klein.element_orders[x] in (1, 2) for x in range(4))


def test_multi_factor_product():
    G = build_builtin("cyclic:2xcyclic:3xcyclic:2")
    assert G.order == 12
    assert all(s == 1 for s in G.classes.sizes)
    assert sorted({G.element_orders[x] for x in range(12)}) == [1, 2, 3, 6]
    H = build_builtin("cyclic:2xsym:3")
    assert H.order == 12
    assert not all(s == 1 for s in H.classes.sizes)
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


def test_exhaustive_validation_at_order_600():
    # associativity is checked exhaustively at every order, this one included
    G = build_builtin("cyclic:600")
    assert G.order == 600
    assert G.element_orders[1] == 600


@pytest.mark.parametrize("spec, degree", [
    ("sym:1", 1), ("sym:2", 2), ("alt:3", 3), ("sym:5", 5), ("alt:6", 6),
])
def test_permutation_tables_match_oracle(spec, degree):
    G = build_builtin(spec)
    assert G.mul == bench_oracles().TableGroup.from_permutations(G.names, degree).mul


def test_element_orders_and_powers(s3, q8):
    assert s3.element_orders[0] == 1
    assert s3.element_orders[el(s3, "(12)")] == 2
    assert s3.element_orders[el(s3, "(123)")] == 3
    i = el(q8, "i")
    assert q8.element_orders[i] == 4


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


def _failing_triples(mul):
    """Every (a, b, c) with (a*b)*c != a*(b*c), by brute force over n^3."""
    n = len(mul)
    return [(a, b, c) for a in range(n) for b in range(n) for c in range(n)
            if mul[mul[a][b]][c] != mul[a][mul[b][c]]]


def _has_identity_and_inverses(mul):
    """The checks the validator makes besides associativity."""
    n = len(mul)
    if any(mul[0][x] != x or mul[x][0] != x for x in range(n)):
        return False
    return all(0 in row and mul[row.index(0)][a] == 0 for a, row in enumerate(mul))


def _assert_rejected_with_witness(mul):
    """The table is rejected, and the reported triple really fails associativity."""
    with pytest.raises(GroupTableError, match="associativity") as exc:
        build_from_table({"order": len(mul), "mul": mul})
    m = re.search(r"associativity fails at \((\d+), (\d+), (\d+)\)", str(exc.value))
    a, b, c = map(int, m.groups())
    assert mul[mul[a][b]][c] != mul[a][mul[b][c]]
    return a, b, c


def _octonion_unit_loop():
    """The 16 units +-e0..+-e7 under octonion multiplication, +-e_i at 2i, 2i+1."""
    sign_axis = {(0, i): (1, i) for i in range(8)}
    sign_axis.update({(i, 0): (1, i) for i in range(8)})
    sign_axis.update({(i, i): (-1, 0) for i in range(1, 8)})
    for i, j, k in ((1, 2, 3), (1, 4, 5), (1, 7, 6), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 6, 5)):
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            sign_axis[x, y] = (1, z)
            sign_axis[y, x] = (-1, z)

    def mul(a, b):
        s, axis = sign_axis[a // 2, b // 2]
        return 2 * axis + ((a + b) % 2 if s > 0 else 1 - (a + b) % 2)

    return [[mul(a, b) for b in range(16)] for a in range(16)]


def test_planted_error_above_old_exhaustive_order_rejected():
    # one corrupted entry in an order-600 table; sampling 20,000 of the
    # 216,000,000 triples misses it, an exhaustive check does not
    n = 600
    mul = [[(i + j) % n for j in range(n)] for i in range(n)]
    mul[5][7] = 13
    assert _assert_rejected_with_witness(mul) == (4, 1, 7)


def test_octonion_unit_loop_rejected():
    mul = _octonion_unit_loop()
    assert _has_identity_and_inverses(mul)
    # alternative and flexible, so any two elements associate (Artin) ...
    for x in range(16):
        for y in range(16):
            assert mul[mul[x][x]][y] == mul[x][mul[x][y]]
            assert mul[mul[y][x]][x] == mul[y][mul[x][x]]
            assert mul[mul[x][y]][x] == mul[x][mul[y][x]]
    # ... but the loop is not a group
    assert len(_failing_triples(mul)) == 1344
    _assert_rejected_with_witness(mul)


@pytest.mark.parametrize("spec", ["sym:3", "quaternion:8"])
def test_single_entry_changes_match_brute_force(spec):
    table = build_builtin(spec).mul
    n = len(table)
    survivors = 0
    for i, j in itertools.product(range(1, n), repeat=2):
        for value in range(n):
            if value == table[i][j]:
                continue
            mul = [row[:] for row in table]
            mul[i][j] = value
            if not _has_identity_and_inverses(mul):
                continue
            survivors += 1
            if _failing_triples(mul):
                _assert_rejected_with_witness(mul)
            else:
                assert build_from_table({"order": n, "mul": mul}).mul == mul
    assert survivors > 0


@pytest.mark.parametrize("entry", [-1, 4, 1.0, "1", None])
def test_bad_entry_named(entry):
    bad = {"order": 4, "mul": [row[:] for row in KLEIN_TABLE["mul"]]}
    bad["mul"][2][3] = entry
    with pytest.raises(GroupTableError, match=r"entry mul\[2\]\[3\] = .* out of range"):
        build_from_table(bad)


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
                    assert G.conj(G.conj(a, b), c) == G.conj(a, G.mul[b][c])


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
    assert m.bits == (1 << m.order) - 1


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
    assert a.bits & ~bigger.bits == 0


@given(st.lists(st.integers(0, 23), max_size=3), st.integers(0, 23))
@settings(max_examples=60, deadline=None)
def test_closure_matches_pairwise_oracle(seed, extra):
    # the generator-span closure against the oracle's all-pairs closure
    G = build_builtin("sym:4")
    oracle = bench_oracles().TableGroup(G.mul)
    m = subgroup_closure(G, seed)
    assert set(m.elements()) == oracle.subgroup(seed)
    grown = SubgroupMask(closure_bits(G.mul, m.bits, extra), G.order)
    assert set(grown.elements()) == oracle.subgroup(seed + [extra])


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
    assert len(g.elements()) == 3
    assert sorted(g.elements()) == sorted([el(s3, "(12)"), el(s3, "(13)"), el(s3, "(23)")])


def test_gamma_all_nontrivial(s3):
    g = make_gamma(s3, "all-nontrivial")
    assert len(g.elements()) == 5
    assert 0 not in g


def test_gamma_abelian_singleton(c4):
    g = make_gamma(c4, [1])
    assert g.elements() == [1]


def test_gamma_rejects_identity_and_empty(s3):
    with pytest.raises(ValueError):
        make_gamma(s3, [0])
    with pytest.raises(ValueError):
        make_gamma(s3, [])


@pytest.mark.parametrize("bad", [True, False, 1.0, 0.0, "1", None], ids=repr)
def test_gamma_representatives_are_plain_ints(s3, bad):
    # True was served as element 1, False was refused as the identity and
    # 1.0 raised TypeError
    with pytest.raises(ValueError, match=re.escape(f"gamma representative {bad!r} is not")):
        make_gamma(s3, [bad])
    with pytest.raises(ValueError, match=re.escape(f"gamma representative {bad!r} is not")):
        make_gamma(s3, [1, bad])


def test_gamma_closed_under_conjugation(s3, q8):
    for G in (s3, q8):
        g = make_gamma(G, "all-nontrivial")
        for x in g.elements():
            for h in range(G.order):
                assert G.conj(x, h) in g
