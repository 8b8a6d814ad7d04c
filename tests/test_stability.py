import itertools
import random
import re

import pytest

from hurwitz import (
    FiberSpec,
    braid_equivalent,
    build_builtin,
    enumerate_classes,
    evaluate,
    factor_witness,
    find_stability_bound,
    h2_structure,
    adj_word_equal,
    make_gamma,
    make_stabilizer,
    nielsen,
    orbit_members,
    sigma,
    stable_equivalent,
    subgroup_closure,
    u_gamma,
)
from hurwitz.lattice import OrbitLattice, get_lattice
from conftest import el, generating_gammas


# -- the gamma stabiliser --------------------------------------------------------


def test_u_gamma_transpositions(s3, s3_transpositions):
    u = u_gamma(s3, s3_transpositions)
    assert len(u.vector) == 6
    assert u.ev == 0
    assert u.nu == (0, 6, 0)
    # ascending element order, each transposition twice
    assert u.vector == tuple(sorted(u.vector))
    assert {u.vector.count(g) for g in set(u.vector)} == {2}


def test_u_gamma_cyclic2():
    G = build_builtin("cyclic:2")
    u = u_gamma(G, make_gamma(G, [1]))
    assert u.vector == (1, 1)


def test_u_gamma_all_nontrivial_counts(s3, s3_all):
    u = u_gamma(s3, s3_all)
    assert u.nu == (0, 6, 6)
    assert len(u.vector) == 12


def test_u_gamma_class_is_order_independent(s3, s3_all, s3_transpositions):
    # centrality makes the braid class independent of the enumeration order
    rng = random.Random(0)
    for gam in (s3_transpositions, s3_all):
        u = u_gamma(s3, gam)
        orders = s3.element_orders
        blocks = [[g] * orders[g] for g in gam.elements()]
        for _ in range(5):
            rng.shuffle(blocks)
            permuted = tuple(x for b in blocks for x in b)
            assert braid_equivalent(s3, u.vector, permuted)


def test_stabilizer_carries_its_subgroup(s3):
    for spec in ("sym:3", "alt:4", "quaternion:8"):
        G = build_builtin(spec)
        u = u_gamma(G, make_gamma(G, "all-nontrivial"))
        assert u.sub == subgroup_closure(G, u.vector).bits
    t12 = el(s3, "(12)")
    st = make_stabilizer(s3, (t12, t12))
    assert st.sub == subgroup_closure(s3, (t12,)).bits == 1 | (1 << t12)


def test_warm_queries_compute_no_subgroup_closure(monkeypatch, s3_all):
    import hurwitz.groups

    G = build_builtin("sym:3")
    u = u_gamma(G, s3_all)
    t12, t13, t23 = el(G, "(12)"), el(G, "(13)"), el(G, "(23)")
    pairs = [((t12, t12), (t13, t13)), ((t12, t13), (t23, t12)), ((t12, t13), (t13, t23))]

    def answers():
        return [(braid_equivalent(G, v, w), stable_equivalent(G, v, w, u, window=3, confirm=1))
                for v, w in pairs]

    cold = answers()

    def no_closure(*args):
        raise AssertionError("subgroup closure recomputed on a warm query")

    monkeypatch.setattr(hurwitz.groups, "_closure", no_closure)
    assert answers() == cold


# -- stabilisation maps -----------------------------------------------------------


def test_stabilize_map_spec_example(s3, s3_transpositions):
    # appending (12) to each (0,2,0) class lands at (0,3,0), in the class of v + (t,)
    t = el(s3, "(12)")
    st = make_stabilizer(s3, (t,))
    domain = enumerate_classes(s3, FiberSpec(nu=(0, 2, 0), gamma=s3_transpositions))
    L = get_lattice(s3)
    images = [L.shift(L.class_of(cls.canonical), st.vector) for cls in domain]
    assert len(images) == len(domain)
    for cls, image in zip(domain, images):
        assert nielsen(s3, L.canonical(image)) == (0, 3, 0)
        assert braid_equivalent(s3, cls.canonical + (t,), L.canonical(image))
    # the level map agrees on the classes whose subgroup contains (12)
    level_domain, level_images = L.shift_level((0, 2, 0), st.vector, st.sub)
    assert level_domain
    assert all(L.shift(x, st.vector) == y for x, y in zip(level_domain, level_images))


def test_stabilize_map_well_defined_on_classes(s3, s3_transpositions):
    u = u_gamma(s3, s3_transpositions)
    spec = FiberSpec(nu=(0, 2, 0), gamma=s3_transpositions)
    from hurwitz.lattice import get_lattice

    L = get_lattice(s3)
    for cls in enumerate_classes(s3, spec):
        targets = {L.append_word(L.class_of(m), u.vector) for m in orbit_members(s3, cls.canonical)}
        assert len(targets) == 1


# -- bound search -----------------------------------------------------------------


def test_bound_zero_for_abelian(c4, klein):
    for G in (c4, klein):
        gam = make_gamma(G, "all-nontrivial")
        rep = find_stability_bound(G, gam, window=3)
        assert rep.bound == 0
        assert rep.confident
        assert all(lv.count == 1 for lv in rep.levels)


def test_bound_s3_transpositions(s3, s3_transpositions):
    rep = find_stability_bound(s3, s3_transpositions, window=4)
    assert rep.bound is not None
    assert rep.confident
    stable_counts = {lv.count for lv in rep.levels if lv.n >= rep.bound}
    assert len(stable_counts) == 1
    # counts are non-increasing once surjectivity holds
    gen = [lv.generating_count for lv in rep.levels]
    surj_from = next(lv.n for lv in rep.levels if lv.surjective)
    assert all(a >= b for a, b in zip(gen[surj_from:], gen[surj_from + 1:]))


def test_bound_window_zero_is_flagged(s3, s3_transpositions):
    rep = find_stability_bound(s3, s3_transpositions, window=0)
    assert rep.levels == ()
    assert rep.bound is None
    assert not rep.confident
    assert rep.error


def test_bound_requires_generating_gamma(s3):
    gam = make_gamma(s3, [el(s3, "(123)")])  # 3-cycles only generate A3
    with pytest.raises(ValueError, match="generate"):
        find_stability_bound(s3, gam)


@pytest.mark.parametrize("nu0", [(0, 2, 2, 7), (0, 2), ()], ids=repr)
def test_bound_rejects_nu0_of_the_wrong_length(nu0):
    # (0, 2, 2, 7) was truncated to (0, 2, 2) and reported with bound 0
    G = build_builtin("sym:3")
    L = get_lattice(G)
    before = L.node_count()
    msg = re.escape(f"nu0 has {len(nu0)} entries, expected one per conjugacy class: 3")
    with pytest.raises(ValueError, match=msg):
        find_stability_bound(G, make_gamma(G, "all-nontrivial"), nu0, window=2)
    assert L.node_count() == before


@pytest.mark.parametrize("nu0, position", [((0, 2.0, 2), 1), ((0, True, 2), 1),
                                           ((0, 2, -1), 2), (("0", 2, 2), 0)], ids=repr)
def test_bound_rejects_nu0_entries_that_are_not_non_negative_ints(nu0, position):
    # (0, 2.0, 2) and (0, True, 2) were served and echoed back in the report
    G = build_builtin("sym:3")
    L = get_lattice(G)
    before = L.node_count()
    msg = re.escape(f"nu0 entry {nu0[position]!r} at position {position} is not a "
                    "non-negative int")
    with pytest.raises(ValueError, match=msg):
        find_stability_bound(G, make_gamma(G, "all-nontrivial"), nu0, window=2)
    assert L.node_count() == before


def test_negative_confirm_rejected(s3, s3_transpositions):
    u = u_gamma(s3, s3_transpositions)
    t12 = el(s3, "(12)")
    with pytest.raises(ValueError, match="confirm"):
        find_stability_bound(s3, s3_transpositions, window=1, confirm=-1)
    with pytest.raises(ValueError, match="confirm"):
        stable_equivalent(s3, (t12,), (t12,), u, confirm=-1)


def test_negative_window_rejected(s3, s3_transpositions):
    u = u_gamma(s3, s3_transpositions)
    t12, t13 = el(s3, "(12)"), el(s3, "(13)")
    with pytest.raises(ValueError, match="window"):
        stable_equivalent(s3, (t12, t12), (t13, t13), u, window=-2)
    with pytest.raises(ValueError, match="window"):
        find_stability_bound(s3, s3_transpositions, window=-1)
    # window 0 still looks at the pair as given
    assert stable_equivalent(s3, (t12,), (t12,), u, window=0).equivalent is True


def test_bound_not_found_within_tiny_window(s3, s3_transpositions):
    # base level below any surjectivity: a single transposition cannot map
    # onto the level-one class set bijectively
    rep = find_stability_bound(s3, s3_transpositions, nu0=(0, 1, 0), window=1)
    assert rep.bound is None or not rep.confident


def test_invariable_generation_makes_full_fibers_biject(s3, s3_all):
    # the all-nontrivial set generates invariably: above the bound every
    # class at an explored level generates, so appending any single letter
    # bijects between the unrestricted class sets
    from hurwitz.lattice import get_lattice

    rep = find_stability_bound(s3, s3_all, window=3)
    assert rep.bound is not None
    L = get_lattice(s3)
    base = rep.levels[rep.bound].nu
    for g in s3_all.elements():
        cid = s3.classes.class_of[g]
        target = base[:cid] + (base[cid] + 1,) + base[cid + 1:]
        domain = L.classes_at(base)
        images = [L.append_word(x, (g,)) for x in domain]
        assert len(set(images)) == len(domain)
        assert set(images) == set(L.classes_at(target))


# -- power padding and factorisation -------------------------------------------------


def test_conjugate_power_padding_s3(s3):
    # v generating, g1 ~ g2 of order n  =>  v + g1^n  ~  v + g2^n
    full = s3.full_mask().bits
    gens = [v for v in itertools.product(range(6), repeat=2)
            if subgroup_closure(s3, v).bits == full]
    classes = s3.classes
    for v in gens:
        for cid in (1, 2):
            members = classes.members[cid]
            n = s3.element_orders[members[0]]
            for g1 in members:
                for g2 in members:
                    assert braid_equivalent(s3, v + (g1,) * n, v + (g2,) * n)


def test_factor_witness_exists_when_nielsen_dominates(s3, s3_transpositions):
    # every generating class with nu(w) >= nu(u_gamma) + nu(u) factors as v+u
    u = (el(s3, "(12)"),)
    target_nu = (0, 7, 0)
    from hurwitz.lattice import get_lattice

    L = get_lattice(s3)
    full = s3.full_mask().bits
    for node in L.classes_at(target_nu):
        if L.sub_bits(node) != full:
            continue
        w = L.canonical(node)
        v = factor_witness(s3, w, u)
        assert v is not None
        assert subgroup_closure(s3, v).bits == (1 << s3.order) - 1
        assert braid_equivalent(s3, w, v + u)


def test_factor_witness_none_when_nielsen_too_small(s3):
    assert factor_witness(s3, (el(s3, "(12)"),), (el(s3, "(123)"),)) is None


@pytest.mark.parametrize("bad", [(1, -1), (1, 7), (1, True), (1, 1.0)])
def test_stabilizer_and_witness_reject_entries_outside_the_group(bad):
    # make_stabilizer(G, (1, -1)) once gave a stabiliser with nu (0, 2, 0)
    # and ev 4, read by negative indexing, and factor_witness(G, (1, 2, 3),
    # (7,)) raised a bare IndexError
    G = build_builtin("sym:3")
    message = re.escape(f"entry {bad[1]!r} at position 1")
    with pytest.raises(ValueError, match=message):
        make_stabilizer(G, bad)
    with pytest.raises(ValueError, match=message):
        factor_witness(G, bad, (1,))
    with pytest.raises(ValueError, match=message):
        factor_witness(G, (1, 2, 3), bad)
    with pytest.raises(ValueError, match=re.escape("entry 7 at position 0")):
        factor_witness(G, (1, 2, 3), (7,))
    assert get_lattice(G).node_count() == 1


# -- stable equivalence ----------------------------------------------------------------


def test_stable_eq_true_at_level_zero(s3, s3_transpositions):
    u = u_gamma(s3, s3_transpositions)
    t12, t13, t23 = el(s3, "(12)"), el(s3, "(13)"), el(s3, "(23)")
    res = stable_equivalent(s3, (t12, t13), (t23, t12), u)
    assert res.equivalent is True and res.level == 0


def test_stable_eq_false_on_invariant_mismatch(s3, s3_transpositions):
    u = u_gamma(s3, s3_transpositions)
    t12, t13, t23 = el(s3, "(12)"), el(s3, "(13)"), el(s3, "(23)")
    res = stable_equivalent(s3, (t12, t13), (t12, t23), u)
    assert res.equivalent is False and res.level == 0
    res = stable_equivalent(s3, (t12,), (t12, t12), u)
    assert res.equivalent is False


def test_stable_eq_true_after_appends(s3, s3_transpositions):
    u = u_gamma(s3, s3_transpositions)
    t12, t13 = el(s3, "(12)"), el(s3, "(13)")
    res = stable_equivalent(s3, (t12, t12), (t13, t13), u)
    assert res.equivalent is True
    assert res.level == 1
    # sanity: they are not plainly braid equivalent (subgroups differ)
    assert not braid_equivalent(s3, (t12, t12), (t13, t13))


def test_stable_eq_false_through_injective_tail(s3):
    # with the non-generating stabiliser (12), the tuples (13)^2 and (23)^2
    # keep distinct generated subgroups forever: Z2 versus all of S3 once a
    # (12) is appended to (13),(13).  The false verdict must come from the
    # injectivity of the explored appends, not from an invariant prefilter.
    t12, t13 = el(s3, "(12)"), el(s3, "(13)")
    u = make_stabilizer(s3, (t12,))
    res = stable_equivalent(s3, (t12, t12), (t13, t13), u, window=6)
    assert nielsen(s3, (t12, t12)) == nielsen(s3, (t13, t13))
    assert evaluate(s3, (t12, t12)) == evaluate(s3, (t13, t13))
    assert res.equivalent is False
    assert res.level is not None and res.level >= 1


def test_stable_eq_indeterminate_with_zero_window(s3, s3_transpositions):
    u = u_gamma(s3, s3_transpositions)
    t12, t13 = el(s3, "(12)"), el(s3, "(13)")
    res = stable_equivalent(s3, (t12, t12), (t13, t13), u, window=0)
    assert res.equivalent is None
    assert res.indeterminate


def test_stable_eq_is_equivalence_on_fibers(s3, s3_all):
    u = u_gamma(s3, s3_all)
    vs = [v for v in itertools.product(range(1, 6), repeat=3)
          if nielsen(s3, v) == (0, 2, 1) and evaluate(s3, v) == 0]
    verdicts = {}
    for v in vs[::2]:
        for w in vs[::2]:
            r = stable_equivalent(s3, v, w, u, window=3)
            assert r.equivalent is not None
            verdicts[(v, w)] = r.equivalent
    for v, w in list(verdicts):
        assert verdicts[(v, w)] == verdicts[(w, v)]
        assert verdicts[(v, v)] is True


# -- stabiliser append memo --------------------------------------------------------------


def a4_pair():
    """A fresh alt:4 (so a cold lattice) with gamma the two 3-cycle classes."""
    G = build_builtin("alt:4")
    return G, make_gamma(G, [el(G, "(123)"), el(G, "(132)")])


def distinct_generating_classes(G, nu):
    """Canonical reps of two generating classes at ``nu`` with one evaluation."""
    L = OrbitLattice(G)
    full = (1 << G.order) - 1
    by_ev = {}
    for x in L.classes_at(nu):
        if L.sub_bits(x) == full:
            by_ev.setdefault(L.ev(x), []).append(L.canonical(x))
    return next(vs[:2] for vs in by_ev.values() if len(vs) >= 2)


def test_memoised_shifts_match_fresh_folds():
    s3 = build_builtin("sym:3")
    G, gam = a4_pair()
    searches = [(G, gam, 2), (s3, make_gamma(s3, "all-nontrivial"), 4),
                (s3, make_gamma(s3, [el(s3, "(12)")]), 4)]
    for H, gamma, window in searches:
        find_stability_bound(H, gamma, None, window, 2)
    v, w = distinct_generating_classes(G, (0, 3, 3, 0))
    assert stable_equivalent(G, v, w, u_gamma(G, gam), window=3).equivalent is False
    for H in (G, s3):
        L, fresh = get_lattice(H), OrbitLattice(H)
        full = (1 << H.order) - 1
        # every stabiliser here generates the group, so domains are the
        # generating classes
        for (word, nu, sub), (domain, images) in L._level_shifts.items():
            assert sub == full
            assert domain == tuple(x for x in L.classes_at(nu) if L.sub_bits(x) == full)
            assert images == tuple(L._shifts[word][x] for x in domain)
        checked = 0
        for word, shifted in L._shifts.items():
            for node, image in shifted.items():
                cold = fresh.append_word(fresh.class_of(L.canonical(node)), word)
                assert fresh.canonical(cold) == L.canonical(image)
                checked += 1
        assert checked >= 20


def test_stable_outcomes_do_not_depend_on_history():
    G, gam = a4_pair()
    a, b = el(G, "(123)"), el(G, "(134)")
    v, w = distinct_generating_classes(G, (0, 3, 3, 0))
    pairs = [((a,) * 3, (b,) * 3), ((a, a, b), (b, b, a)), (v, w), (v, sigma(G, 2, v)),
             distinct_generating_classes(G, (0, 4, 2, 0))]

    def outcomes(G, gamma):
        u = u_gamma(G, gamma)
        return ([find_stability_bound(G, gamma, None, 1, 1)]
                + [stable_equivalent(G, x, y, u, window=3) for x, y in pairs])

    cold = outcomes(*a4_pair())
    assert [r.equivalent for r in cold[1:]] == [True, False, False, True, False]
    G, gam = a4_pair()
    u = u_gamma(G, gam)
    # a different stream first: other windows, confirms and base levels,
    # and the same stabiliser through the other callers of the memo
    find_stability_bound(G, gam, (0, 3, 3, 0), 2, 0)
    for x, y in reversed(pairs):
        stable_equivalent(G, y, x, u, window=2, confirm=1)
        factor_witness(G, x + u.vector, u.vector)
    assert outcomes(G, gam) == cold


@pytest.mark.parametrize("name, reps", [("sym:3", ["(12)"]), ("alt:4", ["(123)"])])
def test_a_group_keeps_only_its_tables_and_lattice(name, reps):
    # state kept on the group from one call to the next is what a later
    # answer could come to depend on; only derived tables and the lattice stay
    G = build_builtin(name)
    fields = set(vars(G))
    gam = make_gamma(G, [el(G, x) for x in reps])
    u = u_gamma(G, gam)
    a = gam.elements()[0]
    find_stability_bound(G, gam, window=2, confirm=1)
    adj_word_equal(G, gam, (a, a), (a, a), window=2)
    stable_equivalent(G, u.vector, u.vector, u, window=1)
    h2_structure(G, gam, window=2)
    get_lattice(G).classes_at(u.nu)
    assert fields == {"order", "mul", "names", "label", "inv", "_conj_table", "_classes",
                      "_orders", "_commutator"}
    assert set(vars(G)) == fields | {"_lattice"}


def test_warm_false_verdict_is_a_lookup(monkeypatch):
    G, gam = a4_pair()
    u = u_gamma(G, gam)
    v, w = distinct_generating_classes(G, (0, 4, 2, 0))
    warm = stable_equivalent(G, v, w, u, window=3)
    assert warm.equivalent is False
    fold = OrbitLattice.append_word

    def no_classes_at(self, nu):
        raise AssertionError("classes_at called on a warm verdict")

    def no_fold_of_u(self, node, word):
        if word == u.vector:
            raise AssertionError("u folded again on a warm verdict")
        return fold(self, node, word)

    monkeypatch.setattr(OrbitLattice, "classes_at", no_classes_at)
    monkeypatch.setattr(OrbitLattice, "append_word", no_fold_of_u)
    assert stable_equivalent(G, v, w, u, window=3) == warm


# -- adjoint word equality ----------------------------------------------------------------


def test_adj_quandle_relation(s3, s3_transpositions):
    gam = s3_transpositions
    for a in gam.elements():
        for b in gam.elements():
            res = adj_word_equal(s3, gam, (a, b), (b, s3.conj(a, b)))
            assert res.equivalent is True


def test_adj_distinct_nielsen_is_false(s3, s3_all):
    t12, c3 = el(s3, "(12)"), el(s3, "(123)")
    res = adj_word_equal(s3, s3_all, (t12, t12), (c3, c3))
    assert res.equivalent is False
    res = adj_word_equal(s3, s3_all, (t12,), (t12, t12, t12))
    assert res.equivalent is False


def test_adj_squares_of_conjugates_equal(s3, s3_transpositions):
    t12, t13 = el(s3, "(12)"), el(s3, "(13)")
    res = adj_word_equal(s3, s3_transpositions, (t12, t12), (t13, t13))
    assert res.equivalent is True


def test_adj_requires_generating_gamma(s3):
    c3 = el(s3, "(123)")
    with pytest.raises(ValueError, match="generate"):
        adj_word_equal(s3, make_gamma(s3, [c3]), (c3,), (c3,))


def test_adj_rejects_entries_outside_gamma(s3, s3_transpositions):
    with pytest.raises(ValueError, match="outside gamma"):
        adj_word_equal(s3, s3_transpositions, (el(s3, "(123)"),), (el(s3, "(12)"),))


@pytest.mark.parametrize("bad", [(1, -1), (1, 7), (1, True), (1, 1.0)])
def test_adj_rejects_entries_outside_the_group(s3, s3_all, bad):
    # (1, -1) raised "negative shift count" from the gamma test, (1, 7) was
    # reported as outside gamma and (1, 1.0) raised a TypeError
    with pytest.raises(ValueError, match=re.escape(f"entry {bad[1]!r} at position 1")):
        adj_word_equal(s3, s3_all, bad, (1, 2))


def test_adj_word_equal_reuses_its_stabiliser(monkeypatch):
    # the group keeps no stabiliser; a warm call rebuilds u_gamma and reads
    # the lattice's shift maps, which are keyed by the word's value
    G = build_builtin("sym:3")
    gam = make_gamma(G, "all-nontrivial")
    u = u_gamma(G, gam)
    t12, t13, t23, c3 = (el(G, x) for x in ("(12)", "(13)", "(23)", "(123)"))
    pairs = [((t12, t12), (t13, t13)), ((t12, t13), (t23, t12)),
             ((t12, t13), (t12, t23)), ((t12, c3), (c3, t13)), ((c3,), (t12,))]

    def verdicts():
        return [adj_word_equal(G, gam, v, w, window=3, confirm=1).equivalent for v, w in pairs]

    warm = verdicts()
    fold = OrbitLattice.append_word

    def no_fold_of_u(self, node, word):
        if word == u.vector:
            raise AssertionError("u_gamma folded again on a warm call")
        return fold(self, node, word)

    monkeypatch.setattr(OrbitLattice, "append_word", no_fold_of_u)
    assert verdicts() == warm
    assert True in warm and False in warm
