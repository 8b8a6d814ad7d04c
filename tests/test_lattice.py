import gc
import hashlib
import itertools
import json
import random
import re
import subprocess
import sys
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from hurwitz import (
    CapExceeded,
    Caps,
    FiberSpec,
    braid_equivalent,
    build_builtin,
    enumerate_classes,
    find_stability_bound,
    make_gamma,
    orbit,
    orbit_members,
    sigma,
    stable_equivalent,
    u_gamma,
)
from hurwitz.lattice import OrbitLattice, get_lattice
from conftest import cli_env, el, generating_gammas


def test_lattice_matches_raw_bfs_exhaustively(s3):
    L = OrbitLattice(s3)
    for d in range(0, 5):
        for v in itertools.product(range(6), repeat=d):
            node = L.class_of(v)
            o = orbit(s3, v)
            assert L.canonical(node) == o.canonical
            assert L.size(node) == o.size
            assert L.ev(node) == o.ev
            assert L.level(node) == o.nu
            assert L.sub_bits(node) == o.subgroup.bits


@given(st.lists(st.integers(0, 23), max_size=4))
@settings(max_examples=60, deadline=None)
def test_lattice_matches_raw_bfs_s4(entries):
    G = build_builtin("sym:4")
    L = get_lattice(G)
    v = tuple(entries)
    o = orbit(G, v)
    node = L.class_of(v)
    assert L.canonical(node) == o.canonical
    assert L.size(node) == o.size


def test_same_node_iff_same_orbit(s3):
    L = get_lattice(s3)
    vs = list(itertools.product(range(6), repeat=3))
    rng = random.Random(1)
    for _ in range(150):
        v, w = rng.choice(vs), rng.choice(vs)
        same = L.class_of(v) == L.class_of(w)
        assert same == (w in orbit_members(s3, v))


def test_classes_at_matches_direct_enumeration(s3, d4, q8):
    cases = [
        (s3, "all-nontrivial", [(0, 2, 0), (0, 2, 2), (0, 3, 1), (0, 0, 4)]),
        (d4, "all-nontrivial", [(0, 2, 0, 1, 1), (0, 0, 2, 1, 0)]),
        (q8, "all-nontrivial", [(0, 1, 2, 0, 0), (0, 0, 2, 1, 1)]),
    ]
    for G, gspec, nus in cases:
        gam = make_gamma(G, gspec)
        L = get_lattice(G)
        for nu in nus:
            spec = FiberSpec(nu=nu, gamma=gam)
            direct = enumerate_classes(G, spec, method="direct")
            nodes = L.classes_at(nu)
            assert [L.canonical(n) for n in nodes] == [c.canonical for c in direct]
            assert [L.size(n) for n in nodes] == [c.size for c in direct]


def test_classes_at_empty_level(s3):
    L = get_lattice(s3)
    nodes = L.classes_at((0, 0, 0))
    assert len(nodes) == 1
    assert L.canonical(nodes[0]) == ()
    assert L.size(nodes[0]) == 1


def test_every_gamma_element_heads_a_member_of_u_gamma(s3, d4, a4, s4, q8):
    # why `adj_word_equal` may read the monoid of fractions as a group:
    # u_gamma lists every g in gamma, and sigma moves an entry one place
    # left unchanged
    for G, reps, size in ((s3, ["(12)"], 240), (d4, ["s", "sr"], 8960)):
        gam = make_gamma(G, [el(G, x) for x in reps])
        members = orbit_members(G, u_gamma(G, gam).vector)
        assert len(members) == size
        assert {m[0] for m in members} == set(gam.elements())
    for G in (s3, a4, s4, q8):
        L = OrbitLattice(G)
        for gam in generating_gammas(G):
            u = u_gamma(G, gam).vector
            for g in gam.elements():
                v = u
                for i in range(u.index(g), 0, -1):
                    v = sigma(G, i, v)
                assert v[0] == g
                # a sym:4 stabiliser of more than 30 letters takes 7,145 to
                # 764,105 nodes to identify (the last about 90 s), so the
                # lattice check leaves those out
                if len(u) <= 30:
                    assert L.class_of(v) == L.class_of(u)


DEEP_LEVELS = {
    "classes-lattice": ("from hurwitz.cli import main; code = main(sys.argv[1:])",
                        ["classes", "--group", "cyclic:2", "--gamma", "all-nontrivial",
                         "--nielsen", "0,12000", "--format", "jsonl"]),
    "classes-direct": ("from hurwitz.cli import main; code = main(sys.argv[1:])",
                       ["classes", "--group", "cyclic:2", "--gamma", "all-nontrivial",
                        "--nielsen", "0,1200", "--method", "direct", "--format", "jsonl"]),
    "class-of-then-level": (
        "from hurwitz import build_builtin\n"
        "from hurwitz.lattice import OrbitLattice\n"
        "G = build_builtin('sym:3')\n"
        "L = OrbitLattice(G)\n"
        "L.class_of((G.index_of('(12)'),) * 1500)\n"
        "print(len(L.classes_at((0, 1500, 0))), L.node_count())\n"
        "code = 0", []),
}


@pytest.mark.parametrize("case", sorted(DEEP_LEVELS))
def test_deep_levels_run_at_the_default_recursion_limit(case):
    # a fresh process, at Python's default limit before and after the run
    body, argv = DEEP_LEVELS[case]
    program = ("import sys\nassert sys.getrecursionlimit() == 1000\n" + body +
               "\nprint('limit', sys.getrecursionlimit())\nsys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", program, *argv],
                          capture_output=True, text=True, env=cli_env())
    assert proc.returncode == 0, proc.stderr
    *lines, limit = proc.stdout.strip().splitlines()
    assert limit == "limit 1000"
    if case == "class-of-then-level":
        assert lines == ["6 8997"]
    else:
        assert json.loads(lines[-1])["total_classes"] == 1


def test_lattice_rebuild_is_deterministic(s3):
    a = OrbitLattice(s3)
    b = OrbitLattice(s3)
    nu = (0, 3, 2)
    assert [a.canonical(n) for n in a.classes_at(nu)] == [b.canonical(n) for n in b.classes_at(nu)]
    assert [a.size(n) for n in a.classes_at(nu)] == [b.size(n) for n in b.classes_at(nu)]


def assert_memo_matches_states(L):
    """No state belongs to two nodes, the append table maps each state to its
    node, and every filled slot of the table is a state of its node."""
    n = L._n
    assert len(L._next) == n * L.node_count()
    owner = {}
    for node in range(1, L.node_count()):
        pre, let = L._pre[node], L._let[node]
        assert len(pre) == len(let) > 0
        states = [c + a for c, a in zip(pre, let)]
        assert states == sorted(set(states))
        for p in states:
            assert owner.setdefault(p, node) == node
    filled = {p: t // n for p, t in enumerate(L._next) if t >= 0}
    assert all(t % n == 0 for t in L._next if t >= 0)
    assert owner == filled


def test_lattice_above_order_256_matches_raw_bfs():
    # above order 256 last letters and canonical representatives are tuples
    G = build_builtin("alt:6")
    L = OrbitLattice(G)
    assert isinstance(L._let[0], tuple)
    rng = random.Random(6)
    for _ in range(40):
        v = tuple(rng.randrange(G.order) for _ in range(3))
        node = L.class_of(v)
        o = orbit(G, v)
        assert L.canonical(node) == o.canonical
        assert L.size(node) == o.size
        assert L.ev(node) == o.ev
        assert L.level(node) == o.nu
        assert L.sub_bits(node) == o.subgroup.bits
    assert_memo_matches_states(L)


def test_lattice_bytes_per_node():
    # the append table and the per-node state fields, measured as allocated
    # bytes per node over a whole build (a state-keyed dict took 869)
    L = OrbitLattice(build_builtin("alt:4"))
    gc.collect()
    tracemalloc.start()
    try:
        L.classes_at((0, 36, 36, 0))
        allocated = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert L.node_count() == 16_389
    assert allocated / L.node_count() <= 600


def test_node_counts_are_pinned():
    s3 = build_builtin("sym:3")
    L = OrbitLattice(s3)
    assert len(L.classes_at((0, 12, 12))) == 3
    assert L.node_count() == 591
    a4 = build_builtin("alt:4")
    gamma = make_gamma(a4, [a4.index_of("(123)")])
    assert find_stability_bound(a4, gamma, None, 3, 2).bound == 0
    assert get_lattice(a4).node_count() == 564


def test_memo_maps_every_state_to_its_node(d4, q8):
    for G, nu in ((d4, (0, 1, 4, 2, 2)), (q8, (0, 2, 4, 4, 4))):
        L = OrbitLattice(G)
        L.classes_at(nu)
        assert_memo_matches_states(L)


def test_append_word_matches_append_fold(d4):
    rng = random.Random(3)
    words = [tuple(rng.randrange(d4.order) for _ in range(rng.randrange(9))) for _ in range(60)]
    folded, inlined = OrbitLattice(d4), OrbitLattice(d4)
    for word in words:
        node = 0
        for g in word:
            node = folded.append_word(node, (g,))
        assert inlined.append_word(0, word) == node
        assert inlined.node_count() == folded.node_count()


def test_dropped_group_frees_its_lattice():
    # the group holds its lattice and the lattice holds no reference back,
    # so reference counting alone frees both
    gc.disable()
    try:
        G = build_builtin("sym:3")
        get_lattice(G).classes_at((0, 2, 2))
        ref = weakref.ref(get_lattice(G))
        del G
        assert ref() is None
    finally:
        gc.enable()


def test_lattice_node_cap():
    G = build_builtin("sym:3")
    L = OrbitLattice(G)
    L.limit_new_nodes(10)
    with pytest.raises(CapExceeded):
        L.classes_at((0, 4, 4))


def test_cap_error_from_a_deep_build_carries_no_chain():
    # the nested builds run outside any exception handler, so the cap error
    # keeps no chained exception, and with it no frame, per nesting level
    G = build_builtin("sym:3")
    rng = random.Random(5)
    v = tuple(rng.randrange(1, 6) for _ in range(40))
    L = OrbitLattice(G)
    L.limit_new_nodes(300)
    with pytest.raises(CapExceeded) as exc:
        L.class_of(v)
    assert exc.value.__context__ is None
    assert exc.value.__cause__ is None


def test_failed_build_leaves_the_node_lists_in_step(s3):
    # a letter outside the group makes the build raise after its closure;
    # no per-node list may have grown for it, or every later node would
    # read another node's subgroup and level.  `class_of` rejects such a
    # letter at entry, so the inner fold `append_word` is driven with it directly.
    L = OrbitLattice(s3)
    with pytest.raises(ValueError):
        L.append_word(L.class_of((1,)), (-1,))
    lists = (L._bases, L._pre, L._let, L._size, L._canon, L._ev, L._sub, L._level_id, *L._conj)
    assert {len(x) for x in lists} == {L.node_count()}
    assert_memo_matches_states(L)
    fresh = OrbitLattice(s3)
    nu = (0, 2, 2)
    assert ([(L.canonical(x), L.sub_bits(x), L.level(x)) for x in L.classes_at(nu)]
            == [(fresh.canonical(x), fresh.sub_bits(x), fresh.level(x)) for x in fresh.classes_at(nu)])


def test_node_cap_counts_new_nodes_only():
    G = build_builtin("sym:3")
    warm = get_lattice(G, Caps(lattice_nodes=2_000_000))
    warm.classes_at((0, 4, 4))
    built = warm.node_count()
    with pytest.raises(CapExceeded) as exc:
        get_lattice(G, Caps(lattice_nodes=10)).classes_at((0, 6, 6))
    assert exc.value.visited == 10
    assert "at level (0, " in str(exc.value)
    L = get_lattice(G, Caps(lattice_nodes=2_000_000))
    assert L.node_count() == built + 10
    # the aborted build left the lattice consistent: finishing the level
    # gives what a fresh lattice gives
    assert_memo_matches_states(L)
    fresh = OrbitLattice(G)
    assert ([L.canonical(n) for n in L.classes_at((0, 6, 6))]
            == [fresh.canonical(n) for n in fresh.classes_at((0, 6, 6))])


def test_shift_memo_stores_completed_folds_only():
    G = build_builtin("sym:3")
    u = u_gamma(G, make_gamma(G, "all-nontrivial"))
    word, nu = u.vector * 3, tuple(3 * x for x in u.nu)
    L = OrbitLattice(G)
    L.limit_new_nodes(10)
    with pytest.raises(CapExceeded):
        L.shift(0, word)
    with pytest.raises(CapExceeded):
        L.shift_level(nu, u.vector, u.sub)
    assert not L._shifts.get(word) and not L._level_shifts
    L.limit_new_nodes(10**6)
    fresh = OrbitLattice(G)
    image = L.shift(0, word)
    assert L._shifts[word] == {0: image}
    assert L.canonical(image) == fresh.canonical(fresh.append_word(0, word))
    assert L.node_count() == fresh.node_count()
    assert L.shift(0, word) == image


def test_deep_level_sizes_sum_to_fiber(s3):
    # the lattice must reproduce exact orbit sizes far beyond raw reach
    import math

    L = get_lattice(s3)
    nu = (0, 8, 0)
    nodes = L.classes_at(nu)
    total = sum(L.size(n) for n in nodes)
    assert total == 3 ** 8
    nu2 = (0, 6, 3)
    total2 = sum(L.size(n) for n in L.classes_at(nu2))
    assert total2 == math.comb(9, 6) * 3 ** 6 * 2 ** 3


# -- checked entries and warm lookups --------------------------------------------


BAD_ENTRIES = [(1, -1), (1, 7), (1, True), (1, 1.0)]


@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
@pytest.mark.parametrize("bad", BAD_ENTRIES)
def test_lattice_entries_reject_entries_outside_the_group(warm, bad):
    # on a warm lattice, class_of((1, 7)) once answered the class of (1, 5)
    # (node 23), lattice braid_equivalent((1, -1), (1, 5)) gave False,
    # braid_equivalent((True, 2), (1, 2)) gave True and stable_equivalent
    # ((1, -1), (1, 5)) a "distinct at level 1" False; each is an error now,
    # raised before any shortcut and before any node is built
    G = build_builtin("sym:3")
    L = get_lattice(G)
    if warm:
        L.classes_at((0, 3, 3))
    u = u_gamma(G, make_gamma(G, "all-nontrivial"))
    built = L.node_count()
    message = re.escape(f"entry {bad[1]!r} at position 1")
    calls = [
        lambda: L.class_of(bad),
        lambda: L.find(bad),
        lambda: braid_equivalent(G, bad, (1, 5)),
        lambda: braid_equivalent(G, (1, 5), bad),
        lambda: braid_equivalent(G, bad, bad),
        lambda: braid_equivalent(G, bad, (1,)),
        lambda: stable_equivalent(G, bad, (1, 5), u),
        lambda: stable_equivalent(G, (1, 5), bad, u),
        lambda: stable_equivalent(G, bad, bad, u),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()
    assert L.node_count() == built
    with pytest.raises(ValueError, match=re.escape("entry True at position 0")):
        braid_equivalent(G, (True, 2), (1, 2))


def test_class_of_checks_entries_past_the_first_unbuilt_class():
    # the lookup stops at the first unbuilt class; the entries after it are
    # checked before anything is built
    G = build_builtin("sym:3")
    L = get_lattice(G)
    L.classes_at((0, 1, 1))
    built = L.node_count()
    assert L.find((1, 3, 2)) == -1
    with pytest.raises(ValueError, match=re.escape("entry 9 at position 3")):
        L.class_of((1, 3, 2, 9))
    with pytest.raises(ValueError, match=re.escape("entry 9 at position 3")):
        braid_equivalent(G, (1, 3, 2, 4), (1, 3, 2, 9))
    assert L.node_count() == built


def test_find_builds_nothing_and_agrees_with_class_of(s3):
    L = OrbitLattice(s3)
    L.classes_at((0, 2, 2))
    built = L.node_count()
    rng = random.Random(8)
    for _ in range(200):
        v = tuple(rng.randrange(6) for _ in range(rng.randrange(6)))
        node = L.find(v)
        assert L.node_count() == built
        if node < 0:
            node = L.class_of(v)
            built = L.node_count()
        assert L.find(v) == L.class_of(v) == node
        assert L.node_count() == built
    assert L.find(()) == 0


def test_mismatched_stable_eq_pair_builds_no_node():
    G = build_builtin("sym:3")
    u = u_gamma(G, make_gamma(G, "all-nontrivial"))
    t12, t13, c3 = el(G, "(12)"), el(G, "(13)"), el(G, "(123)")
    assert stable_equivalent(G, (t12, t13), (t12, c3), u).reason == "nielsen-type mismatch"
    assert stable_equivalent(G, (t12, t13), (t13, t12), u).reason == "evaluation mismatch"
    assert get_lattice(G).node_count() == 1


def test_warm_verdicts_are_lookups(monkeypatch):
    # once a batch has run, running it again builds no node and computes no
    # invariant of a tuple: both tuples are found and their nodes decide
    import hurwitz.braid
    import hurwitz.stability

    G = build_builtin("alt:4")
    gamma = make_gamma(G, [el(G, "(123)")])
    u = u_gamma(G, gamma)
    rng = random.Random(9)
    cycles = list(gamma.elements())
    both = cycles + list(make_gamma(G, [el(G, "(132)")]).elements())
    pairs = []
    for _ in range(40):
        v = tuple(rng.choice(cycles) for _ in range(rng.randrange(3, 7)))
        k = rng.random()
        if k < 0.3:
            w = sigma(G, rng.randrange(1, len(v)), v)
        elif k < 0.7:
            w = tuple(rng.sample(v, len(v)))
        else:
            w = tuple(rng.choice(cycles if k < 0.85 else both) for _ in v)
        pairs.append((v, w))

    def batch():
        return ([braid_equivalent(G, v, w) for v, w in pairs],
                [stable_equivalent(G, v, w, u, 3, 1) for v, w in pairs])

    L = get_lattice(G)
    for pair in pairs:
        for t in pair:
            L.class_of(t)
    first = batch()
    built = L.node_count()

    def no_scan(*args):
        raise AssertionError("a warm verdict scanned a tuple")

    for module in (hurwitz.braid, hurwitz.stability):
        monkeypatch.setattr(module, "nielsen", no_scan)
        monkeypatch.setattr(module, "evaluate", no_scan)
    assert batch() == first
    assert L.node_count() == built
    verdicts = [r.equivalent for r in first[1]]
    reasons = {r.reason.split(" at ")[0] for r in first[1]}
    assert True in first[0] and False in first[0] and None not in verdicts
    assert {"nielsen-type mismatch", "evaluation mismatch", "distinct"} <= reasons


def lattice_fingerprint(L):
    h = hashlib.sha256()
    for field in (L._pre, L._let, L._canon, L._size, L._ev, L._sub, L._level_id, L._next):
        h.update(repr(field).encode())
    return h.hexdigest()


def test_cold_builds_are_pinned_by_fingerprint():
    # a fixed sequence of cold lookups, verdicts and levels; the digests pin
    # every node list, so a change in what the entry points build, or in
    # what order, shows here
    G = build_builtin("sym:3")
    t12, t13, t23, c3 = (el(G, x) for x in ("(12)", "(13)", "(23)", "(123)"))
    u = u_gamma(G, make_gamma(G, "all-nontrivial"))
    L = get_lattice(G)
    L.class_of((t12, c3, t13, t23))
    v = (t12, t13, c3, t23, c3)
    assert braid_equivalent(G, v, sigma(G, 2, sigma(G, 4, v)))
    assert not braid_equivalent(G, (t12, t13), (t12, c3))
    assert braid_equivalent(G, (t12, t12, c3), (t13, t13, c3))
    assert stable_equivalent(G, (t12, t12), (t13, t13), u, 3, 1).level == 1
    assert stable_equivalent(G, (t12, c3), (t13, t23), u, 3, 1).reason == "nielsen-type mismatch"
    assert stable_equivalent(G, (t12, t13), (t13, t12), u, 3, 1).reason == "evaluation mismatch"
    L.classes_at((0, 3, 3))
    assert L.node_count() == 213
    assert lattice_fingerprint(L) == "316b71e2cb3d3b4dca1993805f0184b810deeaf34ae5db5b65eae7f3f25faca0"
    A = build_builtin("alt:4")
    gamma = make_gamma(A, [el(A, "(123)")])
    find_stability_bound(A, gamma, None, 2, 1)
    res = stable_equivalent(A, (2, 2, 2, 4), (2, 2, 9, 9), u_gamma(A, gamma), 3, 1)
    assert (res.equivalent, res.level) == (False, 1)
    LA = get_lattice(A)
    assert LA.node_count() == 464
    # classes_at builds each conjugation orbit together, so the alt:4 order
    # (not its node set) differs from a lattice that closes every class
    assert lattice_fingerprint(LA) == "5ef71dd52c6ae272009da0cff86ed4a94a7a65e83feab051ee018d10e4e67aca"


# -- conjugation orbits ------------------------------------------------------------


def node_lists(L):
    return (L._bases, L._pre, L._let, L._size, L._canon, L._ev, L._sub, L._level_id, *L._conj)


def closure_only(G):
    """A lattice that builds every class by closure, as `class_of` does."""
    L = OrbitLattice(G)
    L._gens, L._conj = [], []
    return L


def node_record(L, x):
    return (L.canonical(x), L.size(x), L.ev(x), L.sub_bits(x), L.level(x))


@pytest.mark.parametrize("spec, nu", [
    ("sym:3", (0, 6, 6)),
    ("alt:4", (0, 12, 0, 0)),
    ("alt:4", (0, 6, 6, 0)),
    ("dihedral:4", (0, 1, 2, 2, 2)),
    ("quaternion:8", (0, 2, 2, 2, 2)),
])
def test_transported_classes_match_the_closure_path(spec, nu):
    # every node of a cold `classes_at` build, transported or closed, agrees
    # with `class_of` of its canonical representative on a fresh lattice,
    # whose builds are closures; so does every conjugate the lattice stored
    G = build_builtin(spec)
    L = OrbitLattice(G)
    top = L.classes_at(nu)
    assert L._gens and len(L._conj) == len(L._gens)
    fresh = OrbitLattice(G)
    for x in range(L.node_count()):
        assert node_record(fresh, fresh.class_of(L.canonical(x))) == node_record(L, x)
    n = G.order
    stored = 0
    for fs, cmap in zip(L._gens, L._conj):
        for x, t in enumerate(cmap):
            if t < 0:
                continue
            stored += 1
            image = tuple(fs[a] for a in L.canonical(x))
            assert fresh.canonical(fresh.class_of(image)) == L.canonical(t // n)
    # the whole orbit of every class of the level was built with it
    assert stored > len(top)
    assert all(cmap[x] >= 0 for cmap in L._conj for x in top)
    assert_memo_matches_states(L)


def test_transport_builds_the_closure_path_nodes():
    # same node set and answers as a lattice that closes every class; only
    # the build order differs
    for spec, nu in (("sym:3", (0, 8, 8)), ("alt:4", (0, 6, 6, 0)), ("dihedral:4", (0, 2, 3, 3, 3))):
        G = build_builtin(spec)
        L, ref = OrbitLattice(G), closure_only(G)
        assert ([node_record(L, x) for x in L.classes_at(nu)]
                == [node_record(ref, x) for x in ref.classes_at(nu)])
        assert L.node_count() == ref.node_count()
        assert ({node_record(L, x) for x in range(L.node_count())}
                == {node_record(ref, x) for x in range(ref.node_count())})


def test_class_of_builds_are_unchanged_by_transport():
    # builds reached from class_of, append_word and shift are closures, node
    # for node and in the same order as before classes were transported:
    # the digests were computed on the lattice that closed every class
    G = build_builtin("sym:4")
    rng = random.Random(6)
    L = OrbitLattice(G)
    for _ in range(40):
        L.class_of(tuple(rng.randrange(G.order) for _ in range(4)))
    assert L.node_count() == 602
    assert lattice_fingerprint(L) == "21e09e7e04e23e1b0f4230e55ae71f77008979d7d384efe327fde4d98fa5d1f4"
    A = build_builtin("alt:4")
    u = u_gamma(A, make_gamma(A, [el(A, "(123)")]))
    L = OrbitLattice(A)
    L.append_word(0, (2, 9, 2, 4, 9))
    L.shift(L.class_of((2, 2, 9)), u.vector)
    L.shift(L.class_of((9, 9, 2, 4)), u.vector * 2)
    assert L.node_count() == 305
    assert lattice_fingerprint(L) == "528a5c7a30698ab49521e6a995b932f9201936d3cdc4ce0058920ae5f0671edd"
    assert all(x < 0 for cmap in L._conj for x in cmap[1:])


def class_of_history(G, nu, seed, count=12):
    """Random tuples of the classes of ``nu``, at most as many of each."""
    members = G.classes.members
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        v = [rng.choice(members[c]) for c in range(len(nu)) for _ in range(rng.randrange(nu[c] + 1))]
        rng.shuffle(v)
        out.append(tuple(v))
    return out


def count_prefix_conjugate_builds(monkeypatch):
    """Count the conjugate lookups that built nodes, and those a cap error
    left."""
    counts = {"built": 0, "raised": 0}
    inner = OrbitLattice._conj_of

    def counted(self, fs, cmap, x):
        before = self.node_count()
        try:
            t = inner(self, fs, cmap, x)
        except CapExceeded:
            counts["raised"] += 1
            raise
        counts["built"] += self.node_count() > before
        return t

    monkeypatch.setattr(OrbitLattice, "_conj_of", counted)
    return counts


def test_classes_at_after_class_of_history_matches_a_fresh_lattice(monkeypatch):
    # classes built by class_of carry no conjugates; a later classes_at
    # finds them through one state each, building the missing ones, and
    # ends with the node set and answers of a lattice without that history
    counts = count_prefix_conjugate_builds(monkeypatch)
    for spec, nu in (("sym:3", (0, 5, 5)), ("alt:4", (0, 3, 3, 0)), ("quaternion:8", (0, 2, 2, 2, 1))):
        G = build_builtin(spec)
        L, ref = OrbitLattice(G), closure_only(G)
        for lat in (L, ref):
            for v in class_of_history(G, nu, 2):
                lat.class_of(v)
        built = L.node_count()
        assert all(cmap[x] < 0 for cmap in L._conj for x in range(1, built))
        assert ([node_record(L, x) for x in L.classes_at(nu)]
                == [node_record(ref, x) for x in ref.classes_at(nu)]
                == [node_record(f, x) for f in [OrbitLattice(G)] for x in f.classes_at(nu)])
        assert L.node_count() == ref.node_count()
        assert ({node_record(L, x) for x in range(L.node_count())}
                == {node_record(ref, x) for x in range(ref.node_count())})
        # conjugates of old classes were found
        assert any(cmap[x] >= 0 for cmap in L._conj for x in range(1, built))
        assert {len(x) for x in node_lists(L)} == {L.node_count()}
        assert_memo_matches_states(L)
    assert counts["built"] > 0


def test_classes_at_closes_one_class_per_conjugation_orbit(monkeypatch):
    # after a class_of history has left orbits partly built, each closure a
    # classes_at makes is transported across its whole orbit, built members
    # included, so no two closed classes are conjugate
    closed = []
    inner = OrbitLattice._add_orbit

    def recording(self, *args):
        top = inner(self, *args)
        closed.append(top // self._n)
        return top

    monkeypatch.setattr(OrbitLattice, "_add_orbit", recording)
    for spec, nu in (("sym:3", (0, 5, 5)), ("alt:4", (0, 3, 3, 0)), ("quaternion:8", (0, 2, 2, 2, 1))):
        G = build_builtin(spec)
        L, ref = OrbitLattice(G), closure_only(G)
        for v in class_of_history(G, nu, 2):
            L.class_of(v)
        closed.clear()
        L.classes_at(nu)
        conj = G.conj_table
        orbits = [frozenset(ref.class_of(tuple(conj[g][s] for g in L.canonical(x))) for s in range(G.order))
                  for x in closed]
        assert len(closed) > 1 and len(set(orbits)) == len(orbits)


@pytest.mark.parametrize("history", [False, True])
def test_cap_inside_an_orbit_stops_at_the_cap(history, monkeypatch):
    # every cap short of the level fires inside an orbit transport (after a
    # class_of history, also inside a build of a missing prefix conjugate),
    # exactly at the cap: the classes added before it stay, each complete;
    # the lattice stays consistent and finishing the level gives what a
    # fresh lattice gives
    counts = count_prefix_conjugate_builds(monkeypatch)
    G = build_builtin("alt:4")
    nu = (0, 3, 3, 0)
    fresh = OrbitLattice(G)
    want = [node_record(fresh, x) for x in fresh.classes_at(nu)]

    def start():
        L = OrbitLattice(G)
        for v in class_of_history(G, nu, 2) if history else ():
            L.class_of(v)
        return L, L.node_count()

    L, before = start()
    L.classes_at(nu)
    needed = L.node_count() - before
    for limit in range(1, needed):
        L, before = start()
        L.limit_new_nodes(limit)
        with pytest.raises(CapExceeded) as exc:
            L.classes_at(nu)
        assert exc.value.visited == L.node_count() - before == limit
        assert {len(x) for x in node_lists(L)} == {L.node_count()}
        assert_memo_matches_states(L)
        L.limit_new_nodes(10**6)
        assert [node_record(L, x) for x in L.classes_at(nu)] == want
        assert L.node_count() == fresh.node_count()
    assert (counts["raised"] > 0) == history
