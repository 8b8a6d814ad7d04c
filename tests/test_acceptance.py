"""Acceptance suite: every criterion prints one PASS line and enforces its
stated runtime limit.  All equality checks are exact integer algebra."""

import itertools
import json
import os
import random
import subprocess
import sys
import time

import pytest

from hurwitz import (
    CapExceeded,
    FiberSpec,
    braid_equivalent,
    build_builtin,
    enumerate_classes,
    enumerate_marked_classes,
    evaluate,
    find_stability_bound,
    generated_subgroup,
    h2_order,
    adj_word_equal,
    make_gamma,
    MarkedVector,
    monoid_act,
    nielsen,
    orbit_members,
    sigma,
    sigma_inv,
    stable_equivalent,
    subgroup_closure,
    torsor_compose,
    torsor_group,
    u_gamma,
)
from hurwitz.braid import Caps
from hurwitz.lattice import get_lattice
from conftest import cli_env, el


@pytest.fixture
def announce(capsys):
    def _announce(number, message):
        with capsys.disabled():
            print(f"ACCEPTANCE {number:2d} PASS: {message}")

    return _announce


def timed(limit_s):
    class Timer:
        def __enter__(self):
            self.t0 = time.time()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.time() - self.t0
            if exc == (None, None, None):
                assert self.elapsed < limit_s, f"runtime {self.elapsed:.1f}s exceeds {limit_s}s"
            return False

    return Timer()


# -- 1: braid relations, sampled in S4 -------------------------------------------


def test_criterion_01_braid_relations(s4, announce):
    rng = random.Random(20240)
    checks = 0
    with timed(5) as t:
        for _ in range(10_000):
            d = rng.randint(2, 5)
            v = tuple(rng.randrange(24) for _ in range(d))
            for i in range(1, d):
                assert sigma_inv(s4, i, sigma(s4, i, v)) == v
                assert sigma(s4, i, sigma_inv(s4, i, v)) == v
                checks += 2
            for i in range(1, d - 1):
                lhs = sigma(s4, i, sigma(s4, i + 1, sigma(s4, i, v)))
                rhs = sigma(s4, i + 1, sigma(s4, i, sigma(s4, i + 1, v)))
                assert lhs == rhs
                checks += 1
            for i in range(1, d):
                for j in range(i + 2, d):
                    assert sigma(s4, i, sigma(s4, j, v)) == sigma(s4, j, sigma(s4, i, v))
                    checks += 1
    announce(1, f"braid relations on 10^4 sampled S4 tuples, {checks} identities, {t.elapsed:.1f}s")


# -- 2: invariant constancy, exhaustive S3^d -------------------------------------


def test_criterion_02_invariant_constancy(s3, announce):
    with timed(10) as t:
        checked = 0
        for d in range(0, 5):
            for v in itertools.product(range(6), repeat=d):
                base = (evaluate(s3, v), nielsen(s3, v), generated_subgroup(s3, v).bits)
                for i in range(1, d):
                    for move in (sigma, sigma_inv):
                        u = move(s3, i, v)
                        got = (evaluate(s3, u), nielsen(s3, u), generated_subgroup(s3, u).bits)
                        assert got == base
                        checked += 1
    announce(2, f"ev/nielsen/subgroup constant across {checked} moves on all S3^d, d<=4, {t.elapsed:.1f}s")


# -- 3: centrality, exhaustive ----------------------------------------------------


def test_criterion_03_centrality(s3, announce):
    with timed(60) as t:
        vs = [v for d in range(0, 4)
              for v in itertools.product(range(6), repeat=d)
              if evaluate(s3, v) == 0]
        ws = [w for d in range(0, 4) for w in itertools.product(range(6), repeat=d)]
        pairs = 0
        for v in vs:
            for w in ws:
                assert braid_equivalent(s3, v + w, w + v)
                pairs += 1
    announce(3, f"centrality vw ~ wv on all {pairs} pairs with ev(v)=1, lengths <= 3, {t.elapsed:.1f}s")


# -- 4: conjugate power padding ----------------------------------------------------


def test_criterion_04_conjugate_power_padding(s3, s4, announce):
    with timed(120) as t:
        cases = 0
        # exhaustive in S3: all generating v of length 2..3, all conjugate pairs
        full3 = s3.full_mask().bits
        for d in (2, 3):
            for v in itertools.product(range(6), repeat=d):
                if subgroup_closure(s3, v).bits != full3:
                    continue
                for cid in (1, 2):
                    members = s3.classes.members[cid]
                    n = s3.element_orders[members[0]]
                    for g1 in members:
                        for g2 in members:
                            assert braid_equivalent(s3, v + (g1,) * n, v + (g2,) * n)
                            cases += 1
        # sampled in S4
        rng = random.Random(77)
        full4 = s4.full_mask().bits
        sampled = 0
        while sampled < 200:
            d = rng.randint(2, 3)
            v = tuple(rng.randrange(24) for _ in range(d))
            if subgroup_closure(s4, v).bits != full4:
                continue
            cid = rng.randrange(1, s4.classes.count)
            members = s4.classes.members[cid]
            g1, g2 = rng.choice(members), rng.choice(members)
            n = s4.element_orders[g1]
            assert braid_equivalent(s4, v + (g1,) * n, v + (g2,) * n)
            sampled += 1
        cases += sampled
    announce(4, f"v+g1^n ~ v+g2^n for {cases} cases (S3 exhaustive, S4 sampled), {t.elapsed:.1f}s")


# -- 5: factorisation witnesses -----------------------------------------------------


def test_criterion_05_factorisation_witness(s3, s3_transpositions, s3_all, announce):
    from hurwitz import factor_witness

    L = get_lattice(s3)
    full = s3.full_mask().bits
    instances = 0
    for gam, max_u in ((s3_transpositions, 2), (s3_all, 1)):
        u_g = u_gamma(s3, gam)
        letters = gam.elements()
        us = [()]
        for _ in range(max_u):
            us = [u + (g,) for u in us for g in letters]
        for u in us:
            floor = tuple(a + b for a, b in zip(u_g.nu, nielsen(s3, u)))
            levels = [floor, tuple(x + y for x, y in zip(floor, nielsen(s3, (letters[0],))))]
            for nu_w in levels:
                for node in L.classes_at(nu_w):
                    if L.sub_bits(node) != full:
                        continue
                    w = L.canonical(node)
                    v = factor_witness(s3, w, u)
                    assert v is not None, (w, u)
                    assert subgroup_closure(s3, v).bits == (1 << s3.order) - 1
                    assert braid_equivalent(s3, w, v + u)
                    instances += 1
    announce(5, f"every generating class above the floor factors through u ({instances} instances)")


# -- 6: stabilisation bounds ---------------------------------------------------------


def test_criterion_06_stability_bounds(s3, s3_transpositions, s3_all, announce):
    with timed(300) as t:
        floors = {}
        for gam, label, window in ((s3_transpositions, "transpositions", 4),
                                   (s3_all, "all-nontrivial", 3)):
            rep = find_stability_bound(s3, gam, window=window)
            assert rep.bound is not None
            assert rep.confident  # at least two confirming levels close the window
            assert rep.window - rep.bound >= 2
            above = [lv for lv in rep.levels if lv.n >= rep.bound]
            assert len({lv.count for lv in above}) == 1
            assert len({lv.generating_count for lv in above}) == 1
            assert all(lv.bijective for lv in above if lv.bijective is not None)
            floors[label] = max(rep.levels[rep.bound].nu)
        assert all(n >= 1 for n in floors.values())
    announce(6, f"counts agree above the bound; concrete floors N = {floors}, {t.elapsed:.1f}s")


# -- 7: torsor counting ----------------------------------------------------------------


def test_criterion_07_torsor_counting(s3, s3_transpositions, s3_all, announce):
    results = {}

    def check(G, gam, label, window, expect_order=None, caps=None):
        rep = h2_order(G, gam, window=window, caps=caps if caps is not None else Caps())
        # divisibility is enforced inside h2_order; cross-check equality too
        assert all(c == rep.order * rep.commutator_order for _, c in rep.cross_checks)
        if expect_order is not None:
            assert rep.order == expect_order
        results[label] = rep.order
        return rep

    check(s3, s3_transpositions, "sym:3/transpositions", 4, expect_order=1)
    check(s3, s3_all, "sym:3/all", 3, expect_order=1)
    for spec in ("cyclic:4", "cyclic:2xcyclic:2"):
        G = build_builtin(spec)
        check(G, make_gamma(G, "all-nontrivial"), f"{spec}/all", 3, expect_order=1)
    # per-class steps build these nodes; the u_gamma ray built 61,999 and
    # 224,539, and the counts are deterministic where seconds are not
    nodes = {}
    for spec, fallback in (("dihedral:4", ("r", "s")), ("quaternion:8", ("i", "j"))):
        G = build_builtin(spec)
        try:
            check(G, make_gamma(G, "all-nontrivial"), f"{spec}/all", 2,
                  caps=Caps(lattice_nodes=1_500_000))
        except CapExceeded:
            gam = make_gamma(G, [G.index_of(n) for n in fallback])
            check(G, gam, f"{spec}/two-classes", 3)
        nodes[spec] = get_lattice(G).node_count()
    assert nodes == {"dihedral:4": 575, "quaternion:8": 824}
    assert nodes["dihedral:4"] <= 61_999 // 5 and nodes["quaternion:8"] <= 224_539 // 5

    # classical transitivity on transposition tuples, reproduced by brute
    # force: direct enumeration at the stable level gives one generating
    # class per evaluation
    stable = FiberSpec(nu=(0, 6, 0), gamma=s3_transpositions, generated=s3.full_mask())
    direct = enumerate_classes(s3, stable, method="direct")
    assert len(direct) == 3
    assert len({c.ev for c in direct}) == 3
    announce(7, f"stable counts split as |H2|x|[G,G]| with orders {results}")


# -- 8: torsor group law -----------------------------------------------------------------


def test_criterion_08_torsor_group_law(s3, s3_transpositions, s3_all, announce):
    for gam in (s3_transpositions, s3_all):
        ctx = torsor_group(s3, gam, window=3)
        rep = h2_order(s3, gam, window=3)
        els = ctx.elements
        assert len(els) == rep.order
        table = {}
        for x in els:
            for y in els:
                z = torsor_compose(ctx, x, y)
                assert z.node in {e.node for e in els}  # closure
                table[(x.node, y.node)] = z.node
        for x in els:
            assert table[(x.node, ctx.base.node)] == x.node  # identity
            for y in els:
                assert table[(x.node, y.node)] == table[(y.node, x.node)]  # commutativity
                for z in els:
                    assert (table[(table[(x.node, y.node)], z.node)]
                            == table[(x.node, table[(y.node, z.node)])])  # associativity
        # simple transitivity on the identity-evaluation slice
        for x in els:
            for y in els:
                movers = [g for g in els if table[(g.node, x.node)] == y.node]
                assert len(movers) == 1
    announce(8, "torsor composition is an abelian group acting simply transitively")


# -- 9: stable range = braid range ----------------------------------------------------------


def test_criterion_09_stable_range_coincidence(s3, s3_transpositions, s3_all, announce):
    pairs = 0
    for gam, window in ((s3_transpositions, 4), (s3_all, 3)):
        rep = find_stability_bound(s3, gam, window=window)
        u = u_gamma(s3, gam)
        level = tuple((rep.bound + 1) * x for x in u.nu)
        L = get_lattice(s3)
        full = s3.full_mask().bits
        reps = [L.canonical(n) for n in L.classes_at(level) if L.sub_bits(n) == full]
        for v in reps:
            for w in reps:
                res = stable_equivalent(s3, v, w, u, window=4)
                assert res.equivalent is not None
                assert res.equivalent == braid_equivalent(s3, v, w)
                pairs += 1
    announce(9, f"stable equivalence == braid equivalence on {pairs} generating pairs at stable levels")


# -- 10: marked covers -------------------------------------------------------------------------


def test_criterion_10_marked_covers(s3, s3_transpositions, s3_all, announce):
    fibers = [
        FiberSpec(nu=(0, 2, 0), gamma=s3_transpositions, ev=el(s3, "(123)")),
        FiberSpec(nu=(0, 2, 0), gamma=s3_transpositions),
        FiberSpec(nu=(0, 2, 1), gamma=s3_all),
        FiberSpec(nu=(0, 0, 0), gamma=s3_all),
    ]
    for spec in fibers:
        tails = enumerate_classes(s3, spec)
        for k in (1, 2):
            classes = enumerate_marked_classes(s3, k, spec)
            assert len(classes) == 6 ** k * len(tails)

    small = [t for d in range(0, 3) for t in itertools.product(range(6), repeat=d)]
    checked = 0
    for tail in small:
        base_by_v = {}
        for v in small:
            base_by_v[v] = monoid_act(s3, MarkedVector((2,), tail), v).canonical
        for t2 in orbit_members(s3, tail):
            for v in small:
                for v2 in orbit_members(s3, v):
                    got = monoid_act(s3, MarkedVector((2,), t2), tuple(v2)).canonical
                    assert got == base_by_v[v]
                    checked += 1
    announce(10, f"marked counts factor as |G|^k x tails; action independent of representatives ({checked} checks)")


# -- 11: adjoint word problem ---------------------------------------------------------------------


def test_criterion_11_adjoint_word_problem(s3, s3_transpositions, s3_all, announce):
    verdicts = 0
    for gam in (s3_transpositions, s3_all):
        for a in gam.elements():
            for b in gam.elements():
                res = adj_word_equal(s3, gam, (a, b), (b, s3.conj(a, b)))
                assert res.equivalent is True
                verdicts += 1
    # distinct Nielsen images are always unequal
    t12, c3 = el(s3, "(12)"), el(s3, "(123)")
    for v, w in [((t12, t12), (c3, c3)), ((t12,), (t12, t12)), ((c3,), (c3, c3, c3))]:
        res = adj_word_equal(s3, s3_all, v, w)
        assert res.equivalent is False
        verdicts += 1
    # no indeterminate verdicts for S3 words within default settings
    rng = random.Random(5)
    letters = s3_all.elements()
    for _ in range(60):
        d = rng.randint(1, 3)
        v = tuple(rng.choice(letters) for _ in range(d))
        w = tuple(rng.choice(letters) for _ in range(d))
        res = adj_word_equal(s3, s3_all, v, w)
        assert res.equivalent is not None
        verdicts += 1
    announce(11, f"quandle relations hold, Nielsen separations hold, no indeterminates ({verdicts} verdicts)")


# -- 12: byte determinism --------------------------------------------------------------------------


def test_criterion_12_deterministic_jsonl(announce):
    cmd = [sys.executable, "-m", "hurwitz.cli", "classes", "--group", "sym:3",
           "--gamma", "all-nontrivial", "--nielsen", "c1:2,c2:2", "--nielsen", "c1:4",
           "--format", "jsonl"]
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    outputs = []
    for seed in ("1", "999"):
        env = cli_env(PYTHONHASHSEED=seed)
        proc = subprocess.run(cmd, capture_output=True, env=env, cwd=repo_root)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    for line in outputs[0].decode().strip().splitlines():
        json.loads(line)
    announce(12, "repeated class enumerations emit byte-identical jsonl")
