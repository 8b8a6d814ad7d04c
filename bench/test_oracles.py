"""Tests of the benchmark's own oracles; they import nothing from the package.

    python3 -m pytest bench/test_oracles.py
"""

import itertools
import random

import pytest

from oracles import (
    IDENTITY,
    LiftingInvariant,
    TableGroup,
    compose,
    line_action,
    mat_mul,
    mat_order,
    perm_from_cycles,
    sl23,
)

# element names in the documented order: permutations sorted by one-line form
S3 = ["e", "(23)", "(12)", "(123)", "(132)", "(13)"]


def names(degree, even_only=False):
    out = []
    for p in sorted(itertools.permutations(range(degree))):
        inversions = sum(p[i] > p[j] for i in range(degree) for j in range(i + 1, degree))
        if even_only and inversions % 2:
            continue
        seen, parts = set(), []
        for start in range(degree):
            if start in seen or p[start] == start:
                continue
            cyc, x = [start], p[start]
            seen.add(start)
            while x != start:
                cyc.append(x)
                seen.add(x)
                x = p[x]
            parts.append("(" + "".join(str(i + 1) for i in cyc) + ")")
        out.append("".join(parts) or "e")
    return out


@pytest.fixture(scope="module")
def s3():
    return TableGroup.from_permutations(S3, 3)


@pytest.fixture(scope="module")
def a4():
    return TableGroup.from_permutations(names(4, even_only=True), 4)


def test_names_helper_matches_documented_s3_order():
    assert names(3) == S3


def test_product_is_apply_left_then_right(s3):
    # (12) then (23): 1 -> 2 -> 3, 3 -> 3 -> 2, 2 -> 1 -> 1, i.e. (132)
    assert s3.mul[S3.index("(12)")][S3.index("(23)")] == S3.index("(132)")
    assert compose(perm_from_cycles("(12)", 3), perm_from_cycles("(23)", 3)) == perm_from_cycles("(132)", 3)


def test_table_is_a_group(a4):
    n = a4.n
    for a, b, c in itertools.product(range(n), repeat=3):
        assert a4.mul[a4.mul[a][b]][c] == a4.mul[a][a4.mul[b][c]]
    assert all(a4.mul[a][a4.inv[a]] == 0 == a4.mul[a4.inv[a]][a] for a in range(n))


def test_classes_numbered_by_least_member(a4):
    assert [m[0] for m in a4.members] == sorted(m[0] for m in a4.members)
    assert [len(m) for m in a4.members] == [1, 4, 4, 3]
    assert a4.commutator_order() == 4


def test_move_convention(s3):
    a, b = S3.index("(12)"), S3.index("(123)")
    # sigma(1): (a, b) -> (b, b^-1 a b)
    assert s3.move((a, b), 1) == (b, s3.mul[s3.mul[s3.inv[b]][a]][b])
    for v in itertools.product(range(1, 6), repeat=3):
        for i in (1, 2):
            w = s3.move(v, i)
            assert s3.evaluate(w) == s3.evaluate(v)
            assert s3.move(w, -i) == v


def test_braid_relations(a4):
    rng = random.Random(0)
    for _ in range(50):
        v = tuple(rng.randrange(a4.n) for _ in range(4))
        assert a4.apply_word(v, [1, 2, 1]) == a4.apply_word(v, [2, 1, 2])
        assert a4.apply_word(v, [1, 3]) == a4.apply_word(v, [3, 1])


def test_orbit_of_transposition_pairs(s3):
    t12, t13 = S3.index("(12)"), S3.index("(13)")
    assert s3.orbit((t12, t12)) == {(t12, t12)}
    # the three pairs of distinct transpositions with product (132):
    # ((12),(23)) -> ((23),(13)) -> ((13),(12))
    orbit = s3.orbit((t12, S3.index("(23)")))
    assert len(orbit) == 3
    assert all(s3.evaluate(v) == S3.index("(132)") for v in orbit)
    assert (t13, t12) in orbit


def test_orbits_partition_fibers_into_closed_sets(s3):
    for nu in [(0, 3, 0), (0, 2, 1), (0, 1, 2)]:
        fiber = [v for v in itertools.product(range(1, 6), repeat=sum(nu)) if s3.nielsen(v) == nu]
        left = set(fiber)
        while left:
            orbit = s3.orbit(next(iter(left)))
            assert orbit <= left
            for v in orbit:
                for i in range(1, len(v)):
                    assert s3.move(v, i) in orbit and s3.move(v, -i) in orbit
            left -= orbit


@pytest.mark.parametrize("group", ["s3", "a4"])
@pytest.mark.parametrize("length", [0, 1, 2, 3, 4])
def test_tuple_counts_match_brute_force(group, length, request):
    G = request.getfixturevalue(group)
    brute = {}
    for v in itertools.product(range(G.n), repeat=length):
        brute.setdefault(G.nielsen(v), [0] * G.n)[G.evaluate(v)] += 1
    for nu, counts in brute.items():
        assert G.tuple_counts(nu) == counts, nu


def test_sl23_maps_onto_a4_with_kernel_pm1(a4):
    mats = sl23()
    assert len(mats) == 24
    lift = LiftingInvariant(names(4, even_only=True))
    for m, k in itertools.product(mats, repeat=2):
        assert lift.image[mat_mul(m, k)] == a4.mul[lift.image[m]][lift.image[k]]
    assert sorted(m for m in mats if lift.image[m] == 0) == sorted([IDENTITY, (2, 0, 0, 2)])
    assert sorted(set(lift.image.values())) == list(range(12))
    assert sorted(line_action(m) for m in mats if lift.image[m] == 0) == [(0, 1, 2, 3)] * 2


def test_each_three_cycle_has_one_order_three_lift(a4):
    lift = LiftingInvariant(names(4, even_only=True))
    three_cycles = a4.members[1] + a4.members[2]
    assert sorted(lift.lift) == sorted(three_cycles)
    for g, m in lift.lift.items():
        assert mat_order(m) == 3 and lift.image[m] == g


def test_lifting_invariant_constant_along_braid_moves(a4):
    lift = LiftingInvariant(names(4, even_only=True))
    letters = a4.members[1] + a4.members[2]
    rng = random.Random(1)
    values = set()
    for _ in range(200):
        v = tuple(rng.choice(letters) for _ in range(rng.randint(2, 12)))
        w = a4.apply_word(v, [rng.choice((1, -1)) * rng.randint(1, len(v) - 1) for _ in range(25)])
        assert lift.of(w) == lift.of(v)
        assert lift.image[lift.of(v)] == a4.evaluate(v)
        values.add((a4.evaluate(v), lift.of(v)))
    # both lifts of an evaluation occur, so the invariant is not constant
    assert len(values) > len({ev for ev, _ in values})
