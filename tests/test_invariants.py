"""Invariants that are not Z/2, and answers under outer automorphisms.

The first half pins `h2_structure` on G = A ⋊ Z/2 (A abelian of odd order,
Z/2 acting by inversion) against the theory value of Ellenberg, Venkatesh
and Westerland's Cohen–Lenstra configuration (arXiv:0912.0325): with gamma
the involutions, H_2(G, c) = Λ²A.  With gamma the involutions and the class
of e1 = (1, 0, ..., 0), the value is Λ²A / (e1 ∧ A).  Both have several
classes in gamma, so the lattice meets levels with more than one block.

The second half applies an automorphism that moves gamma to another class
set: the answers must correspond, with the level permuted.
"""

import math

import pytest

from hurwitz import build_builtin, h2_structure, make_gamma
from hurwitz.lattice import OrbitLattice
from conftest import el, inversion_extension


def primes_of(m):
    p, out = 2, []
    while m > 1:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    return out


def invariant_factors(orders):
    """Invariant factors d_1 | d_2 | ... of the direct sum of Z/m over ``orders``."""
    powers = {}
    for m in orders:
        for p in primes_of(m):
            q = 1
            while m % (q * p) == 0:
                q *= p
            powers.setdefault(p, []).append(q)
    factors = [1] * max((len(v) for v in powers.values()), default=0)
    for qs in powers.values():
        for i, q in enumerate(sorted(qs, reverse=True)):
            factors[i] *= q
    return tuple(sorted(factors))


def wedge_square(moduli, killed=0):
    """Λ²A for A = ⊕ Z/m_i, as ⊕_{i<j} Z/gcd(m_i, m_j), with the summands
    of the first ``killed`` basis vectors wedged with A left out."""
    k = len(moduli)
    return invariant_factors([math.gcd(moduli[i], moduli[j])
                              for i in range(killed, k) for j in range(i + 1, k)])


def test_wedge_square_oracle():
    assert wedge_square((3,)) == ()
    assert wedge_square((3, 3)) == (3,)
    assert wedge_square((3, 9)) == (3,)
    assert wedge_square((3, 3, 3)) == (3, 3, 3)
    assert wedge_square((9, 9)) == (9,)
    assert wedge_square((3, 3, 3), killed=1) == (3,)
    assert wedge_square((3, 3), killed=1) == ()
    assert invariant_factors([2, 3, 4]) == (2, 12)


def involution(index, moduli):
    """The element (0, 1), whose class is every involution."""
    return index[(tuple(0 for _ in moduli), 1)]


@pytest.mark.parametrize("moduli, window, bound", [
    ((3, 3), 4, 2),
    ((5, 5), 4, 2),
    ((3, 9), 4, 2),
    ((3, 3, 3), 6, 3),
])
def test_h2_structure_is_the_wedge_square_on_the_involutions(moduli, window, bound):
    G, index = inversion_extension(moduli)
    gamma = make_gamma(G, [involution(index, moduli)])
    rep = h2_structure(G, gamma, window=window)
    want = wedge_square(moduli)
    assert rep.structure == want
    assert rep.order == math.prod(want)
    assert (rep.bound, rep.confident) == (bound, True)


@pytest.mark.parametrize("moduli, structure", [((3, 3), ()), ((3, 3, 3), (3,))])
def test_h2_structure_with_a_second_class_quotients_by_e1(moduli, structure):
    # gamma has two classes, so its levels hold two blocks
    G, index = inversion_extension(moduli)
    zero = tuple(0 for _ in moduli)
    e1 = (1,) + zero[1:]
    gamma = make_gamma(G, [involution(index, moduli), index[(e1, 0)]])
    rep = h2_structure(G, gamma, window=4)
    assert rep.structure == wedge_square(moduli, killed=1) == structure
    assert rep.order == math.prod(structure)
    assert rep.confident
    if moduli == (3, 3, 3):
        assert rep.bound == 2


# -- outer automorphisms ----------------------------------------------------------


def q8_cycle(G):
    """The automorphism ±i -> ±j -> ±k -> ±i of Q8, as an element map."""
    swap = {"i": "j", "j": "k", "k": "i"}
    return [el(G, "".join(swap.get(ch, ch) for ch in name)) for name in G.names]


def d4_shift(G):
    """The automorphism r -> r, s -> sr of D4: s r^k -> s r^(k+1), which
    swaps the reflection classes {s, sr2} and {sr, sr3}."""
    out = []
    for name in G.names:
        if name.startswith("s"):
            k = (int(name[2:]) if len(name) > 2 else len(name) - 1) + 1
            name = "s" + "r" * (k % 4 > 0) + (str(k % 4) if k % 4 > 1 else "")
        out.append(el(G, name))
    return out


def check_automorphism(G, phi):
    assert sorted(phi) == list(range(G.order))
    assert all(phi[G.mul[a][b]] == G.mul[phi[a]][phi[b]] for a in range(G.order) for b in range(G.order))


def permute_level(G, phi, nu):
    ct = G.classes
    out = [0] * len(nu)
    for c, k in enumerate(nu):
        out[ct.class_of[phi[ct.members[c][0]]]] += k
    return tuple(out)


def test_automorphism_maps():
    q8, d4 = build_builtin("quaternion:8"), build_builtin("dihedral:4")
    for G, phi in ((q8, q8_cycle(q8)), (d4, d4_shift(d4))):
        check_automorphism(G, phi)
    d4_phi = d4_shift(d4)
    assert [d4.names[d4_phi[el(d4, x)]] for x in ("r", "s", "sr", "sr2", "sr3")] == ["r", "sr", "sr2", "sr3", "s"]
    assert permute_level(d4, d4_phi, (0, 1, 2, 3, 1)) == (0, 1, 2, 1, 3)
    assert permute_level(q8, q8_cycle(q8), (0, 1, 3, 2, 1)) == (0, 1, 1, 3, 2)


@pytest.mark.parametrize("spec, phi_of, nu, classes, size", [
    ("quaternion:8", q8_cycle, (0, 1, 3, 2, 1), 2, 13_440),
    ("dihedral:4", d4_shift, (0, 1, 2, 3, 1), 2, 6_720),
])
def test_classes_at_correspond_under_an_automorphism(spec, phi_of, nu, classes, size):
    # the images of a level's canonical representatives are representatives
    # of the classes at the permuted level, one each, with equal sizes
    G = build_builtin(spec)
    phi = phi_of(G)
    L = OrbitLattice(G)
    level = nu
    for _ in range(3 if spec == "quaternion:8" else 2):
        image = permute_level(G, phi, level)
        here, there = L.classes_at(level), L.classes_at(image)
        assert len(here) == len(there) == classes
        assert sorted(L.size(x) for x in here) == sorted(L.size(x) for x in there) == [size] * classes
        mapped = [L.class_of(tuple(phi[a] for a in L.canonical(x))) for x in here]
        assert sorted(mapped) == sorted(there)
        assert [L.size(y) for y in mapped] == [L.size(x) for x in here]
        level = image
    assert level == nu


@pytest.mark.parametrize("spec, phi_of, reps, stable_level", [
    ("quaternion:8", q8_cycle, ("i", "j"), (0, 0, 4, 4, 0)),
    ("dihedral:4", d4_shift, ("r", "s"), (0, 4, 0, 2, 0)),
])
def test_h2_corresponds_under_an_automorphism(spec, phi_of, reps, stable_level):
    G = build_builtin(spec)
    phi = phi_of(G)
    names = [el(G, x) for x in reps]
    level = stable_level
    runs = []
    for _ in range(3 if spec == "quaternion:8" else 2):
        rep = h2_structure(G, make_gamma(G, names), window=3)
        assert rep.stable_level == level
        runs.append(rep)
        names = [phi[x] for x in names]
        level = permute_level(G, phi, level)
    assert level == stable_level
    first = runs[0]
    assert all((r.order, r.structure, r.bound, r.confident)
               == (first.order, first.structure, first.bound, first.confident) for r in runs)
    # each run's cross-checks and slices, carried on by the automorphism,
    # are the next run's
    for a, b in zip(runs, runs[1:]):
        assert sorted((permute_level(G, phi, nu), k) for nu, k in a.cross_checks) == sorted(b.cross_checks)
        assert sorted((phi[ev], k) for ev, k in a.slice_counts) == sorted(b.slice_counts)
    if spec == "quaternion:8":
        assert (first.order, first.structure, first.bound) == (1, (), 0)
