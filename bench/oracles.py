"""Answers computed apart from the package, used to check its outputs.

Nothing here imports ``hurwitz``.  Groups are plain multiplication tables
(``mul[a][b]`` is "a, then b", identity at index 0), built either from
permutations in cycle notation or handed over as a table; every derived
structure (inverses, conjugation, classes, subgroups, braid moves, orbits,
tuple counts) is recomputed here from the documented conventions:

- conjugation is ``a^b = b^-1 a b``;
- ``sigma(i)`` sends positions ``(i, i+1)`` from ``(a, b)`` to ``(b, a^b)``,
  ``sigma(-i)`` undoes it, and both keep the left-to-right product;
- conjugacy class ids are assigned by least member index, the identity's
  class being 0.

The lifting invariant of tuples of 3-cycles in A4 lives in SL(2,3), the
double cover 2.A4, built as 2x2 matrices over F_3 acting on the four points
of the projective line P^1(F_3).
"""

from __future__ import annotations

from itertools import product as _cartesian


# -- permutations -------------------------------------------------------------


def perm_from_cycles(text: str, degree: int) -> tuple[int, ...]:
    """One-line form of a permutation written as 1-based cycles, "e" = identity."""
    image = list(range(degree))
    if text == "e":
        return tuple(image)
    for cycle in text.strip("()").split(")("):
        points = [int(ch) - 1 for ch in cycle]
        for i, p in enumerate(points):
            image[p] = points[(i + 1) % len(points)]
    return tuple(image)


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """The permutation "apply p, then q"."""
    return tuple(q[x] for x in p)


# -- groups as tables ---------------------------------------------------------


class TableGroup:
    """Arithmetic on a multiplication table, recomputed from the table alone."""

    def __init__(self, mul: list[list[int]]):
        n = len(mul)
        self.n = n
        self.mul = mul
        self.inv = [row.index(0) for row in mul]
        self.conj = [[mul[mul[self.inv[b]][a]][b] for b in range(n)] for a in range(n)]
        class_of = [-1] * n
        members: list[list[int]] = []
        for a in range(n):
            if class_of[a] < 0:
                orbit = sorted({self.conj[a][b] for b in range(n)})
                for x in orbit:
                    class_of[x] = len(members)
                members.append(orbit)
        self.class_of = class_of
        self.members = members

    @classmethod
    def from_permutations(cls, names: list[str], degree: int) -> "TableGroup":
        """Table of the permutations named in cycle notation, in the given order."""
        perms = [perm_from_cycles(name, degree) for name in names]
        index = {p: i for i, p in enumerate(perms)}
        return cls([[index[compose(p, q)] for q in perms] for p in perms])

    def evaluate(self, v) -> int:
        acc = 0
        for x in v:
            acc = self.mul[acc][x]
        return acc

    def nielsen(self, v) -> tuple[int, ...]:
        counts = [0] * len(self.members)
        for x in v:
            counts[self.class_of[x]] += 1
        return tuple(counts)

    def subgroup(self, seed) -> frozenset[int]:
        """Smallest subgroup containing ``seed``."""
        elems = {0}
        frontier = [0]
        for s in seed:
            if s not in elems:
                elems.add(s)
                frontier.append(s)
        while frontier:
            x = frontier.pop()
            for y in list(elems):
                for z in (self.mul[x][y], self.mul[y][x]):
                    if z not in elems:
                        elems.add(z)
                        frontier.append(z)
        return frozenset(elems)

    def commutator_order(self) -> int:
        mul, inv, n = self.mul, self.inv, self.n
        comms = {mul[mul[mul[inv[a]][inv[b]]][a]][b] for a in range(n) for b in range(n)}
        return len(self.subgroup(comms))

    # -- braid moves --------------------------------------------------------

    def move(self, v: tuple[int, ...], i: int) -> tuple[int, ...]:
        """sigma(i) for i > 0, its inverse for i < 0; positions are 1-based."""
        k = abs(i) - 1
        a, b = v[k], v[k + 1]
        if i > 0:
            pair = (b, self.conj[a][b])
        else:
            pair = (self.conj[b][self.inv[a]], a)
        return v[:k] + pair + v[k + 2:]

    def apply_word(self, v: tuple[int, ...], word) -> tuple[int, ...]:
        for i in word:
            v = self.move(v, i)
        return v

    def orbit(self, v: tuple[int, ...]) -> set[tuple[int, ...]]:
        """Braid orbit of ``v`` by breadth-first search over both moves."""
        d = len(v)
        seen = {v}
        frontier = [v]
        while frontier:
            nxt = []
            for t in frontier:
                for i in range(1, d):
                    for u in (self.move(t, i), self.move(t, -i)):
                        if u not in seen:
                            seen.add(u)
                            nxt.append(u)
            frontier = nxt
        return seen

    # -- counting -------------------------------------------------------------

    def tuple_counts(self, nu: tuple[int, ...]) -> list[int]:
        """Number of tuples of Nielsen type ``nu`` with each product.

        Dynamic programming over the last letter: a tuple of type nu with
        product g ends in some x of a class c with nu[c] > 0, and its prefix
        has type nu - e_c and product g x^-1.
        """
        memo: dict[tuple[int, ...], list[int]] = {}
        zero = tuple(0 for _ in nu)
        memo[zero] = [1] + [0] * (self.n - 1)
        # levels in order of total length, so every prefix type is ready
        levels = sorted(_cartesian(*(range(c + 1) for c in nu)), key=sum)
        for level in levels:
            if level == zero:
                continue
            out = [0] * self.n
            for c, count in enumerate(level):
                if not count:
                    continue
                below = memo[level[:c] + (count - 1,) + level[c + 1:]]
                for x in self.members[c]:
                    for g, ways in enumerate(below):
                        if ways:
                            out[self.mul[g][x]] += ways
            memo[level] = out
        return memo[tuple(nu)]


# -- SL(2,3) and the lifting invariant on A4 ----------------------------------

_P = 3
# P^1(F_3), each line by its normalised row vector; the list order labels the
# points 0..3, matching the points that alt:4 permutes.
_LINE = [(1, 0), (0, 1), (1, 1), (1, 2)]


def _normalise(x: int, y: int) -> tuple[int, int]:
    if x % _P:
        s = pow(x, -1, _P)
    else:
        s = pow(y, -1, _P)
    return (x * s) % _P, (y * s) % _P


def sl23() -> list[tuple[int, int, int, int]]:
    """The 24 matrices (a, b, c, d) = [[a, b], [c, d]] over F_3 with det 1."""
    return [m for m in _cartesian(range(_P), repeat=4)
            if (m[0] * m[3] - m[1] * m[2]) % _P == 1]


def mat_mul(m, k) -> tuple[int, int, int, int]:
    a, b, c, d = m
    e, f, g, h = k
    return ((a * e + b * g) % _P, (a * f + b * h) % _P,
            (c * e + d * g) % _P, (c * f + d * h) % _P)


IDENTITY = (1, 0, 0, 1)


def mat_order(m) -> int:
    k, acc = 1, m
    while acc != IDENTITY:
        acc = mat_mul(acc, m)
        k += 1
    return k


def line_action(m) -> tuple[int, ...]:
    """Permutation of P^1(F_3) by row vectors, p -> p m.

    Row vectors make it a right action, so the permutation of a product
    m k is "apply the one of m, then the one of k".
    """
    a, b, c, d = m
    index = {p: i for i, p in enumerate(_LINE)}
    return tuple(index[_normalise(x * a + y * c, x * b + y * d)] for x, y in _LINE)


class LiftingInvariant:
    """Lift each 3-cycle of A4 to its unique order-3 preimage in SL(2,3).

    ``of(v)`` is the product of the lifts.  A braid move replaces (a, b) by
    (b, b^-1 a b), whose lifts B and B^-1 A B multiply to the same A B, so
    the product is a braid invariant; for tuples of 3-cycles with one
    evaluation it takes one of two values, differing by the central -1.
    """

    def __init__(self, alt4_names: list[str]):
        index = {perm_from_cycles(name, 4): i for i, name in enumerate(alt4_names)}
        self.lift: dict[int, tuple[int, int, int, int]] = {}
        self.image: dict[tuple[int, int, int, int], int] = {}
        for m in sl23():
            g = index[line_action(m)]
            self.image[m] = g
            if mat_order(m) == 3:
                if g in self.lift:
                    raise AssertionError(f"element {g} has two order-3 lifts")
                self.lift[g] = m

    def of(self, v) -> tuple[int, int, int, int]:
        acc = IDENTITY
        for x in v:
            acc = mat_mul(acc, self.lift[x])
        return acc
