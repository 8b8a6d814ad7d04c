"""Finite groups as multiplication tables.

A group of order n is a table ``mul[a][b]`` of element indices with the
identity pinned at index 0.  Products are read left to right, so for the
symmetric-group builders ``mul[p][q]`` is "apply p, then q".  Conjugation is
``a^b = b^-1 a b`` throughout the package.

Every table is validated when the group is built: entries in range, the
identity at index 0, two-sided inverses, and associativity.  Associativity is
checked exhaustively at every order up to ``MAX_ORDER``, by Light's test on a
greedily built generating set (O(n^2 log n) table reads, not n^3).

Builtin families come with a documented deterministic element order:
``sym:n`` and ``alt:n`` list permutations by lexicographic one-line notation
(identity first), ``cyclic:n`` counts 0..n-1, ``dihedral:n`` lists the n
rotations then the n reflections, ``quaternion:8`` is (1, -1, i, -i, j, -j,
k, -k).  Direct products pack (a, b) as ``a * |G2| + b``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations as _all_permutations
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import GroupTableError, ParseError

# Hard cap on constructed group order; tables are dense n x n lists.
MAX_ORDER = 2048


@dataclass(frozen=True)
class ConjClassTable:
    """Conjugacy classes, ids assigned by least member index (identity = 0)."""

    class_of: tuple[int, ...]
    representatives: tuple[int, ...]
    sizes: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.representatives)


@dataclass(frozen=True)
class SubgroupMask(object):
    """Subgroup membership as a bit vector over element indices."""

    bits: int
    order: int  # order of the ambient group

    def __contains__(self, x: int) -> bool:
        return bool((self.bits >> x) & 1)

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def elements(self) -> list[int]:
        return [x for x in range(self.order) if (self.bits >> x) & 1]


@dataclass(frozen=True)
class GammaSet:
    """A conjugation-closed, identity-free subset: a union of classes."""

    bits: int
    class_ids: tuple[int, ...]
    order: int

    def __contains__(self, x: int) -> bool:
        return bool((self.bits >> x) & 1)

    def elements(self) -> list[int]:
        return [x for x in range(self.order) if (self.bits >> x) & 1]


class FiniteGroup:
    """Immutable multiplication-table group; derived tables are cached.

    Do not mutate ``mul``/``inv`` after construction: cached structures
    assume they never change.  A group is not safe to share across threads:
    the class lattice that `lattice.get_lattice` attaches to it grows on
    every query and takes no lock.
    """

    def __init__(self, mul: Sequence[Sequence[int]], names: Sequence[str] | None = None,
                 label: str = "table"):
        self.order = len(mul)
        self.mul = [list(row) for row in mul]
        self.names = list(names) if names is not None else None
        self.label = label
        _validate_table(self.mul)
        self.inv = _inverse_table(self.mul)

    # -- basic arithmetic ------------------------------------------------

    def conj(self, a: int, b: int) -> int:
        """b^-1 a b."""
        return self.mul[self.mul[self.inv[b]][a]][b]

    def index_of(self, name: str) -> int:
        if self.names is None:
            raise KeyError(name)
        return self.names.index(name)

    # -- cached structure ------------------------------------------------

    @cached_property
    def conj_table(self) -> list[list[int]]:
        """conj_table[a][b] = b^-1 a b, the hot lookup for braid moves."""
        n, mul, inv = self.order, self.mul, self.inv
        return [[mul[mul[inv[b]][a]][b] for b in range(n)] for a in range(n)]

    @cached_property
    def classes(self) -> ConjClassTable:
        return _conjugacy_classes(self)

    @cached_property
    def element_orders(self) -> list[int]:
        out = []
        for a in range(self.order):
            x, k = a, 1
            while x != 0:
                x = self.mul[x][a]
                k += 1
            out.append(k)
        return out

    def full_mask(self) -> SubgroupMask:
        return SubgroupMask((1 << self.order) - 1, self.order)

    def __repr__(self):
        return f"FiniteGroup({self.label!r}, order={self.order})"


# -- validation ----------------------------------------------------------


def _validate_table(mul: list[list[int]]) -> None:
    n = len(mul)
    if n < 1:
        raise GroupTableError("group order must be positive")
    ints_only = {int}.issuperset  # exact type: a bool is no element index
    for i, row in enumerate(mul):
        if len(row) != n:
            raise GroupTableError(f"row {i} has length {len(row)}, expected {n}")
        if ints_only(map(type, row)) and 0 <= min(row) and max(row) < n:
            continue  # the whole row at C speed; the loop below names a bad entry
        for j, x in enumerate(row):
            if type(x) is not int or not (0 <= x < n):
                raise GroupTableError(f"entry mul[{i}][{j}] = {x!r} out of range")
    for x in range(n):
        if mul[0][x] != x or mul[x][0] != x:
            raise GroupTableError(
                f"identity not at index 0: mul[0][{x}] = {mul[0][x]}, mul[{x}][0] = {mul[x][0]}"
            )
    for a in range(n):
        if 0 not in mul[a]:
            raise GroupTableError(f"element {a} has no right inverse")
    # Light's test: (x*a)*y = x*(a*y) for every x, y and every a in a
    # generating set.  Elements that pass are closed under products, so once
    # the span of the checked generators is all of G the table is associative.
    # Each span of passing generators is a group, so every new generator at
    # least doubles it: at most log2(n) generators, O(n^2 log n) in all.
    rows = [tuple(row) for row in mul]
    gens: list[int] = []
    a = 0
    while True:
        span = _span(rows, gens)
        while a < n and span[a]:
            a += 1
        if a == n:
            return
        times_a = itemgetter(*mul[a])  # row_x -> (x*(a*y) for every y); n >= 2 here
        for x, row_x in enumerate(rows):
            lhs_row, rhs_row = rows[row_x[a]], times_a(row_x)
            if lhs_row != rhs_row:
                c = next(i for i in range(n) if lhs_row[i] != rhs_row[i])
                raise GroupTableError(
                    f"associativity fails at ({x}, {a}, {c}): "
                    f"({x}*{a})*{c} = {lhs_row[c]} but {x}*({a}*{c}) = {rhs_row[c]}"
                )
        gens.append(a)


def _span(rows: Sequence[Sequence[int]], gens: list[int]) -> list[bool]:
    """Membership list of the span of ``gens``: right-multiplication BFS from
    the identity (in a finite group the monoid a set generates is a group)."""
    span = [False] * len(rows)
    span[0] = True
    frontier = [0]
    for y in frontier:
        row = rows[y]
        for g in gens:
            z = row[g]
            if not span[z]:
                span[z] = True
                frontier.append(z)
    return span


def _inverse_table(mul: list[list[int]]) -> list[int]:
    n = len(mul)
    inv = [0] * n
    for a in range(n):
        b = mul[a].index(0)
        if mul[b][a] != 0:
            raise GroupTableError(f"element {a}: right inverse {b} is not a left inverse")
        inv[a] = b
    return inv


def _conjugacy_classes(G: FiniteGroup) -> ConjClassTable:
    n = G.order
    class_of = [-1] * n
    reps, sizes, members = [], [], []
    for a in range(n):
        if class_of[a] >= 0:
            continue
        cid = len(reps)
        orbit = sorted({G.conj(a, b) for b in range(n)})
        for x in orbit:
            class_of[x] = cid
        reps.append(a)
        sizes.append(len(orbit))
        members.append(tuple(orbit))
    return ConjClassTable(tuple(class_of), tuple(reps), tuple(sizes), tuple(members))


# -- subgroup machinery ----------------------------------------------------


def subgroup_closure(G: FiniteGroup, seed: Iterable[int]) -> SubgroupMask:
    """Smallest subgroup containing ``seed``, by closure iteration."""
    return SubgroupMask(_closure(G.mul, seed), G.order)


def _closure(mul: list[list[int]], seed: Iterable[int]) -> int:
    # a seed element outside the span so far at least doubles it, so at most
    # log2 n of them are kept as generators: O(n log^2 n) in all
    gens: list[int] = []
    span = _span(mul, gens)
    for s in seed:
        if not span[s]:
            gens.append(s)
            span = _span(mul, gens)
    bits = 0
    for x, inside in enumerate(span):
        if inside:
            bits |= 1 << x
    return bits


def closure_bits(mul: list[list[int]], bits: int, extra: int) -> int:
    """Closure of an already-closed subgroup ``bits`` with one extra element.

    Takes the multiplication table, not the group, so that a holder of the
    table (the class lattice) need not keep the group alive.
    """
    if (bits >> extra) & 1:
        return bits
    seed = [x for x in range(len(mul)) if (bits >> x) & 1]
    seed.append(extra)
    return _closure(mul, seed)


def commutator_subgroup(G: FiniteGroup) -> SubgroupMask:
    """Closure of all commutators a^-1 b^-1 a b."""
    mul, inv, n = G.mul, G.inv, G.order
    comms = {mul[mul[mul[inv[a]][inv[b]]][a]][b] for a in range(n) for b in range(n)}
    return subgroup_closure(G, comms)


def make_gamma(G: FiniteGroup, class_reps: Iterable[int] | str) -> GammaSet:
    """Union of the full conjugacy classes of the given representatives.

    Pass the string ``"all-nontrivial"`` for the complement of the identity.
    The identity is never allowed in the result.
    """
    ct = G.classes
    if isinstance(class_reps, str):
        if class_reps != "all-nontrivial":
            raise ValueError(f"unknown gamma keyword {class_reps!r}")
        cids = sorted(set(range(1, ct.count)))
        if not cids:
            raise ValueError("trivial group has no nontrivial classes")
    else:
        reps = list(class_reps)
        if not reps:
            raise ValueError("empty class list for gamma")
        for r in reps:
            if type(r) is not int:
                raise ValueError(f"gamma representative {r!r} is not an element index")
            if r == 0:
                raise ValueError("identity cannot be a gamma representative")
            if not (0 <= r < G.order):
                raise ValueError(f"element {r} out of range")
        cids = sorted({ct.class_of[r] for r in reps})
    bits = 0
    for cid in cids:
        for x in ct.members[cid]:
            bits |= 1 << x
    return GammaSet(bits, tuple(cids), G.order)


# -- builtin families -------------------------------------------------------


def _perm_mul_table(perms: list[tuple[int, ...]]) -> list[list[int]]:
    if len(perms[0]) < 2:  # degree 1: itemgetter of one index returns a scalar
        return [[0]]
    index = {p: i for i, p in enumerate(perms)}
    table = []
    for p in perms:
        pick = itemgetter(*p)  # q -> tuple(q[x] for x in p): "apply p, then q"
        table.append([index[pick(q)] for q in perms])
    return table


def _cycle_name(p: tuple[int, ...]) -> str:
    seen = [False] * len(p)
    parts = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        x = p[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = p[x]
        parts.append("(" + "".join(str(i + 1) for i in cyc) + ")")
    return "".join(parts) if parts else "e"


def _parity(p: tuple[int, ...]) -> int:
    seen = [False] * len(p)
    par = 0
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        par ^= (length - 1) & 1
    return par


def _build_sym(n: int, even_only: bool = False) -> tuple[list[list[int]], list[str]]:
    perms = sorted(_all_permutations(range(n)))
    if even_only:
        perms = [p for p in perms if _parity(p) == 0]
    return _perm_mul_table(perms), [_cycle_name(p) for p in perms]


def _build_cyclic(n: int) -> tuple[list[list[int]], list[str]]:
    # row i is range(n) rotated left by i
    r = list(range(n))
    table = [r[i:] + r[:i] for i in range(n)]
    return table, [str(i) for i in range(n)]


def _build_dihedral(n: int) -> tuple[list[list[int]], list[str]]:
    # index i < n: rotation r^i; index n+i: reflection s r^i.  Every row is
    # two rotations: r^i r^j = r^(i+j), r^i s r^j = s r^(j-i),
    # s r^i r^j = s r^(i+j) and s r^i s r^j = r^(j-i)
    rot = list(range(n))
    ref = list(range(n, 2 * n))
    table = [rot[i:] + rot[:i] + ref[n - i:] + ref[:n - i] for i in range(n)]
    table += [ref[i:] + ref[:i] + rot[n - i:] + rot[:n - i] for i in range(n)]
    names = ["e"] + [f"r{i}" if i > 1 else "r" for i in range(1, n)]
    names += ["s"] + [f"sr{i}" if i > 1 else "sr" for i in range(1, n)]
    return table, names


_QUAT_NAMES = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
_QUAT_AXIS_MUL = {
    # (axis1, axis2) -> (sign, axis); axes 0=scalar, 1=i, 2=j, 3=k
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (2, 0): (1, 2), (3, 0): (1, 3),
    (1, 1): (-1, 0), (2, 2): (-1, 0), (3, 3): (-1, 0),
    (1, 2): (1, 3), (2, 1): (-1, 3),
    (2, 3): (1, 1), (3, 2): (-1, 1),
    (3, 1): (1, 2), (1, 3): (-1, 2),
}


def _build_quaternion() -> tuple[list[list[int]], list[str]]:
    def decode(x: int) -> tuple[int, int]:
        return (1 if x % 2 == 0 else -1), x // 2

    def encode(sign: int, axis: int) -> int:
        return 2 * axis + (0 if sign > 0 else 1)

    def mul(a: int, b: int) -> int:
        sa, xa = decode(a)
        sb, xb = decode(b)
        s, x = _QUAT_AXIS_MUL[(xa, xb)]
        return encode(sa * sb * s, x)

    table = [[mul(a, b) for b in range(8)] for a in range(8)]
    return table, list(_QUAT_NAMES)


def _direct_product(g1: FiniteGroup, g2: FiniteGroup, label: str) -> FiniteGroup:
    n1, n2 = g1.order, g2.order
    if n1 * n2 > MAX_ORDER:
        raise ValueError(f"product order {n1 * n2} exceeds supported maximum {MAX_ORDER}")
    table = [[0] * (n1 * n2) for _ in range(n1 * n2)]
    for a1 in range(n1):
        for b1 in range(n2):
            row = table[a1 * n2 + b1]
            for a2 in range(n1):
                ra = g1.mul[a1][a2] * n2
                rowa = g2.mul[b1]
                for b2 in range(n2):
                    row[a2 * n2 + b2] = ra + rowa[b2]
    names = None
    if g1.names is not None and g2.names is not None:
        names = [f"({g1.names[a]},{g2.names[b]})" for a in range(n1) for b in range(n2)]
    return FiniteGroup(table, names, label)


def build_builtin(spec: str) -> FiniteGroup:
    """Build a group from a family spec string.

    Supported: ``cyclic:N`` (N >= 1), ``dihedral:N`` (N >= 2, order 2N),
    ``sym:N`` / ``alt:N`` (N <= 6), ``quaternion:8``, and direct products
    joined with ``x``, e.g. ``cyclic:2xcyclic:2``.
    """
    spec = spec.strip()
    if not spec:
        raise ParseError("empty group spec")
    parts = spec.split("x")
    groups = [_build_single(part.strip()) for part in parts]
    g = groups[0]
    for h in groups[1:]:
        g = _direct_product(g, h, spec)
    g.label = spec
    return g


def _build_single(spec: str) -> FiniteGroup:
    if ":" not in spec:
        raise ParseError(f"bad group spec {spec!r}: expected family:parameter")
    family, _, arg = spec.partition(":")
    try:
        n = int(arg)
    except ValueError:
        raise ParseError(f"bad parameter {arg!r} in group spec {spec!r}") from None
    if family == "cyclic":
        if n < 1:
            raise ValueError("cyclic:N needs N >= 1")
        if n > MAX_ORDER:
            raise ValueError(f"order {n} exceeds supported maximum {MAX_ORDER}")
        table, names = _build_cyclic(n)
    elif family == "dihedral":
        if n < 2:
            raise ValueError("dihedral:N needs N >= 2")
        if 2 * n > MAX_ORDER:
            raise ValueError(f"order {2 * n} exceeds supported maximum {MAX_ORDER}")
        table, names = _build_dihedral(n)
    elif family == "sym":
        if not (1 <= n <= 6):
            raise ValueError("sym:N supports 1 <= N <= 6")
        table, names = _build_sym(n)
    elif family == "alt":
        if not (1 <= n <= 6):
            raise ValueError("alt:N supports 1 <= N <= 6")
        table, names = _build_sym(n, even_only=True)
    elif family == "quaternion":
        if n != 8:
            raise ValueError("only quaternion:8 is supported")
        table, names = _build_quaternion()
    else:
        raise ValueError(f"unknown group family {family!r}")
    return FiniteGroup(table, names, spec)


# -- table documents ---------------------------------------------------------


def build_from_table(doc: dict | str) -> FiniteGroup:
    """Build a group from a table document (dict or JSON text).

    The document has fields ``order`` (int), ``mul`` (n x n array of 0-based
    indices) and optionally ``names`` (n distinct strings).  The identity must sit at
    index 0; associativity is checked exhaustively at every order, by Light's
    test on a generating set.
    """
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid JSON: {e.msg}", e.pos) from None
    if not isinstance(doc, dict):
        raise ParseError("group document must be a JSON object")
    if "order" not in doc or "mul" not in doc:
        raise ParseError("group document needs 'order' and 'mul' fields")
    order = doc["order"]
    mul = doc["mul"]
    if type(order) is not int or order < 1:
        raise GroupTableError(f"bad order {order!r}")
    if order > MAX_ORDER:
        raise GroupTableError(f"order {order} exceeds supported maximum {MAX_ORDER}")
    if not isinstance(mul, list) or not all(isinstance(row, list) for row in mul):
        raise GroupTableError("mul must be a list of rows, each a list")
    if len(mul) != order:
        raise GroupTableError(f"mul has {len(mul)} rows, expected {order}")
    names = doc.get("names")
    if names is not None:
        if not isinstance(names, list) or not all(isinstance(s, str) for s in names):
            raise GroupTableError("names must be a list of strings")
        if len(names) != order:
            raise GroupTableError(f"names has {len(names)} entries, expected {order}")
        if len(set(names)) != order:
            raise GroupTableError("names must be distinct")
    return FiniteGroup(mul, names, str(doc.get("label", "table")))


def to_table_doc(G: FiniteGroup) -> dict:
    doc: dict = {"order": G.order, "mul": [list(row) for row in G.mul]}
    if G.names is not None:
        doc["names"] = list(G.names)
    return doc


def load_group(spec_or_path: str) -> FiniteGroup:
    """Resolve a CLI group argument: an existing file path wins, then specs."""
    import os

    if os.path.exists(spec_or_path):
        try:
            with open(spec_or_path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise ParseError(f"cannot read group file {spec_or_path!r}: {e.strerror}") from None
        g = build_from_table(text)
        g.label = os.path.splitext(os.path.basename(spec_or_path))[0]
        return g
    return build_builtin(spec_or_path)
