"""Hurwitz vectors and the braid action on them.

A Hurwitz vector is a plain tuple of element indices.  The generator moves
are

    sigma(i):     (..., a, b, ...) -> (..., b, b^-1 a b, ...)
    sigma_inv(i): (..., a, b, ...) -> (..., a b a^-1, a, ...)

acting on positions i, i+1 (i is 1-based, 1 <= i <= d-1).  This orientation
keeps the left-to-right product of the entries invariant, which the whole
package relies on.  Braid equivalence means membership in the same orbit
under these moves; evaluation, Nielsen type and generated subgroup are
orbit invariants.  `braid_equivalent` checks evaluation and Nielsen type
before any orbit work; the generated subgroup is a prefilter on the direct
path only, since equal lattice classes already carry equal subgroups.  On
the lattice path a pair whose classes are both built is decided by lookup
(`OrbitLattice.find`) before any of these checks.

Orbits can be expanded by brute search over raw tuples (`orbit`,
`enumerate_classes(..., method="direct")`), which is the reference
implementation, or through the shared class lattice (see `lattice`), which
reaches Nielsen types whose raw fibers are astronomically large.  Every
brute search runs the one kernel `_closure`, which follows `sigma` only:
a permutation of the finite set G^d has its inverse among its powers, so
`sigma_inv` reaches no further tuple.  The direct path walks each fiber
with `iter_fiber_tuples`; with the evaluation pinned, the last entry of a
tuple is forced (it is the inverse of the prefix's product times the
evaluation), so it is computed, not searched.
Both paths reject a tuple entry that is no element index with ValueError
before any shortcut; the lattice path checks entries inside its lookup fold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import CapExceeded, ParseError
from .groups import FiniteGroup, GammaSet, SubgroupMask, subgroup_closure

# Default caps, per enumeration: orbit BFS states and fiber backtracking
# states.  Exceeding a cap raises CapExceeded instead of truncating.
DEFAULT_ORBIT_CAP = 10**8
DEFAULT_FIBER_CAP = 10**8
DEFAULT_LATTICE_CAP = 2 * 10**6


@dataclass(frozen=True)
class Caps:
    """Enumeration limits; one instance is threaded through a whole run."""

    orbit_states: int = DEFAULT_ORBIT_CAP
    fiber_tuples: int = DEFAULT_FIBER_CAP
    lattice_nodes: int = DEFAULT_LATTICE_CAP


DEFAULT_CAPS = Caps()

# How `braid_equivalent` and `enumerate_classes` find orbits.
METHODS = ("lattice", "direct")


# -- moves and invariants ----------------------------------------------------
# Each checks its tuple first: an entry that is no element index raises
# ValueError naming its position and value.


def sigma(G: FiniteGroup, i: int, v: tuple[int, ...]) -> tuple[int, ...]:
    """Positive braid move at position i (1-based)."""
    _check_entries(v, G.order)
    if not 1 <= i <= len(v) - 1:
        raise IndexError(f"sigma position {i} out of range for length {len(v)}")
    a, b = v[i - 1], v[i]
    return v[: i - 1] + (b, G.conj_table[a][b]) + v[i + 1 :]


def sigma_inv(G: FiniteGroup, i: int, v: tuple[int, ...]) -> tuple[int, ...]:
    """Inverse braid move at position i; undoes `sigma`."""
    _check_entries(v, G.order)
    if not 1 <= i <= len(v) - 1:
        raise IndexError(f"sigma position {i} out of range for length {len(v)}")
    a, b = v[i - 1], v[i]
    return v[: i - 1] + (G.conj_table[b][G.inv[a]], a) + v[i + 1 :]


def evaluate(G: FiniteGroup, v: tuple[int, ...]) -> int:
    """Left-to-right product of the entries; identity for the empty tuple."""
    _check_entries(v, G.order)
    acc = 0
    mul = G.mul
    for x in v:
        acc = mul[acc][x]
    return acc


def nielsen(G: FiniteGroup, v: tuple[int, ...]) -> tuple[int, ...]:
    """Class-count vector: how many entries lie in each conjugacy class."""
    _check_entries(v, G.order)
    ct = G.classes
    class_of = ct.class_of
    counts = [0] * ct.count
    for x in v:
        counts[class_of[x]] += 1
    return tuple(counts)


def generated_subgroup(G: FiniteGroup, v: tuple[int, ...]) -> SubgroupMask:
    _check_entries(v, G.order)
    return subgroup_closure(G, v)


# -- orbits -------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitClass:
    """A braid-equivalence class: canonical member plus cached invariants.

    ``canonical`` is the lexicographically minimal orbit member under
    element-index order, so it is a total, deterministic class key.
    """

    canonical: tuple[int, ...]
    size: int
    ev: int
    nu: tuple[int, ...]
    subgroup: SubgroupMask


def _check_entries(v: tuple[int, ...], n: int) -> None:
    """Raise ValueError unless every entry of ``v`` is an element index of a
    group of order ``n``: an int, not a bool or a float, in [0, n)."""
    for i, x in enumerate(v):
        if type(x) is not int or not 0 <= x < n:
            raise ValueError(
                f"entry {x!r} at position {i} of {v} is not an element index in [0, {n})")


def _check_counts(nu: tuple[int, ...], what: str) -> None:
    """Raise ValueError unless every entry of the Nielsen type ``nu`` is a
    non-negative int, not a bool or a float; ``what`` names ``nu``."""
    for i, x in enumerate(nu):
        if type(x) is not int or x < 0:
            raise ValueError(f"{what} entry {x!r} at position {i} is not a non-negative int")


def _closure(G: FiniteGroup, start: tuple[int, ...], cap: int,
             target: tuple[int, ...] | None = None) -> set[tuple[int, ...]]:
    """Raw tuples reachable from ``start``: the one brute-force orbit kernel.

    Follows the forward move ``sigma`` at every position (``sigma_inv`` is
    not needed, see the module docstring).  Each successor is tested
    against the visited set as soon as it is made, positions left to
    right.  Stops as soon as ``target`` is added; raises CapExceeded
    rather than hold more than ``cap`` tuples (so at once when ``cap < 1``),
    and ValueError if ``start`` holds an entry that is no element index.
    """
    _check_entries(start, G.order)
    if cap < 1:
        raise _orbit_cap_exceeded(G, start, 0)
    conj = G.conj_table
    # sigma at position i + 1 rewrites the entries at i and j = i + 1
    spots = [(i, i + 1) for i in range(len(start) - 1)]
    seen = {start}
    stack = [start]
    pop, push, add = stack.pop, stack.append, seen.add
    while stack:
        t = pop()
        # one list per popped tuple: each move writes its two entries into
        # it, copies it out with tuple() and puts them back, one allocation
        # per successor where slices and concatenation cost five
        w = list(t)
        for i, j in spots:
            a = w[i]
            b = w[j]
            w[i] = b
            w[j] = conj[a][b]
            u = tuple(w)
            w[i] = a
            w[j] = b
            if u not in seen:
                if len(seen) >= cap:
                    raise _orbit_cap_exceeded(G, start, len(seen))
                add(u)
                if u == target:
                    return seen
                push(u)
    return seen


def _orbit_cap_exceeded(G: FiniteGroup, start: tuple[int, ...], visited: int) -> CapExceeded:
    return CapExceeded(f"orbit of a length-{len(start)} tuple of Nielsen type "
                       f"{nielsen(G, start)} exceeds state cap", visited)


def orbit_members(G: FiniteGroup, v: tuple[int, ...], max_states: int | None = None) -> set[tuple[int, ...]]:
    """Full orbit of ``v`` as a set, by closure under the braid moves.

    The closure follows ``sigma`` alone: it permutes the finite set G^d, so
    its inverse is among its powers and ``sigma_inv`` reaches no further
    tuple.
    """
    return _closure(G, v, max_states if max_states is not None else DEFAULT_ORBIT_CAP)


def _class_from_members(G: FiniteGroup, members: set[tuple[int, ...]]) -> OrbitClass:
    canonical = min(members)
    return OrbitClass(
        canonical=canonical,
        size=len(members),
        ev=evaluate(G, canonical),
        nu=nielsen(G, canonical),
        subgroup=generated_subgroup(G, canonical),
    )


def orbit(G: FiniteGroup, v: tuple[int, ...], max_states: int | None = None) -> OrbitClass:
    """Braid orbit of ``v`` by breadth-first closure (reference path)."""
    return _class_from_members(G, orbit_members(G, v, max_states))


def braid_equivalent(G: FiniteGroup, v: tuple[int, ...], w: tuple[int, ...],
                     method: str = "lattice", caps: Caps = DEFAULT_CAPS) -> bool:
    """Decide membership in the same braid orbit.

    Both paths first raise ValueError if either tuple holds an entry that is
    no element index.  The lattice path does so by looking both tuples up
    (`OrbitLattice.find`), and a pair whose classes are both built is
    decided by class id alone.  Otherwise invariant prefilters (length,
    evaluation, Nielsen type) short-circuit before any orbit work or any
    node is built.  The direct path also compares generated subgroups
    before its search.  The lattice path needs no subgroup prefilter,
    because each class stores its subgroup; on a cold lattice a pair whose
    subgroups differ therefore builds both classes before it returns False.
    """
    _check_method(method)
    if method == "lattice":
        L = get_lattice(G, caps)
        x = L.find(v)
        y = L.find(w)
        if x >= 0 and y >= 0:
            return x == y
    else:
        _check_entries(v, G.order)
        _check_entries(w, G.order)
    if len(v) != len(w):
        return False
    if v == w:
        return True
    if evaluate(G, v) != evaluate(G, w):
        return False
    if nielsen(G, v) != nielsen(G, w):
        return False
    if method == "direct":
        if generated_subgroup(G, v).bits != generated_subgroup(G, w).bits:
            return False
        return w in _closure(G, v, caps.orbit_states, target=w)
    return L.class_of(v) == L.class_of(w)


def _check_method(method: str) -> None:
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


# -- fibers -------------------------------------------------------------------


@dataclass(frozen=True)
class FiberSpec:
    """Constraints cutting out one fiber of the invariant maps.

    ``nu`` holds a non-negative int per conjugacy-class id and must be
    supported on classes contained in ``gamma``.  ``ev`` pins the
    evaluation; ``generated`` pins the generated subgroup exactly.
    `validate` checks all but ``generated``, and every reader calls it.
    """

    nu: tuple[int, ...]
    gamma: GammaSet
    ev: int | None = None
    generated: SubgroupMask | None = None

    def validate(self, G: FiniteGroup) -> None:
        ct = G.classes
        if len(self.nu) != ct.count:
            raise ValueError(f"nu has {len(self.nu)} entries, group has {ct.count} classes")
        _check_counts(self.nu, "nu")
        for cid, count in enumerate(self.nu):
            if count > 0 and cid not in self.gamma.class_ids:
                raise ValueError(f"nu places {count} entries on class {cid} outside gamma")
        if self.ev is not None and (type(self.ev) is not int or not 0 <= self.ev < G.order):
            raise ValueError(f"evaluation {self.ev!r} is not an element index in [0, {G.order})")

    @property
    def length(self) -> int:
        return sum(self.nu)

    def key(self) -> str:
        """Deterministic descriptor of the fiber, printed with its classes."""
        parts = ["nu=" + ",".join(map(str, self.nu))]
        parts.append("gamma=" + ",".join(map(str, self.gamma.class_ids)))
        if self.ev is not None:
            parts.append(f"ev={self.ev}")
        if self.generated is not None:
            # generated is always matched exactly; the tag is part of the printed key
            parts.append(f"gen[exact]={self.generated.bits:x}")
        return ";".join(parts)


def _matches_generated(spec: FiberSpec, sub_bits: int) -> bool:
    return spec.generated is None or sub_bits == spec.generated.bits


def fiber_size(G: FiniteGroup, spec: FiberSpec) -> int:
    """Number of raw tuples with the spec's Nielsen type (ev ignored)."""
    from math import comb

    spec.validate(G)
    ct = G.classes
    total = 1
    remaining = spec.length
    for cid, count in enumerate(spec.nu):
        if count:
            total *= comb(remaining, count) * ct.sizes[cid] ** count
            remaining -= count
    return total


def iter_fiber_tuples(G: FiniteGroup, spec: FiberSpec) -> Iterator[tuple[int, ...]]:
    """All tuples in the fiber, in lexicographic order.

    Entries are drawn class by class per the Nielsen counts.  When the
    evaluation is pinned, the walk carries the product the remaining
    entries still need: a prefix is pruned when its remaining counts cannot
    reach that product (a reachable-products table per remaining Nielsen
    type), and the last entry is not searched but forced, since it must
    equal the product still needed; it is kept only if its class has a
    count left.
    """
    spec.validate(G)
    ct = G.classes
    d = spec.length
    if d == 0:
        if spec.ev is None or spec.ev == 0:
            yield ()
        return
    mul, inv, class_of = G.mul, G.inv, ct.class_of
    pinned = spec.ev is not None

    # reachable[nu_rem] = bitmask of products achievable by some arrangement.
    # sigma moves an entry one place left unchanged, so some arrangement of
    # each product starts with an entry of p, the first class nu_rem counts:
    # the products are C_p times those of nu_rem - e_p, a chain of types
    # down to a memoised one (the empty type at the latest).
    reachable: dict[tuple[int, ...], int] = {(0,) * ct.count: 1}

    def products(nu_rem: tuple[int, ...]) -> int:
        chain = []
        hit = reachable.get(nu_rem)
        while hit is None:
            p = next(i for i, c in enumerate(nu_rem) if c)
            chain.append((nu_rem, p))
            nu_rem = nu_rem[:p] + (nu_rem[p] - 1,) + nu_rem[p + 1 :]
            hit = reachable.get(nu_rem)
        for nu_rem, p in reversed(chain):
            out = 0
            for g in ct.members[p]:
                row = mul[g]
                sub = hit
                while sub:
                    low = sub & -sub
                    out |= 1 << row[low.bit_length() - 1]
                    sub ^= low
            hit = reachable[nu_rem] = out
        return hit

    # options[nu_rem] = the possible next entries g in increasing order, each
    # with the row of g^-1 (need -> what the entries after g still need), the
    # Nielsen type left after g and that type's reachable products (all bits
    # set when the evaluation is free)
    options: dict[tuple[int, ...], list[tuple[int, list[int], tuple[int, ...], int]]] = {}

    def choices(nu_rem: tuple[int, ...]) -> list[tuple[int, list[int], tuple[int, ...], int]]:
        hit = options.get(nu_rem)
        if hit is None:
            hit = []
            for cid, count in enumerate(nu_rem):
                if count:
                    nxt = nu_rem[:cid] + (count - 1,) + nu_rem[cid + 1 :]
                    reach = products(nxt) if pinned else -1
                    hit.extend((g, mul[inv[g]], nxt, reach) for g in ct.members[cid])
            hit.sort()
            options[nu_rem] = hit
        return hit

    # depth first: one pending (prefix, type left, product the rest must
    # have) per admissible choice, pushed in reverse so that they pop in
    # lexicographic order; with the evaluation free the product is carried
    # but constrains nothing
    last = d - 1
    stack = [((), spec.nu, spec.ev if pinned else 0)]
    while stack:
        head, nu_rem, need = stack.pop()
        if len(head) < last:
            for g, back, nxt, reach in reversed(choices(nu_rem)):
                left = back[need]
                if (reach >> left) & 1:
                    stack.append((head + (g,), nxt, left))
        elif not pinned:
            for g, _, _, _ in choices(nu_rem):
                yield head + (g,)
        elif nu_rem[class_of[need]]:
            yield head + (need,)


def enumerate_classes(G: FiniteGroup, spec: FiberSpec, caps: Caps = DEFAULT_CAPS,
                      method: str = "lattice") -> list[OrbitClass]:
    """Complete, duplicate-free list of classes meeting ``spec``.

    ``method="direct"`` walks the raw fiber with visited-member marking and
    is bounded by ``caps``; ``method="lattice"`` (default) builds the same
    classes through the shared lattice and scales to fibers far beyond
    direct reach.  Both return classes sorted by canonical representative.
    """
    _check_method(method)
    spec.validate(G)
    if method == "direct":
        return _enumerate_direct(G, spec, caps)
    L = get_lattice(G, caps)
    out = []
    for node in L.classes_at(spec.nu):
        if spec.ev is not None and L.ev(node) != spec.ev:
            continue
        if not _matches_generated(spec, L.sub_bits(node)):
            continue
        out.append(L.orbit_class(node))
    return out


def _enumerate_direct(G: FiniteGroup, spec: FiberSpec, caps: Caps) -> list[OrbitClass]:
    seen: set[tuple[int, ...]] = set()
    out: list[OrbitClass] = []
    visited_tuples = 0
    for t in iter_fiber_tuples(G, spec):
        visited_tuples += 1
        if visited_tuples > caps.fiber_tuples:
            raise CapExceeded("fiber exceeds tuple cap", visited_tuples, "tuples")
        if t in seen:
            continue
        members = orbit_members(G, t, caps.orbit_states)
        seen.update(members)
        cls = _class_from_members(G, members)
        if _matches_generated(spec, cls.subgroup.bits):
            out.append(cls)
    out.sort(key=lambda c: c.canonical)
    return out


# -- text I/O -----------------------------------------------------------------


def _split_top_level(text: str, offset: int = 0) -> list[tuple[str, int]]:
    """Entries between commas outside parentheses, each stripped, with the
    offset where it starts in the caller's text (``text`` begins at ``offset``)."""
    parts: list[tuple[str, int]] = []
    depth = 0
    start = 0
    for i, ch in enumerate(text + ","):  # the sentinel comma closes the last entry
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced ')'", offset + i)
        elif ch == "," and depth == 0:
            part = text[start:i]
            parts.append((part.strip(), offset + i - len(part.lstrip())))
            start = i + 1
    if depth != 0:
        raise ParseError("unbalanced '('", offset + len(text))
    return parts


def parse_tuple(G: FiniteGroup, text: str) -> tuple[int, ...]:
    """Parse tuple syntax: "1,2,4" (indices) or "[(12),(13)]" (names)."""
    raw = text.strip()
    if raw in ("", "[]"):
        return ()
    if raw.startswith("["):
        if not raw.endswith("]"):
            raise ParseError("expected closing ']'", len(text.rstrip()) - 1)
        if G.names is None:
            raise ParseError("group has no element names; use index syntax", text.index("["))
        inner = raw[1:-1]
        if not inner.strip():
            return ()
        entries = []
        for name, at in _split_top_level(inner, text.index("[") + 1):
            if name not in G.names:
                raise ParseError(f"unknown element name {name!r}", at)
            entries.append(G.names.index(name))
        return tuple(entries)
    entries = []
    for tok, at in _split_top_level(raw, text.index(raw[0])):
        if not tok:
            raise ParseError("empty entry", at)
        try:
            x = int(tok)
        except ValueError:
            raise ParseError(f"expected an element index, got {tok!r}", at) from None
        if not 0 <= x < G.order:
            raise ParseError(f"element index {x} out of range [0, {G.order})", at)
        entries.append(x)
    return tuple(entries)


def format_tuple(G: FiniteGroup, v: tuple[int, ...]) -> str:
    if G.names is not None:
        return "[" + ",".join(G.names[x] for x in v) + "]"
    return ",".join(str(x) for x in v)


# last, because the lattice imports from this module: by the time it does,
# every name it needs is defined (the package imports this module first)
from .lattice import get_lattice  # noqa: E402
