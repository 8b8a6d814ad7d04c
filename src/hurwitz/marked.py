"""Tuple spaces with an invariant prefix and the braid action on the tail.

An `ActionFamily` acts on tuples of shape prefix + tail: the built-in moves
are the braid moves on the tail's d positions, so restricted to the tail
the action is exactly the one from `braid`.  Nielsen types count the tail
only.  The marked family (prefix of width k) models covers carrying k extra
markings: two marked vectors are equivalent iff the prefixes agree and the
tails are braid equivalent, so class sets factor as G^k x (tail classes).

User-supplied extra moves on the full tuple are accepted as (move, inverse)
pairs; they are validated by sampling (invertibility, length and the tail's
Nielsen type), not proved.  Enumeration with extra moves falls back
to brute closure over raw tuples: the kernel `braid._closure` shared with
the plain orbit oracle, restricted to the tail positions and run with both
directions of each extra move.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from .braid import (
    Caps,
    DEFAULT_CAPS,
    FiberSpec,
    Move,
    OrbitClass,
    _closure,
    enumerate_classes,
    iter_fiber_tuples,
    nielsen,
)
from .errors import CapExceeded
from .groups import FiniteGroup
from .lattice import get_lattice


@dataclass(frozen=True)
class ActionFamily:
    """Shape of the action: prefix width, optional extra moves."""

    prefix_len: int
    extra_moves: tuple[tuple[Move, Move], ...] = ()

    def __post_init__(self):
        if self.prefix_len < 0:
            raise ValueError("prefix width must be nonnegative")


@dataclass(frozen=True)
class MarkedVector:
    prefix: tuple[int, ...]
    tail: tuple[int, ...]

    def full(self) -> tuple[int, ...]:
        return self.prefix + self.tail


@dataclass(frozen=True)
class MarkedClass:
    """Equivalence class of marked vectors under a family's moves."""

    canonical: MarkedVector
    size: int
    nu: tuple[int, ...]  # Nielsen type of the tail


def marked_family(k: int) -> ActionFamily:
    """Markings are plain labels: a prefix of width k."""
    return ActionFamily(prefix_len=k)


def marked_nielsen(G: FiniteGroup, mv: MarkedVector) -> tuple[int, ...]:
    """Class counts of the tail entries."""
    return nielsen(G, mv.tail)


# Random tuples each extra move is checked on, drawn from a fixed seed.
_MOVE_SAMPLES = 64


def validate_extra_moves(G: FiniteGroup, family: ActionFamily, length: int) -> None:
    """Spot-check that extra moves are invertible and invariant-preserving."""
    rng = random.Random(0)
    skip = family.prefix_len
    total = skip + length
    for fwd, inv in family.extra_moves:
        for _ in range(_MOVE_SAMPLES):
            t = tuple(rng.randrange(G.order) for _ in range(total))
            u = fwd(t)
            if len(u) != total:
                raise ValueError("extra move changed the tuple length")
            if inv(u) != t:
                raise ValueError("extra move failed the inverse check on a sample")
            if nielsen(G, u[skip:]) != nielsen(G, t[skip:]):
                raise ValueError("extra move changed the tail's Nielsen type")


_accepted_moves: set = set()


def _accept_extra_moves(G: FiniteGroup, family: ActionFamily, length: int) -> None:
    """First use of a (group, family, length) triple runs the sampling check."""
    if not family.extra_moves:
        return
    key = (G.digest, family, length)
    if key not in _accepted_moves:
        validate_extra_moves(G, family, length)
        _accepted_moves.add(key)


def _extra(family: ActionFamily) -> tuple[Move, ...]:
    """The family's extra moves, both directions of each, flattened."""
    return tuple(m for pair in family.extra_moves for m in pair)


def marked_orbit(G: FiniteGroup, family: ActionFamily, mv: MarkedVector,
                 caps: Caps = DEFAULT_CAPS) -> MarkedClass:
    """Class of a marked vector; canonical member is lexicographically minimal."""
    if len(mv.prefix) != family.prefix_len:
        raise ValueError("prefix width does not match the family")
    if not family.extra_moves:
        L = get_lattice(G, caps)
        node = L.class_of(mv.tail)
        canon = MarkedVector(mv.prefix, L.canonical(node))
        return MarkedClass(canon, L.size(node), marked_nielsen(G, canon))
    _accept_extra_moves(G, family, len(mv.tail))
    members = _closure(G, mv.full(), caps.orbit_states, family.prefix_len, _extra(family))
    best = min(members)
    r = family.prefix_len
    canon = MarkedVector(best[:r], best[r:])
    return MarkedClass(canon, len(members), marked_nielsen(G, canon))


def monoid_act(G: FiniteGroup, family: ActionFamily, x: MarkedClass | MarkedVector,
               v: OrbitClass | tuple[int, ...], caps: Caps = DEFAULT_CAPS) -> MarkedClass:
    """Juxtapose a plain class onto the tail; independent of representatives."""
    mv = x.canonical if isinstance(x, MarkedClass) else x
    word = v.canonical if isinstance(v, OrbitClass) else tuple(v)
    return marked_orbit(G, family, MarkedVector(mv.prefix, mv.tail + word), caps)


def enumerate_marked_classes(G: FiniteGroup, family: ActionFamily, tail_spec: FiberSpec,
                             prefixes: Iterable[tuple[int, ...]] | None = None,
                             caps: Caps = DEFAULT_CAPS) -> list[MarkedClass]:
    """Complete class list over prefix choices x one tail fiber.

    ``prefixes`` defaults to all of G^k in lexicographic order.  For the
    marked family the result is the Cartesian product of prefixes with the
    tail's class list; with extra moves the brute closure kernel is used.
    """
    if prefixes is None:
        prefix_list = _all_prefixes(G.order, family.prefix_len)
    else:
        prefix_list = sorted(set(tuple(p) for p in prefixes))
        for p in prefix_list:
            if len(p) != family.prefix_len:
                raise ValueError(f"prefix {p} has wrong width")
    if not family.extra_moves:
        tails = enumerate_classes(G, tail_spec, caps)
        out = []
        for prefix in prefix_list:
            for t in tails:
                mvec = MarkedVector(prefix, t.canonical)
                out.append(MarkedClass(mvec, t.size, marked_nielsen(G, mvec)))
        return out
    _accept_extra_moves(G, family, tail_spec.length)
    extra = _extra(family)
    seen: set[tuple[int, ...]] = set()
    out = []
    count = 0
    for prefix in prefix_list:
        for tail in iter_fiber_tuples(G, tail_spec):
            count += 1
            if count > caps.fiber_tuples:
                raise CapExceeded("marked fiber exceeds tuple cap", count, "tuples")
            full = prefix + tail
            if full in seen:
                continue
            members = _closure(G, full, caps.orbit_states, family.prefix_len, extra)
            seen.update(members)
            best = min(members)
            r = family.prefix_len
            mvec = MarkedVector(best[:r], best[r:])
            out.append(MarkedClass(mvec, len(members), marked_nielsen(G, mvec)))
    out.sort(key=lambda c: c.canonical.full())
    return out


def _all_prefixes(n: int, k: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = [()]
    for _ in range(k):
        out = [p + (x,) for p in out for x in range(n)]
    return out
