"""Tuple spaces with an invariant prefix and the braid action on the tail.

An `ActionFamily` acts on tuples of shape prefix + tail: its moves are the
braid moves on the tail's d positions, so restricted to the tail the action
is exactly the one from `braid`, and the prefix is never moved.  Nielsen
types count the tail only.  The marked family (prefix of width k) models
covers carrying k extra markings: two marked vectors are equivalent iff the
prefixes agree and the tails are braid equivalent, so class sets factor as
G^k x (tail classes).  Both `marked_orbit` and `enumerate_marked_classes`
read the tail's class off the shared class lattice (`lattice`) and attach
the prefix; there is no raw search here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .braid import (
    Caps,
    DEFAULT_CAPS,
    FiberSpec,
    OrbitClass,
    _check_entries,
    enumerate_classes,
    nielsen,
)
from .groups import FiniteGroup
from .lattice import get_lattice


@dataclass(frozen=True)
class ActionFamily:
    """Shape of the action: the width of the fixed prefix."""

    prefix_len: int

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


def _check_prefix(G: FiniteGroup, family: ActionFamily, prefix: tuple[int, ...]) -> None:
    """Raise ValueError unless ``prefix`` has the family's width and holds
    element indices only."""
    if len(prefix) != family.prefix_len:
        raise ValueError(f"prefix {prefix} does not have the family's width {family.prefix_len}")
    _check_entries(prefix, G.order)


def marked_orbit(G: FiniteGroup, family: ActionFamily, mv: MarkedVector,
                 caps: Caps = DEFAULT_CAPS) -> MarkedClass:
    """Class of a marked vector: its prefix with the tail's braid class."""
    _check_prefix(G, family, mv.prefix)
    L = get_lattice(G, caps)
    node = L.class_of(mv.tail)
    canon = MarkedVector(mv.prefix, L.canonical(node))
    return MarkedClass(canon, L.size(node), marked_nielsen(G, canon))


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

    ``prefixes`` defaults to all of G^k in lexicographic order; given ones
    are deduplicated and sorted.  The result is the Cartesian product of the
    prefixes with the tail's class list, prefix-major.
    """
    if prefixes is None:
        prefix_list = list(itertools.product(range(G.order), repeat=family.prefix_len))
    else:
        prefix_list = []
        for p in prefixes:
            if not isinstance(p, (tuple, list)):
                raise ValueError(f"prefix {p!r} is not a tuple or list of element indices")
            prefix_list.append(tuple(p))
            _check_prefix(G, family, prefix_list[-1])
        prefix_list = sorted(set(prefix_list))
    tails = enumerate_classes(G, tail_spec, caps)
    return [MarkedClass(MarkedVector(prefix, t.canonical), t.size, t.nu)
            for prefix in prefix_list for t in tails]
