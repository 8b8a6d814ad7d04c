"""Tuple spaces with an invariant prefix and the braid action on the tail.

A `MarkedVector` is a prefix of k element indices and a tail: the braid
moves act on the tail's d positions, so restricted to the tail the action
is exactly the one from `braid`, and the prefix is never moved.  Nielsen
types count the tail only.  A prefix of width k models covers carrying k
extra markings: two marked vectors are equivalent iff the prefixes agree
and the tails are braid equivalent, so class sets factor as
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
)
from .groups import FiniteGroup
from .lattice import get_lattice


@dataclass(frozen=True)
class MarkedVector:
    prefix: tuple[int, ...]
    tail: tuple[int, ...]


@dataclass(frozen=True)
class MarkedClass:
    """Equivalence class of marked vectors under the braid moves on the tail."""

    canonical: MarkedVector
    size: int
    nu: tuple[int, ...]  # Nielsen type of the tail


def marked_orbit(G: FiniteGroup, mv: MarkedVector, caps: Caps = DEFAULT_CAPS) -> MarkedClass:
    """Class of a marked vector: its prefix with the tail's braid class.

    The tail's class and its canonical member may build lattice nodes (on a
    level of several classes the canonical member is computed on first use),
    all within ``caps.lattice_nodes``: CapExceeded past it.
    """
    _check_entries(mv.prefix, G.order)
    L = get_lattice(G, caps)
    node = L.class_of(mv.tail)
    return MarkedClass(MarkedVector(mv.prefix, L.canonical(node)), L.size(node), L.level(node))


def monoid_act(G: FiniteGroup, x: MarkedClass | MarkedVector, v: OrbitClass | tuple[int, ...],
               caps: Caps = DEFAULT_CAPS) -> MarkedClass:
    """Juxtapose a plain class onto the tail; independent of representatives."""
    mv = x.canonical if isinstance(x, MarkedClass) else x
    word = v.canonical if isinstance(v, OrbitClass) else tuple(v)
    return marked_orbit(G, MarkedVector(mv.prefix, mv.tail + word), caps)


def enumerate_marked_classes(G: FiniteGroup, k: int, tail_spec: FiberSpec,
                             prefixes: Iterable[tuple[int, ...]] | None = None,
                             caps: Caps = DEFAULT_CAPS) -> list[MarkedClass]:
    """Complete class list over prefix choices x one tail fiber.

    ``prefixes`` defaults to all of G^k in lexicographic order; given ones
    must have width k and are deduplicated and sorted.  The result is the
    Cartesian product of the prefixes with the tail's class list,
    prefix-major.
    """
    if type(k) is not int or k < 0:
        raise ValueError(f"prefix width {k!r} is not a non-negative int")
    if prefixes is None:
        prefix_list = list(itertools.product(range(G.order), repeat=k))
    else:
        prefix_list = []
        for p in prefixes:
            if not isinstance(p, (tuple, list)):
                raise ValueError(f"prefix {p!r} is not a tuple or list of element indices")
            p = tuple(p)
            if len(p) != k:
                raise ValueError(f"prefix {p} does not have width {k}")
            _check_entries(p, G.order)
            prefix_list.append(p)
        prefix_list = sorted(set(prefix_list))
    tails = enumerate_classes(G, tail_spec, caps)
    return [MarkedClass(MarkedVector(prefix, t.canonical), t.size, t.nu)
            for prefix in prefix_list for t in tails]
