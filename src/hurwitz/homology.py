"""The homological invariant behind stable class counts.

Past the stability bound, classes of generating vectors with a fixed
Nielsen type form a torsor: the count factors as (order of a finite abelian
group) x (order of the commutator subgroup), the abelian factor being a
quotient of the Schur multiplier that the braid dynamics can see.  Its
order falls out of exact division of a stable count; its structure falls
out of a composition law on the identity-evaluation slice:

    x . y  =  the unique z at the working level with  z + u^k  ~  x + y,

where u is the gamma stabiliser and k matches levels.  The base point is
the class of u^k, and the whole construction is cross-checked at a second
stable level and across evaluation slices.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from math import prod

from .braid import Caps, DEFAULT_CAPS, OrbitClass
from .errors import HomologyError
from .groups import FiniteGroup, GammaSet, commutator_subgroup
from .lattice import OrbitLattice, get_lattice
from .stability import (
    DEFAULT_CONFIRM,
    DEFAULT_WINDOW,
    _jsonable,
    find_stability_bound,
    u_gamma,
)


@dataclass(frozen=True)
class H2Report:
    order: int
    structure: tuple[int, ...] | None  # invariant factors d_1 | d_2 | ...
    stable_level: tuple[int, ...]
    cross_checks: tuple[tuple[tuple[int, ...], int], ...]  # (level, class count)
    commutator_order: int
    slice_counts: tuple[tuple[int, int], ...]  # (evaluation, count) at stable level
    base_point: tuple[int, ...]
    bound: int
    confident: bool

    def to_jsonable(self) -> dict:
        return _jsonable(self)


@dataclass(frozen=True)
class TorsorElement:
    cls: OrbitClass
    node: int  # lattice node id, private to the owning context


@dataclass(frozen=True)
class TorsorContext:
    """Everything needed to compose classes at one stable level."""

    lattice: OrbitLattice
    level: tuple[int, ...]
    elements: tuple[TorsorElement, ...]
    base: TorsorElement
    _shifted: dict[int, TorsorElement]  # node of x + u^k -> x


def _stable_context(G: FiniteGroup, gamma: GammaSet, window: int, confirm: int, caps: Caps):
    """Search for the stable level once; the invariant is read off it.

    Returns the stability report, the lattice, the stable level (the
    report's level at its bound), the shift word u_gamma^k whose class lies
    at that level, and the classes there that generate the whole group: the
    domain of the search's append map leaving the level.
    """
    report = find_stability_bound(G, gamma, None, window, confirm, caps)
    if report.bound is None:
        raise HomologyError(
            f"no stable level found within window {window}: {report.error}")
    u = u_gamma(G, gamma)
    level = report.levels[report.bound].nu
    L = get_lattice(G, caps)
    nodes, _ = L.shift_level(level, u.vector, u.sub)
    # composition compares z + u^k with x + y, so the level is k * nu(u_gamma)
    k = sum(level) // sum(u.nu)
    return report, L, level, u.vector * k, nodes


def h2_order(G: FiniteGroup, gamma: GammaSet, window: int = DEFAULT_WINDOW,
             confirm: int = DEFAULT_CONFIRM, caps: Caps = DEFAULT_CAPS) -> H2Report:
    """Order of the invariant via stable counting.

    Counts classes generating the whole group at a stable Nielsen level;
    the count must split exactly as order x |[G,G]|, and is re-counted at
    the next stable level and per evaluation slice.
    """
    return _order_report(G, _stable_context(G, gamma, window, confirm, caps))


def _order_report(G: FiniteGroup, context) -> H2Report:
    report, L, level, shift, nodes = context
    comm = commutator_subgroup(G).size
    count = len(nodes)
    if count == 0 or count % comm != 0:
        raise HomologyError(
            f"stable generating count {count} is not a positive multiple of "
            f"|[G,G]| = {comm}; level {level} may be sub-stable")
    order = count // comm
    cross = report.levels[report.bound + 1]  # the search counted the next level
    if cross.generating_count != count:
        raise HomologyError(f"count {cross.generating_count} at cross-check level "
                            f"{cross.nu} differs from {count}")
    by_ev = Counter(L.ev(x) for x in nodes)
    if len(by_ev) != comm or any(c != order for c in by_ev.values()):
        raise HomologyError(
            f"evaluation slices at {level} are uneven: {sorted(by_ev.items())}")
    return H2Report(
        order=order,
        structure=None,
        stable_level=level,
        cross_checks=((cross.nu, cross.generating_count),),
        commutator_order=comm,
        slice_counts=tuple(sorted(by_ev.items())),
        base_point=L.canonical(L.shift(0, shift)),
        bound=report.bound,
        confident=report.confident,
    )


def torsor_group(G: FiniteGroup, gamma: GammaSet, window: int = DEFAULT_WINDOW,
                 confirm: int = DEFAULT_CONFIRM, caps: Caps = DEFAULT_CAPS) -> TorsorContext:
    """Identity-evaluation slice at a stable level, with its base point."""
    return _torsor(_stable_context(G, gamma, window, confirm, caps))


def _torsor(context) -> TorsorContext:
    _, L, level, shift, nodes = context
    elements = tuple(TorsorElement(L.orbit_class(x), x) for x in nodes if L.ev(x) == 0)
    base_node = L.shift(0, shift)
    base = next(el for el in elements if el.node == base_node)
    shifted: dict[int, TorsorElement] = {}
    for el in elements:
        if shifted.setdefault(L.shift(el.node, shift), el) is not el:
            raise HomologyError(
                "composition is not uniquely defined (two classes shift to one); "
                f"level {level} may be sub-stable")
    return TorsorContext(L, level, elements, base, shifted)


def torsor_compose(ctx: TorsorContext, x: TorsorElement, y: TorsorElement) -> TorsorElement:
    """x . y = unique z at the level with z + u^k ~ x + y."""
    L = ctx.lattice
    z = ctx._shifted.get(L.append_word(x.node, L.canonical(y.node)))
    if z is None:
        raise HomologyError(
            "composition is not uniquely defined (0 matches); "
            f"level {ctx.level} may be sub-stable")
    return z


def abelian_invariant_factors(order: int, mul, identity: int) -> list[int]:
    """Invariant factors d_1 | d_2 | ... of a finite abelian group table.

    A maximal-order element spans a direct summand, so we peel it off and
    recurse on the quotient by its cyclic subgroup.
    """
    if order == 1:
        return []
    elems = list(range(order))

    def elem_order(x: int) -> int:
        k, acc = 1, x
        while acc != identity:
            acc = mul(acc, x)
            k += 1
        return k

    orders = {x: elem_order(x) for x in elems}
    gen = max(elems, key=lambda x: orders[x])
    d = orders[gen]
    cyc = {identity}
    acc = gen
    while acc != identity:
        cyc.add(acc)
        acc = mul(acc, gen)
    # quotient by the cyclic summand: label cosets, recurse
    coset_of: dict[int, int] = {}
    reps: list[int] = []
    for x in elems:
        if x in coset_of:
            continue
        label = len(reps)
        reps.append(x)
        for h in cyc:
            coset_of[mul(x, h)] = label
    q_identity = coset_of[identity]

    def q_mul(a: int, b: int) -> int:
        return coset_of[mul(reps[a], reps[b])]

    return abelian_invariant_factors(len(reps), q_mul, q_identity) + [d]


def h2_structure(G: FiniteGroup, gamma: GammaSet, window: int = DEFAULT_WINDOW,
                 confirm: int = DEFAULT_CONFIRM, caps: Caps = DEFAULT_CAPS) -> H2Report:
    """Full invariant-factor decomposition via the torsor composition law."""
    context = _stable_context(G, gamma, window, confirm, caps)
    report = _order_report(G, context)
    ctx = _torsor(context)
    m = len(ctx.elements)
    if m != report.order:
        raise HomologyError(
            f"identity-evaluation slice at level {ctx.level} has {m} classes but "
            f"the counted order is {report.order}")
    index = {el.node: i for i, el in enumerate(ctx.elements)}

    def mul(a: int, b: int) -> int:
        return index[torsor_compose(ctx, ctx.elements[a], ctx.elements[b]).node]

    identity = index[ctx.base.node]
    for i in range(m):
        if mul(i, identity) != i:
            raise HomologyError(
                f"base point is not an identity for composition at level {ctx.level}")
    factors = abelian_invariant_factors(m, mul, identity)
    if prod(factors) != report.order:
        raise HomologyError(
            f"invariant factors {factors} at level {ctx.level} do not multiply to "
            f"{report.order}")
    return replace(report, structure=tuple(factors))
