"""The homological invariant behind stable class counts.

Past the stability bound, classes of generating vectors with a fixed
Nielsen type form a torsor: the count factors as (order of a finite abelian
group) x (order of the commutator subgroup), the abelian factor being a
quotient of the Schur multiplier that the braid dynamics can see.  Its
order falls out of exact division of a stable count; its structure falls
out of a composition law on the identity-evaluation slice:

    x . y  =  the unique z at the working level with  z + s  ~  x + y,

where s is a shift word whose Nielsen type is the level.

The stable level is found in per-class steps, the stabilisation of
Ellenberg-Venkatesh-Westerland: for each class c of gamma the step is
g^ord(g), g the least member of c, and appending it is well defined on
generating classes.  The search starts at the sum of ord(c) * e_c over the
classes of gamma, and each round appends every step once; a round is
bijective when every step maps the generating classes at its level
bijectively onto those at the level plus that step's type.  ``window``
counts rounds, ``bound`` is the least round from which every explored round
is bijective, and ``confident`` marks at least ``confirm`` bijective rounds
closing the window.  The working level is the bound's round and s is the
concatenated steps repeated bound + 1 times, which need not generate the
group; the base point is the unique idempotent of the composition.  The
count is cross-checked at the next round, and the whole construction
across evaluation slices.  `find_stability_bound` keeps to the u_gamma ray.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from math import prod

from .braid import Caps, DEFAULT_CAPS, OrbitClass, nielsen
from .errors import HomologyError
from .groups import FiniteGroup, GammaSet, commutator_subgroup
from .lattice import OrbitLattice, get_lattice
from .stability import (
    DEFAULT_CONFIRM,
    DEFAULT_WINDOW,
    Stabilizer,
    _check_window,
    _generating_u_gamma,
    _jsonable,
    _search_rounds,
    make_stabilizer,
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
    shift: tuple[int, ...]  # s: x . y is the z with z + s ~ x + y
    elements: tuple[TorsorElement, ...]
    base: TorsorElement
    _shifted: dict[int, TorsorElement]  # node of x + s -> x


def _class_steps(G: FiniteGroup, gamma: GammaSet) -> list[Stabilizer]:
    """g^ord(g) for the least member g of each class of gamma; ValueError
    if gamma does not generate the group."""
    _generating_u_gamma(G, gamma)
    orders = G.element_orders
    least = G.classes.representatives
    return [make_stabilizer(G, (least[c],) * orders[least[c]]) for c in gamma.class_ids]


def _stable_torsor(G: FiniteGroup, gamma: GammaSet, window: int, confirm: int,
                   caps: Caps) -> tuple[H2Report, TorsorContext]:
    """Search for the stable level once, run the count checks on it, and only
    then build the torsor; every entry point reads the invariant off this.

    The stable level is the search's level at its bound, its classes that
    generate the whole group are the domain of every step leaving it, and
    the shift word s is the concatenated steps repeated bound + 1 times.
    """
    _check_window(window, confirm)
    steps = _class_steps(G, gamma)
    word = tuple(g for s in steps for g in s.vector)
    search = _search_rounds(G, nielsen(G, word), steps, window, confirm, caps)
    if search.bound is None:
        message = f"no stable level found within window {window}: {search.error}"
        if search.levels:
            message += (f"; last level explored {search.levels[-1].nu}, generating classes "
                        f"per round {[lv.generating_count for lv in search.levels]}")
        raise HomologyError(message)
    level = search.levels[search.bound].nu
    L = get_lattice(G, caps)
    nodes, _ = L.shift_level(level, steps[0].vector, (1 << G.order) - 1)
    comm = commutator_subgroup(G).size
    count = len(nodes)
    if count == 0 or count % comm != 0:
        raise HomologyError(
            f"stable generating count {count} is not a positive multiple of "
            f"|[G,G]| = {comm}; level {level} may be sub-stable")
    order = count // comm
    cross = search.levels[search.bound + 1]  # the search counted the next round
    if cross.generating_count != count:
        raise HomologyError(f"count {cross.generating_count} at cross-check level "
                            f"{cross.nu} differs from {count}")
    by_ev = Counter(L.ev(x) for x in nodes)
    if len(by_ev) != comm or any(c != order for c in by_ev.values()):
        raise HomologyError(
            f"evaluation slices at {level} are uneven: {sorted(by_ev.items())}")
    torsor = _torsor(L, level, word * (search.bound + 1), nodes)
    return H2Report(
        order=order,
        structure=None,
        stable_level=level,
        cross_checks=((cross.nu, cross.generating_count),),
        commutator_order=comm,
        slice_counts=tuple(sorted(by_ev.items())),
        base_point=torsor.base.cls.canonical,
        bound=search.bound,
        confident=search.confident,
    ), torsor


def h2_order(G: FiniteGroup, gamma: GammaSet, window: int = DEFAULT_WINDOW,
             confirm: int = DEFAULT_CONFIRM, caps: Caps = DEFAULT_CAPS) -> H2Report:
    """Order of the invariant via stable counting.

    Counts classes generating the whole group at a stable Nielsen level;
    the count must split exactly as order x |[G,G]|, and is re-counted at
    the next round's level and per evaluation slice.  The base point comes
    from the torsor, which is built only once the counts have passed.
    """
    return _stable_torsor(G, gamma, window, confirm, caps)[0]


def torsor_group(G: FiniteGroup, gamma: GammaSet, window: int = DEFAULT_WINDOW,
                 confirm: int = DEFAULT_CONFIRM, caps: Caps = DEFAULT_CAPS) -> TorsorContext:
    """Identity-evaluation slice at a stable level, with its base point;
    raises HomologyError where `h2_order` does."""
    return _stable_torsor(G, gamma, window, confirm, caps)[1]


def _torsor(L: OrbitLattice, level: tuple[int, ...], shift: tuple[int, ...],
            nodes: tuple[int, ...]) -> TorsorContext:
    """The identity-evaluation classes among ``nodes``, composed with shift
    ``shift``; HomologyError unless composition is well defined and has
    exactly one idempotent."""
    elements = tuple(TorsorElement(L.orbit_class(x), x) for x in nodes if L.ev(x) == 0)
    shifted: dict[int, TorsorElement] = {}
    for el in elements:
        if shifted.setdefault(L.shift(el.node, shift), el) is not el:
            raise HomologyError(
                "composition is not uniquely defined (two classes shift to one); "
                f"level {level} may be sub-stable")
    idempotents = [el for el in elements
                   if shifted.get(L.append_word(el.node, el.cls.canonical)) is el]
    if len(idempotents) != 1:
        raise HomologyError(f"composition at level {level} has {len(idempotents)} "
                            "idempotents, expected exactly one")
    return TorsorContext(L, level, shift, elements, idempotents[0], shifted)


def torsor_compose(ctx: TorsorContext, x: TorsorElement, y: TorsorElement) -> TorsorElement:
    """x . y = unique z at the level with z + s ~ x + y."""
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
    report, ctx = _stable_torsor(G, gamma, window, confirm, caps)
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
