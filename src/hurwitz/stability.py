"""Branch stabilisation: appending a fixed vector and watching class sets.

The distinguished stabiliser for a conjugation-closed subset is the tuple
listing each element, in ascending index order, repeated as often as its
order; its evaluation is the identity, and by centrality its class does not
depend on the enumeration order.  Appending it maps class sets at one
Nielsen level to the next; the maps are eventually bijective, and the level
where that happens is discovered empirically here; the report says how far
the window was explored and how many bijective levels back the claim.

`stable_equivalent` decides whether two vectors become braid equivalent
after appending enough copies of a stabiliser.  A "true" is a plain
equivalence check; a "false" is final once every explored further append is
injective on the enclosing class sets, and carries the same empirical
confidence as the discovered bound.  Running out of window is reported as
indeterminate, never coerced to false.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import Caps, DEFAULT_CAPS, OrbitClass, evaluate, nielsen
from .groups import FiniteGroup, GammaSet, subgroup_closure
from .lattice import OrbitLattice, get_lattice

DEFAULT_WINDOW = 4
DEFAULT_EQ_WINDOW = DEFAULT_WINDOW * 2
DEFAULT_CONFIRM = 2
DEFAULT_FRACTION_POWERS = 5


@dataclass(frozen=True)
class Stabilizer:
    """A stabilising vector with its cached invariants."""

    vector: tuple[int, ...]
    nu: tuple[int, ...]
    ev: int
    ell: int  # order of ev in the group
    sub: int  # bits of the subgroup the vector generates


def make_stabilizer(G: FiniteGroup, vector: tuple[int, ...]) -> Stabilizer:
    ev = evaluate(G, vector)
    return Stabilizer(tuple(vector), nielsen(G, vector), ev, G.element_order(ev),
                      subgroup_closure(G, vector).bits)


def u_gamma(G: FiniteGroup, gamma: GammaSet) -> Stabilizer:
    """Each element of gamma, ascending, repeated by its order; ev = identity."""
    if not gamma.bits:
        raise ValueError("gamma is empty")
    orders = G.element_orders
    word: list[int] = []
    for g in gamma.elements():
        word.extend([g] * orders[g])
    st = make_stabilizer(G, tuple(word))
    assert st.ev == 0 and st.ell == 1
    return st


# -- stabilisation maps --------------------------------------------------------


@dataclass(frozen=True)
class StabilizeMap:
    """Image data of one append map between two class lists."""

    pairs: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]  # (domain canon, image canon)
    injective: bool
    surjective: bool
    codomain_size: int


def stabilize_map(G: FiniteGroup, domain: list[OrbitClass], u: Stabilizer,
                  codomain: list[OrbitClass] | None = None,
                  caps: Caps = DEFAULT_CAPS) -> StabilizeMap:
    """Apply [v] -> [v + u] to every domain class.

    All domain classes must share one Nielsen type.  If ``codomain`` is not
    given, surjectivity is judged against the classes at the shifted level
    whose generated subgroup contains the one generated by ``u``.
    """
    if domain:
        nus = {c.nu for c in domain}
        if len(nus) > 1:
            raise ValueError("domain classes must share one Nielsen type")
    L = get_lattice(G, caps)
    pairs = []
    image_nodes = []
    for c in domain:
        node = L.append_word(L.class_of(c.canonical), u.vector)
        image_nodes.append(node)
        pairs.append((c.canonical, L.canonical(node)))
    if codomain is None:
        if domain:
            target_nu = tuple(a + b for a, b in zip(domain[0].nu, u.nu))
            cod_nodes = [n for n in L.classes_at(target_nu)
                         if u.sub & ~L.sub_bits(n) == 0]
        else:
            cod_nodes = []
    else:
        cod_nodes = [L.class_of(c.canonical) for c in codomain]
    injective = len(set(image_nodes)) == len(image_nodes)
    surjective = set(image_nodes) == set(cod_nodes)
    return StabilizeMap(tuple(pairs), injective, surjective, len(cod_nodes))


# -- stability bound search -----------------------------------------------------


@dataclass(frozen=True)
class StabilityLevel:
    n: int
    nu: tuple[int, ...]
    count: int               # all classes at the level
    generating_count: int    # classes generating the whole group
    injective: bool | None   # flags describe the append map leaving this level
    surjective: bool | None
    bijective: bool | None


@dataclass(frozen=True)
class StabilityReport:
    nu0: tuple[int, ...]
    step: tuple[int, ...]
    window: int
    confirm: int
    levels: tuple[StabilityLevel, ...]
    bound: int | None
    confident: bool
    error: str | None = None

    def to_jsonable(self) -> dict:
        return {
            "nu0": list(self.nu0),
            "step": list(self.step),
            "window": self.window,
            "confirm": self.confirm,
            "levels": [
                {
                    "n": lv.n,
                    "nu": list(lv.nu),
                    "count": lv.count,
                    "generating_count": lv.generating_count,
                    "injective": lv.injective,
                    "surjective": lv.surjective,
                    "bijective": lv.bijective,
                }
                for lv in self.levels
            ],
            "bound": self.bound,
            "confident": self.confident,
            "error": self.error,
        }


def _add_nu(a: tuple[int, ...], b: tuple[int, ...], times: int = 1) -> tuple[int, ...]:
    return tuple(x + times * y for x, y in zip(a, b))


def find_stability_bound(G: FiniteGroup, gamma: GammaSet,
                         nu0: tuple[int, ...] | None = None,
                         window: int = DEFAULT_WINDOW,
                         confirm: int = DEFAULT_CONFIRM,
                         caps: Caps = DEFAULT_CAPS) -> StabilityReport:
    """Explore levels nu0 + n * nu(u_gamma) and find where appends bijject.

    Counts cover all classes at each level; the append maps are judged on
    the classes generating the whole group (appending u_gamma lands there
    regardless, since gamma generates).  ``bound`` is the least explored n
    from which every further explored map is bijective; ``confident`` marks
    at least ``confirm`` bijective maps closing the window.
    """
    u = u_gamma(G, gamma)
    full = (1 << G.order) - 1
    if u.sub != full:
        raise ValueError("gamma does not generate the group")
    if nu0 is None:
        nu0 = u.nu
    if window < 1:
        return StabilityReport(tuple(nu0), u.nu, window, confirm, (), None, False,
                               error="window must cover at least one append map")
    L = get_lattice(G, caps)
    per_level_nodes: list[list[int]] = []
    per_level_gen: list[list[int]] = []
    for n in range(window + 1):
        nodes = list(L.classes_at(_add_nu(nu0, u.nu, n)))
        per_level_nodes.append(nodes)
        per_level_gen.append([x for x in nodes if L.sub_bits(x) == full])
    flags: list[tuple[bool, bool]] = []
    for n in range(window):
        images = [L.append_word(x, u.vector) for x in per_level_gen[n]]
        injective = len(set(images)) == len(images)
        surjective = set(images) == set(per_level_gen[n + 1])
        flags.append((injective, surjective))
    bound: int | None = None
    for n in range(window - 1, -1, -1):
        if flags[n][0] and flags[n][1]:
            bound = n
        else:
            break
    levels = []
    for n in range(window + 1):
        inj, sur = (flags[n] if n < window else (None, None))
        levels.append(StabilityLevel(
            n=n,
            nu=_add_nu(nu0, u.nu, n),
            count=len(per_level_nodes[n]),
            generating_count=len(per_level_gen[n]),
            injective=inj,
            surjective=sur,
            bijective=(None if inj is None else inj and sur),
        ))
    confident = bound is not None and (window - bound) >= confirm
    error = None if bound is not None else "no bijective tail within explored window"
    return StabilityReport(tuple(nu0), u.nu, window, confirm, tuple(levels),
                           bound, confident, error)


# -- stable equivalence ----------------------------------------------------------


@dataclass(frozen=True)
class StableEqResult:
    """Three-valued verdict; ``equivalent`` is None when indeterminate."""

    equivalent: bool | None
    level: int | None
    reason: str
    window: int

    @property
    def indeterminate(self) -> bool:
        return self.equivalent is None


def stable_equivalent(G: FiniteGroup, v: tuple[int, ...], w: tuple[int, ...],
                      u: Stabilizer, window: int = DEFAULT_EQ_WINDOW,
                      confirm: int = DEFAULT_CONFIRM,
                      caps: Caps = DEFAULT_CAPS) -> StableEqResult:
    """Decide whether v + u^l and w + u^l become braid equivalent.

    Nielsen type and evaluation are append-invariant obstructions, so a
    mismatch is an immediate, final "false".  Otherwise copies of ``u`` are
    appended; equality at any level settles "true".  A "false" is emitted
    only once the explored appends past the divergence are all injective on
    the enclosing class sets (with ``confirm`` such levels), mirroring the
    empirical stability bound; otherwise the result is indeterminate.
    """
    base_nu = nielsen(G, v)
    if base_nu != nielsen(G, w):
        return StableEqResult(False, 0, "nielsen-type mismatch", window)
    if evaluate(G, v) != evaluate(G, w):
        return StableEqResult(False, 0, "evaluation mismatch", window)
    L = get_lattice(G, caps)
    node_v = L.class_of(v)
    node_w = L.class_of(w)
    if node_v == node_w:
        return StableEqResult(True, 0, "braid equivalent", window)
    for level in range(1, window + 1):
        node_v = L.append_word(node_v, u.vector)
        node_w = L.append_word(node_w, u.vector)
        if node_v == node_w:
            return StableEqResult(True, level, f"equivalent after {level} appends", window)
    # no equality anywhere in the window: look for an injective tail
    injective_from: int | None = None
    for step in range(window - 1, 0, -1):
        if _append_step_injective(L, _add_nu(base_nu, u.nu, step), u):
            injective_from = step
        else:
            break
    if injective_from is not None and (window - injective_from) >= confirm:
        return StableEqResult(
            False, injective_from,
            f"distinct at level {injective_from} and all {window - injective_from} "
            "further explored appends are injective", window)
    return StableEqResult(None, None, "window exhausted without a stable verdict", window)


def _append_step_injective(L: OrbitLattice, nu: tuple[int, ...], u: Stabilizer) -> bool:
    domain = [x for x in L.classes_at(nu) if u.sub & ~L.sub_bits(x) == 0]
    images = {L.append_word(x, u.vector) for x in domain}
    return len(images) == len(domain)


# -- fraction monoid and adjoint words --------------------------------------------


@dataclass(frozen=True)
class FractionCheck:
    """Outcome of the bounded first-letter search; None = indeterminate."""

    is_group: bool | None
    witness_powers: tuple[tuple[int, int], ...]  # (element, least power)
    unresolved: tuple[int, ...]
    max_power: int


def fraction_group_check(G: FiniteGroup, gamma: GammaSet,
                         max_power: int = DEFAULT_FRACTION_POWERS,
                         caps: Caps = DEFAULT_CAPS) -> FractionCheck:
    """Check that every gamma element heads some member of a stabiliser power.

    Success means every single-letter generator is invertible in the
    localised class monoid, i.e. the monoid of fractions is a group.  The
    search is bounded; exhaustion is indeterminate, not failure.
    """
    u = u_gamma(G, gamma)
    if u.sub != (1 << G.order) - 1:
        raise ValueError("gamma does not generate the group")
    L = get_lattice(G, caps)
    remaining = set(gamma.elements())
    witnesses: dict[int, int] = {}
    node = 0
    for n in range(1, max_power + 1):
        node = L.append_word(node, u.vector)
        heads = L.first_letters(node)
        for g in sorted(remaining):
            if (heads >> g) & 1:
                witnesses[g] = n
                remaining.discard(g)
        if not remaining:
            return FractionCheck(True, tuple(sorted(witnesses.items())), (), max_power)
    return FractionCheck(None, tuple(sorted(witnesses.items())),
                         tuple(sorted(remaining)), max_power)


def adj_word_equal(G: FiniteGroup, gamma: GammaSet, v: tuple[int, ...],
                   w: tuple[int, ...], window: int = DEFAULT_EQ_WINDOW,
                   confirm: int = DEFAULT_CONFIRM,
                   caps: Caps = DEFAULT_CAPS) -> StableEqResult:
    """Equality of generator words in the adjoint group of the conjugation
    quandle on gamma (relations e_a e_b = e_b e_{a^b}).

    Word equality there is exactly stable equivalence with the gamma
    stabiliser, provided the fraction monoid is a group (verified first).
    Unequal Nielsen images (in particular unequal lengths) are final
    mismatches since class counts are read off the abelianisation;
    `stable_equivalent` reports them with its own prefilters.
    """
    for t in (v, w):
        for x in t:
            if x not in gamma:
                raise ValueError(f"entry {x} lies outside gamma")
    checks = getattr(G, "_fraction_checks", None)
    if checks is None:
        checks = G._fraction_checks = {}
    hit = checks.get(gamma.bits)
    if hit is None:
        hit = checks[gamma.bits] = (fraction_group_check(G, gamma, caps=caps), u_gamma(G, gamma))
    fc, u = hit
    if fc.is_group is not True:
        raise ValueError("fraction monoid not verified to be a group; "
                         f"unresolved letters {fc.unresolved}")
    return stable_equivalent(G, v, w, u, window, confirm, caps)


# -- factorisation witness ----------------------------------------------------------


def factor_witness(G: FiniteGroup, w: tuple[int, ...], u: tuple[int, ...],
                   caps: Caps = DEFAULT_CAPS) -> tuple[int, ...] | None:
    """Find a generating v with w braid equivalent to v + u, if one exists."""
    L = get_lattice(G, caps)
    target = L.class_of(w)
    nu_w = nielsen(G, w)
    nu_u = nielsen(G, u)
    nu_v = tuple(a - b for a, b in zip(nu_w, nu_u))
    if any(c < 0 for c in nu_v):
        return None
    full = (1 << G.order) - 1
    for cand in L.classes_at(nu_v):
        if L.sub_bits(cand) != full:
            continue
        if L.append_word(cand, tuple(u)) == target:
            return L.canonical(cand)
    return None
