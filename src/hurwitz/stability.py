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

A lattice keeps each stabiliser's append map (`OrbitLattice.shift` for
one class, `shift_level` for the domain classes of a level), so a repeated
verdict or search reads it by lookup instead of folding the stabiliser
again.  Its memory grows with the number of stabiliser words times the
classes each has shifted; only completed folds are stored, so a
`CapExceeded` leaves nothing behind and answers do not depend on history.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import Caps, DEFAULT_CAPS, _check_counts, _check_entries, evaluate, nielsen
from .groups import FiniteGroup, GammaSet, subgroup_closure
from .lattice import OrbitLattice, get_lattice

DEFAULT_WINDOW = 4
DEFAULT_EQ_WINDOW = DEFAULT_WINDOW * 2
DEFAULT_CONFIRM = 2


@dataclass(frozen=True)
class Stabilizer:
    """A stabilising vector with its cached invariants."""

    vector: tuple[int, ...]
    nu: tuple[int, ...]
    ev: int
    sub: int  # bits of the subgroup the vector generates


def make_stabilizer(G: FiniteGroup, vector: tuple[int, ...]) -> Stabilizer:
    """``vector`` with its invariants; ValueError if an entry is no element index."""
    _check_entries(vector, G.order)
    return Stabilizer(tuple(vector), nielsen(G, vector), evaluate(G, vector),
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
    assert st.ev == 0
    return st


def _generating_u_gamma(G: FiniteGroup, gamma: GammaSet) -> Stabilizer:
    """`u_gamma`, or ValueError if gamma does not generate the group."""
    u = u_gamma(G, gamma)
    if u.sub != (1 << G.order) - 1:
        raise ValueError("gamma does not generate the group")
    return u


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
        return _jsonable(self)


def _jsonable(value):
    """A report as JSON values: dataclasses as dicts of their fields, tuples
    as lists, recursively, so that it equals its own JSON round trip."""
    if isinstance(value, tuple):
        return [_jsonable(x) for x in value]
    if hasattr(value, "__dataclass_fields__"):
        return {k: _jsonable(x) for k, x in vars(value).items()}
    return value


def _add_nu(a: tuple[int, ...], b: tuple[int, ...], times: int) -> tuple[int, ...]:
    return tuple(x + times * y for x, y in zip(a, b))


def find_stability_bound(G: FiniteGroup, gamma: GammaSet,
                         nu0: tuple[int, ...] | None = None,
                         window: int = DEFAULT_WINDOW,
                         confirm: int = DEFAULT_CONFIRM,
                         caps: Caps = DEFAULT_CAPS) -> StabilityReport:
    """Explore levels nu0 + n * nu(u_gamma) and find where appends biject.

    Counts cover all classes at each level; the append maps are judged on
    the classes generating the whole group (appending u_gamma lands there
    regardless, since gamma generates).  ``bound`` is the least explored n
    from which every further explored map is bijective; ``confident`` marks
    at least ``confirm`` bijective maps closing the window.  Raises
    ValueError, before building anything, if gamma does not generate or
    ``nu0`` does not have one entry per conjugacy class, each a
    non-negative int.
    """
    _check_window(window, confirm)
    u = _generating_u_gamma(G, gamma)
    if nu0 is None:
        nu0 = u.nu
    elif len(nu0) != G.classes.count:
        raise ValueError(f"nu0 has {len(nu0)} entries, expected one per "
                         f"conjugacy class: {G.classes.count}")
    _check_counts(nu0, "nu0")
    return _search_rounds(G, get_lattice(G, caps), tuple(nu0), [u], window, confirm)


def _check_window(window: int, confirm: int) -> None:
    if confirm < 0:
        raise ValueError(f"confirm must be non-negative, got {confirm}")
    if window < 0:
        raise ValueError(f"window must be non-negative, got {window}")


def _search_rounds(G: FiniteGroup, L: OrbitLattice, nu0: tuple[int, ...],
                   steps: list[Stabilizer], window: int, confirm: int) -> StabilityReport:
    """Explore rounds nu0 + n * step, n = 0..window, where step is the sum
    of the steps' Nielsen types, and find where every step bijects.

    Round n's maps append each step to the generating classes at its level;
    the round is bijective when each map is a bijection onto the generating
    classes at the level plus that step's type.  ``bound`` and
    ``confident`` are read off the rounds as `find_stability_bound`
    describes; the caller checks ``window`` and ``confirm`` and fetches
    ``L``, G's lattice, with its caps.
    """
    step = tuple(map(sum, zip(*(s.nu for s in steps))))
    if window < 1:
        return StabilityReport(nu0, step, window, confirm, (), None, False,
                               error="window must cover at least one append map")
    full = (1 << G.order) - 1

    generating: dict[tuple[int, ...], set[int]] = {}

    def generating_at(nu):
        if nu not in generating:
            generating[nu] = {x for x in L.classes_at(nu) if L.sub_bits(x) == full}
        return generating[nu]

    rounds = [_add_nu(nu0, step, n) for n in range(window + 1)]
    counts = [(len(L.classes_at(nu)), len(generating_at(nu))) for nu in rounds]
    flags: list[tuple[bool, bool]] = []
    for nu in rounds[:-1]:
        injective = surjective = True
        for s in steps:
            # the domain is the generating classes, whatever the step generates
            _, images = L.shift_level(nu, s.vector, full)
            injective &= len(set(images)) == len(images)
            surjective &= set(images) == generating_at(_add_nu(nu, s.nu, 1))
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
            nu=rounds[n],
            count=counts[n][0],
            generating_count=counts[n][1],
            injective=inj,
            surjective=sur,
            bijective=(None if inj is None else inj and sur),
        ))
    confident = bound is not None and (window - bound) >= confirm
    error = None if bound is not None else "no bijective tail within explored window"
    return StabilityReport(nu0, step, window, confirm, tuple(levels), bound, confident, error)


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

    Both tuples are first looked up (`OrbitLattice.find`, one index probe
    for a tuple identified before), which raises ValueError if either holds
    an entry that is no element index.  Nielsen type and evaluation are
    append-invariant obstructions, so a mismatch is an immediate, final
    "false": when both classes are built they are read off the nodes,
    otherwise off the tuples, before any node is built.  A class still
    unbuilt is then built from the braid-sorted tuple
    (`OrbitLattice._identify`), and copies of ``u`` are appended; equality
    at any level settles "true".  A "false" is emitted only once the
    explored appends past the divergence are all injective on the enclosing
    class sets (with ``confirm`` such levels), mirroring the empirical
    stability bound; otherwise the result is indeterminate.
    """
    _check_window(window, confirm)
    L = get_lattice(G, caps)
    node_v = L.find(v)
    node_w = L.find(w)
    if node_v >= 0 and node_w >= 0:
        # both classes are built, and each node stores its invariants
        base_nu, ev_v = L.level(node_v), L.ev(node_v)
        nu_w, ev_w = L.level(node_w), L.ev(node_w)
    else:
        base_nu, ev_v = nielsen(G, v), evaluate(G, v)
        nu_w, ev_w = nielsen(G, w), evaluate(G, w)
    if base_nu != nu_w:
        return StableEqResult(False, 0, "nielsen-type mismatch", window)
    if ev_v != ev_w:
        return StableEqResult(False, 0, "evaluation mismatch", window)
    if node_v < 0:
        node_v = L._identify(v)
    if node_w < 0:
        node_w = L._identify(w)
    if node_v == node_w:
        return StableEqResult(True, 0, "braid equivalent", window)
    for level in range(1, window + 1):
        node_v = L.shift(node_v, u.vector)
        node_w = L.shift(node_w, u.vector)
        if node_v == node_w:
            return StableEqResult(True, level, f"equivalent after {level} appends", window)
    # no equality anywhere in the window: look for an injective tail
    injective_from: int | None = None
    for step in range(window - 1, 0, -1):
        domain, images = L.shift_level(_add_nu(base_nu, u.nu, step), u.vector, u.sub)
        if len(set(images)) == len(domain):
            injective_from = step
        else:
            break
    if injective_from is not None and (window - injective_from) >= confirm:
        return StableEqResult(
            False, injective_from,
            f"distinct at level {injective_from} and all {window - injective_from} "
            "further explored appends are injective", window)
    return StableEqResult(None, None, "window exhausted without a stable verdict", window)


# -- adjoint words -------------------------------------------------------------------


def adj_word_equal(G: FiniteGroup, gamma: GammaSet, v: tuple[int, ...],
                   w: tuple[int, ...], window: int = DEFAULT_EQ_WINDOW,
                   confirm: int = DEFAULT_CONFIRM,
                   caps: Caps = DEFAULT_CAPS) -> StableEqResult:
    """Equality of generator words in the adjoint group of the conjugation
    quandle on gamma (relations e_a e_b = e_b e_{a^b}).

    Word equality there is exactly stable equivalence with the gamma
    stabiliser, provided the monoid of fractions is a group.  It is one for
    every generating gamma: each g in gamma is an entry of u_gamma, and
    `sigma` moves an entry one place left unchanged, so u_gamma braids to a
    tuple that starts with g.  A gamma that does not generate raises
    ValueError.  Unequal Nielsen images (in particular unequal lengths) are
    final mismatches since class counts are read off the abelianisation;
    `stable_equivalent` reports them with its own prefilters.  An entry
    that is no element index raises ValueError before the gamma check.
    """
    for t in (v, w):
        _check_entries(t, G.order)
        for x in t:
            if x not in gamma:
                raise ValueError(f"entry {x} lies outside gamma")
    return stable_equivalent(G, v, w, _generating_u_gamma(G, gamma), window, confirm, caps)


# -- factorisation witness ----------------------------------------------------------


def factor_witness(G: FiniteGroup, w: tuple[int, ...], u: tuple[int, ...],
                   caps: Caps = DEFAULT_CAPS) -> tuple[int, ...] | None:
    """Find a generating v with w braid equivalent to v + u, if one exists.

    Returns the least canonical representative among the witnesses.
    Raises ValueError, before building anything, if ``w`` or ``u`` holds an
    entry that is no element index; returns None, building nothing, if u
    has more entries of some class than w.
    """
    for t in (w, u):
        _check_entries(t, G.order)
    nu_v = tuple(a - b for a, b in zip(nielsen(G, w), nielsen(G, u)))
    if any(c < 0 for c in nu_v):
        return None
    L = get_lattice(G, caps)
    target = L.class_of(w)
    full = (1 << G.order) - 1
    witnesses = [L.canonical(cand) for cand in L.classes_at(nu_v)
                 if L.sub_bits(cand) == full and L.shift(cand, tuple(u)) == target]
    return min(witnesses, default=None)
