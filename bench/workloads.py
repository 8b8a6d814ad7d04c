"""The three benchmark workloads: set-up, operations, traced passes, checks.

Each workload is a closed loop with one caller.  A run sets up and then
repeats whole rounds of a fixed list of operations on the same inputs,
which the seed alone determines.  Windows, confirmations and caps are
passed explicitly everywhere, so a later change of the package's defaults
does not change the work measured.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable

import hurwitz as H
from hurwitz import cli

from oracles import LiftingInvariant, TableGroup
import spans as T

CAPS = H.Caps(orbit_states=10**8, fiber_tuples=10**8, lattice_nodes=2_000_000)
CAPS_ARG = "orbit=100000000,fiber=100000000,nodes=2000000"
CONFIRM = 2
ALL = "all-nontrivial"
A4_PAIR = ("(123)", "(132)")


class OpFailed(Exception):
    """The package gave no answer: an unexpected exit code or an indeterminate verdict."""


@dataclass
class Op:
    label: str
    run: Callable[[Any], Any]  # takes a tracer, returns the answer
    data: Any = None  # what the checks need to know about the inputs


def _rng(workload: str, seed: int, part: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{part}")


def _gamma(G, names) -> H.GammaSet:
    if names == ALL:
        return H.make_gamma(G, ALL)
    return H.make_gamma(G, [G.names.index(x) for x in names])


def _oracle_for(G) -> TableGroup:
    """Permutation groups are rebuilt from their element names; others use the table."""
    family, _, degree = G.label.partition(":")
    if family in ("sym", "alt"):
        return TableGroup.from_permutations(G.names, int(degree))
    return TableGroup(G.mul)


def _names(G, v) -> str:
    return "[" + ",".join(G.names[x] for x in v) + "]"


def _random_tuple(rng, members_by_class: dict[int, list[int]], nu) -> tuple[int, ...]:
    v = [rng.choice(members_by_class[c]) for c, k in enumerate(nu) for _ in range(k)]
    rng.shuffle(v)
    return tuple(v)


def _random_word(rng, length: int, moves: int) -> list[int]:
    return [rng.choice((1, -1)) * rng.randint(1, length - 1) for _ in range(moves)]


def _partner(rng, oracle: TableGroup, v, nu, same_lift, lift=None):
    """A fresh tuple of the same Nielsen type and evaluation as ``v``.

    With ``lift`` given, its lifting invariant equals v's iff ``same_lift``.
    """
    members = dict(enumerate(oracle.members))
    ev = oracle.evaluate(v)
    while True:
        w = _random_tuple(rng, members, nu)
        if w == v or oracle.evaluate(w) != ev:
            continue
        if lift is None or (lift.of(w) == lift.of(v)) == same_lift:
            return w


class Workload:
    """What a workload provides to the runner, with the common defaults."""

    name: str
    setup_every_round = True  # False when operations leave the state as they found it
    setups_at_start = 1  # set-ups timed before the first round; the last one is used
    fresh_process_per_op = False  # collect garbage after each operation, as a new process would

    def setup(self, seed: int, tr) -> dict:
        raise NotImplementedError

    def ops(self, state: dict) -> list[Op]:
        raise NotImplementedError

    def traced_ops(self, state: dict) -> list[Op]:
        return self.ops(state)

    def check(self, state: dict, op: Op, answer) -> list[str]:
        raise NotImplementedError

    def check_groups(self, state: dict) -> list[str]:
        return []

    @staticmethod
    def digest(op: Op, answer):
        """What is kept of an answer for the checks and for comparing rounds."""
        return answer

    @staticmethod
    def for_checks(state: dict) -> dict:
        """What the checks read of a set-up state, kept while later rounds run."""
        return state


# -- survey-cold -------------------------------------------------------------


@dataclass
class Command:
    key: str
    kind: str  # h2, h2-structure, stability, classes, stable-eq
    group: str
    gamma: Any  # ALL or a tuple of class representative names
    window: int | None = None
    nielsen: tuple[int, ...] | None = None
    expect_order: int | None = None
    left: tuple[int, ...] = ()
    right: tuple[int, ...] = ()
    expect_equal: bool | None = None
    heavy: bool = False  # traced pass only: a call outlasts the host's fast spells
    args: list[str] = field(default_factory=list)


class SurveyCold(Workload):
    """Configurations of the ROADMAP's CLI commands as in-process CLI calls.

    Each call loads its group afresh, so every answer builds its lattice
    from nothing.  A round is one call of each light configuration (at most
    about 35 ms each); the heavy ones (0.05 to 20 s each) run only in the
    traced pass, where quaternion:8 comes first so that its RSS growth is
    not hidden by memory freed by earlier calls.
    """

    name = "survey-cold"
    fresh_process_per_op = True  # garbage of one call is collected before the next

    def setup(self, seed: int, tr) -> dict:
        groups = {}
        for spec in ("quaternion:8", "sym:3", "cyclic:2xcyclic:2", "alt:4", "dihedral:4", "sym:4"):
            with tr.span("groups.load_group"):
                groups[spec] = H.load_group(spec)
        a4 = groups["alt:4"]
        oracle = TableGroup.from_permutations(a4.names, 4)
        lift = LiftingInvariant(a4.names)
        rng = _rng(self.name, seed, "stable-eq")
        nu = (0, 6, 6, 0)
        v = _random_tuple(rng, dict(enumerate(oracle.members)), nu)
        agree = _partner(rng, oracle, v, nu, True, lift)
        differ = _partner(rng, oracle, v, nu, False, lift)
        cmds = [
            Command("q8", "h2", "quaternion:8", ALL, 2, expect_order=1, heavy=True),
            Command("s3", "h2-structure", "sym:3", ALL, 2, expect_order=1),
            Command("s3-12", "h2-structure", "sym:3", ("(12)",), 2, expect_order=1),
            Command("v4", "h2-structure", "cyclic:2xcyclic:2", ALL, 2, expect_order=1),
            Command("a4", "h2-structure", "alt:4", ("(123)",), 2, expect_order=2),
            Command("a4-pair", "h2-structure", "alt:4", A4_PAIR, 2, expect_order=2, heavy=True),
            Command("d4", "h2-structure", "dihedral:4", ALL, 2, expect_order=1, heavy=True),
            Command("s3-stability", "stability", "sym:3", ALL, 4, expect_order=1, heavy=True),
            Command("a4-stability", "stability", "alt:4", ("(123)",), 3, expect_order=2),
            Command("s3-classes", "classes", "sym:3", ALL, nielsen=(0, 24, 24), heavy=True),
            Command("s3-classes-12", "classes", "sym:3", ALL, nielsen=(0, 12, 12)),
            Command("s4-classes", "classes", "sym:4", ALL, nielsen=(0, 3, 3, 3, 3), heavy=True),
            Command("a4-eq-agree", "stable-eq", "alt:4", A4_PAIR, 3, left=v, right=agree,
                    expect_equal=True),
            Command("a4-eq-differ", "stable-eq", "alt:4", A4_PAIR, 3, left=v, right=differ,
                    expect_equal=False, heavy=True),
        ]
        for c in cmds:
            c.args = self._argv(c, groups[c.group])
        return {"groups": groups, "cmds": cmds, "lift": lift}

    @staticmethod
    def _argv(c: Command, G) -> list[str]:
        command = {"h2-structure": "h2"}.get(c.kind, c.kind)
        argv = [command, "--group", c.group, "--gamma", c.gamma if c.gamma == ALL else ",".join(c.gamma),
                "--caps", CAPS_ARG, "--format", "jsonl"]
        if c.window is not None:
            argv += ["--window", str(c.window), "--confirm", str(CONFIRM)]
        if c.kind == "h2-structure":
            argv.append("--structure")
        if c.kind == "classes":
            argv += ["--nielsen", ",".join(map(str, c.nielsen)), "--method", "lattice"]
        if c.kind == "stable-eq":
            argv += ["--left", _names(G, c.left), "--right", _names(G, c.right),
                     "--stabilizer", "ugamma"]
        return argv

    def ops(self, state: dict) -> list[Op]:
        return [Op(c.key, self._cli_op(c), c) for c in state["cmds"] if not c.heavy]

    @staticmethod
    def _cli_op(c: Command):
        expected = (0, 1) if c.kind == "stable-eq" else (0,)

        def run(tr):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(c.args)
            if rc not in expected:
                raise OpFailed(f"exit code {rc}: {err.getvalue().strip()}")
            return _normalise(c, [json.loads(line) for line in out.getvalue().splitlines()])

        return run

    def traced_ops(self, state: dict) -> list[Op]:
        """The library calls each CLI command makes, one span per call."""
        return [Op(c.key, self._library_op(c), c) for c in state["cmds"]]

    @staticmethod
    def _library_op(c: Command):
        def run(tr):
            with tr.span("groups.load_group"):
                G = H.load_group(c.group)
            gamma = _gamma(G, c.gamma)
            L = H.get_lattice(G, CAPS)
            nodes = L.node_count
            if c.kind == "classes":
                with tr.span("lattice.classes_at", nodes):
                    L.classes_at(c.nielsen)
                with tr.span("lattice.enumerate_classes", nodes):
                    found = H.enumerate_classes(G, H.FiberSpec(nu=c.nielsen, gamma=gamma), CAPS, "lattice")
                return _normalise_classes(found)
            u = H.u_gamma(G, gamma)
            if c.kind == "stable-eq":
                with tr.span("lattice.class_of", nodes):
                    L.class_of(c.left)
                    L.class_of(c.right)
                with tr.span("stability.stable_equivalent", nodes):
                    res = H.stable_equivalent(G, c.left, c.right, u, c.window, CONFIRM, CAPS)
                if res.equivalent is None:
                    raise OpFailed("indeterminate stable-eq verdict")
                return res.equivalent
            # h2 and stability explore the levels (n + 1) * nu(u_gamma), n = 0..window
            for n in range(1, c.window + 2):
                with tr.span("lattice.classes_at", nodes):
                    L.classes_at(tuple(n * x for x in u.nu))
            with tr.span("stability.find_stability_bound", nodes):
                report = H.find_stability_bound(G, gamma, None, c.window, CONFIRM, CAPS)
            if c.kind == "stability":
                return _normalise(c, [*report.to_jsonable()["levels"], {"bound": report.bound}])
            with tr.span("homology.h2_order", nodes):
                h2 = H.h2_order(G, gamma, c.window, CONFIRM, caps=CAPS)
            record = h2.to_jsonable()
            if c.kind == "h2-structure":
                with tr.span("homology.torsor_group", nodes):
                    ctx = H.torsor_group(G, gamma, c.window, CONFIRM, CAPS)
                index = {el.node: i for i, el in enumerate(ctx.elements)}
                with tr.span("homology.torsor_compose", nodes) as sp:
                    table = [[index[H.torsor_compose(ctx, x, y).node] for y in ctx.elements]
                             for x in ctx.elements]
                    sp.work(len(ctx.elements) ** 2)
                with tr.span("homology.abelian_invariant_factors"):
                    factors = H.abelian_invariant_factors(
                        len(table), lambda a, b: table[a][b], index[ctx.base.node])
                record["structure"] = factors
            return _normalise(c, [record])

        return run

    def check(self, state: dict, op: Op, answer) -> list[str]:
        c: Command = op.data
        G = state["groups"][c.group]
        oracle = _oracle_for(G)
        if c.kind in ("h2", "h2-structure"):
            return _check_h2(c, G, oracle, answer, state["lift"])
        if c.kind == "stability":
            stable_count = c.expect_order * oracle.commutator_order()
            problems = []
            if answer["bound"] is None:
                return ["no stability bound"]
            for n, count, generating, bijective in answer["levels"]:
                if n >= answer["bound"] and generating != stable_count:
                    problems.append(f"level {n}: {generating} generating classes, theory says "
                                    f"|H| x |[G,G]| = {stable_count}")
                if answer["bound"] <= n < c.window and bijective is not True:
                    problems.append(f"level {n} past the bound is not bijective")
            return problems
        if c.kind == "classes":
            return _check_classes(oracle, c.nielsen, None, answer, exhaustive=False)
        lift = state["lift"]
        want = lift.of(c.left) == lift.of(c.right)
        if want != c.expect_equal:
            return ["stable-eq inputs do not have the intended lifting invariants"]
        if answer != want:
            return [f"stable-eq verdict {answer} but the lifting invariants "
                    f"{'agree' if want else 'differ'}"]
        return []

    def layer_metrics(self, spans: list[dict], cli_times: dict, rss_growth: float) -> dict:
        """``cli_times`` maps the label of each command run through the CLI,
        untraced, to its seconds; the CLI overhead is taken over those."""
        by_op: dict[str, list[dict]] = {}
        for s in spans:
            by_op.setdefault(s["op"], []).append(s)
        lattice_spans = [s for s in spans if s["name"].startswith("lattice.")]
        build_s = sum(T.duration(s) for s in lattice_spans)
        built = sum(s["nodes_after"] - s["nodes_before"] for s in lattice_spans)
        final_nodes = {op: max(s["nodes_after"] or 0 for s in ss) for op, ss in by_op.items()}
        roots = [s for s in spans if s["parent"] is None and s["op"] in cli_times]
        out = {
            "lattice.build_s": build_s,
            "lattice.nodes": sum(final_nodes.values()),
            "lattice.nodes_per_s": built / build_s,
            "lattice.bytes_per_node": rss_growth / final_nodes["q8"],
            "stability.bound_s": T.total(spans, "stability.find_stability_bound"),
            "homology.order_s": T.total(spans, "homology.h2_order"),
            "homology.torsor_s": sum(T.total(spans, n) for n in (
                "homology.torsor_group", "homology.torsor_compose",
                "homology.abelian_invariant_factors")),
            "homology.compose_calls": T.work(spans, "homology.torsor_compose"),
            "cli.overhead_s": sum(t for ts in cli_times.values() for t in ts)
                              - sum(T.duration(s) for s in roots),
        }
        for key in ("q8", "d4", "a4-pair"):
            out[f"lattice.nodes.{key}"] = final_nodes[key]
            out[f"lattice.build_s.{key}"] = sum(
                T.duration(s) for s in by_op[key] if s["name"].startswith("lattice."))
        return out


def _normalise(c: Command, records: list[dict]):
    """Reduce CLI output (or the same fields from the library) to what the checks read."""
    if c.kind in ("h2", "h2-structure"):
        r = records[-1]
        return {k: r[k] for k in ("order", "structure", "stable_level", "cross_checks",
                                  "commutator_order", "slice_counts")}
    if c.kind == "stability":
        return {"levels": [(r["n"], r["count"], r["generating_count"], r["bijective"])
                           for r in records[:-1]],
                "bound": records[-1]["bound"]}
    if c.kind == "classes":
        rows = [r for r in records if "canonical" in r]
        if records[-1]["total_classes"] != len(rows):
            raise OpFailed("total_classes disagrees with the listed classes")
        return [(tuple(r["canonical"]), r["size"], r["ev"], tuple(r["nu"]), r["subgroup_order"])
                for r in rows]
    return records[-1]["verdict"] == "true"


def _normalise_classes(found) -> list:
    return [(cl.canonical, cl.size, cl.ev, cl.nu, cl.subgroup.size) for cl in found]


def _check_h2(c: Command, G, oracle: TableGroup, r: dict, lift) -> list[str]:
    problems = []
    comm = oracle.commutator_order()
    order = c.expect_order
    if r["order"] != order:
        problems.append(f"order {r['order']}, theory says {order}")
    if r["commutator_order"] != comm:
        problems.append(f"|[G,G]| reported {r['commutator_order']}, computed {comm}")
    slices = dict((ev, n) for ev, n in r["slice_counts"])
    if sum(slices.values()) != order * comm or len(slices) != comm:
        problems.append(f"stable generating count {sum(slices.values())} over {len(slices)} "
                        f"slices, expected {order} x {comm}")
    for level, count in r["cross_checks"]:
        if count != order * comm:
            problems.append(f"cross-check level {level}: {count} classes, expected {order * comm}")
    if c.kind == "h2-structure":
        want = [] if order == 1 else [order]
        if r["structure"] != want:
            problems.append(f"structure {r['structure']}, expected {want}")
    if c.group == "alt:4":
        problems += _lift_certificate(c, r["stable_level"], order, lift)
    return problems


def _lift_certificate(c: Command, level, order: int, lift) -> list[str]:
    """At the stable level, each evaluation slice of generating classes must
    hold ``order`` classes on which the SL(2,3) lifting invariant takes both
    values."""
    G = H.load_group(c.group)
    spec = H.FiberSpec(nu=tuple(level), gamma=_gamma(G, c.gamma), generated=G.full_mask())
    oracle = _oracle_for(G)
    slices: dict[int, list] = {}
    for cl in H.enumerate_classes(G, spec, CAPS, "lattice"):
        slices.setdefault(oracle.evaluate(cl.canonical), []).append(lift.of(cl.canonical))
    problems = []
    for ev, lifts in sorted(slices.items()):
        if len(lifts) != order or len(set(lifts)) != 2:
            problems.append(f"slice ev={ev} at {level}: {len(lifts)} classes, "
                            f"{len(set(lifts))} lifting invariants")
    return problems


def _check_classes(oracle: TableGroup, nu, ev, rows, exhaustive: bool) -> list[str]:
    """Orbit sizes summed per evaluation must equal the tuple count.

    With ``exhaustive``, each class is also re-expanded by the oracle's own
    BFS: its size and least member must match.
    """
    problems = []
    counts = oracle.tuple_counts(nu)
    per_ev = [0] * oracle.n
    for canonical, size, cl_ev, cl_nu, sub_order in rows:
        per_ev[cl_ev] += size
        if oracle.nielsen(canonical) != tuple(nu) or cl_nu != tuple(nu):
            problems.append(f"class {canonical} has the wrong Nielsen type")
        if oracle.evaluate(canonical) != cl_ev:
            problems.append(f"class {canonical} reports evaluation {cl_ev}")
        if len(oracle.subgroup(canonical)) != sub_order:
            problems.append(f"class {canonical} reports subgroup order {sub_order}")
        if exhaustive:
            members = oracle.orbit(canonical)
            if len(members) != size or min(members) != canonical:
                problems.append(f"class {canonical}: size {size} and least member disagree "
                                f"with the oracle's orbit of {len(members)}")
    if len({r[0] for r in rows}) != len(rows):
        problems.append("a class is listed twice")
    evs = range(oracle.n) if ev is None else [ev]
    for g in evs:
        if per_ev[g] != counts[g]:
            problems.append(f"nu={nu} ev={g}: orbit sizes sum to {per_ev[g]}, "
                            f"tuple count is {counts[g]}")
    return problems


# -- query-warm ----------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    kind: str  # lookup, braid, stable
    group: str  # a4 or s3
    v: tuple[int, ...]
    w: tuple[int, ...] = ()
    expect: bool | None = None


class QueryWarm(Workload):
    """Seeded batches of warm queries on lattices grown to the stable level.

    The stable-eq pairs whose lifting invariants differ need injectivity
    checks at levels beyond the stable level; they cycle through four fixed
    Nielsen types.  Set-up grows the lattices to the stable level and then
    answers the whole stream once, which builds those levels, so every
    timed query is a memo hit and rounds share one set-up.
    """

    name = "query-warm"
    setup_every_round = False  # the warm pass built every level the stream touches
    setups_at_start = 3
    batches = 30
    # sets of 10 queries per batch: a batch of one set (0.4 ms) timed less
    # steadily across runs than one of four (about 2 ms) or of eight
    sets_per_batch = 4
    window = 3  # stable_equivalent window; the CLI and library defaults differ
    warm_window = 2
    a4_stable_levels = [(0, 6, 6, 0), (0, 10, 10, 0), (0, 7, 11, 0), (0, 16, 14, 0)]

    def setup(self, seed: int, tr) -> dict:
        lib, oracles = {}, {}
        for key, spec, gamma_names in (("a4", "alt:4", A4_PAIR), ("s3", "sym:3", ALL)):
            with tr.span("groups.load_group"):
                G = H.load_group(spec)
            gamma = _gamma(G, gamma_names)
            L = H.get_lattice(G, CAPS)
            with tr.span("stability.find_stability_bound", L.node_count):
                H.find_stability_bound(G, gamma, None, self.warm_window, CONFIRM, CAPS)
            lib[key] = (G, L, H.u_gamma(G, gamma))
            oracles[key] = _oracle_for(G)
        state = {"lib": lib, "oracles": oracles, "lift": LiftingInvariant(lib["a4"][0].names)}
        state["stream"] = self._stream(seed, state)
        lattices = [L for _, L, _ in lib.values()]
        with tr.span("lattice.warm_queries", lambda: sum(L.node_count() for L in lattices)):
            for batch in state["stream"]:
                self._batch_op(state, batch)(tr)
        return state

    @staticmethod
    def for_checks(state: dict) -> dict:
        # drops the groups and their lattices
        return {"oracles": state["oracles"], "lift": state["lift"]}

    def _stream(self, seed: int, state: dict) -> list[list[Query]]:
        rng = _rng(self.name, seed, "stream")
        # Nielsen types do not depend on the seed, so neither does the cost
        # profile of the batches; the seed picks the tuples
        shapes = random.Random(f"{self.name}:nielsen-types")
        lift = state["lift"]
        batches = []
        for b in range(self.batches):
            batch = []
            for key in ("a4", "s3") * self.sets_per_batch:
                oracle = state["oracles"][key]
                members = dict(enumerate(oracle.members))

                def level():
                    n = shapes.randint(12, 40)
                    a = shapes.randint(0, n)
                    return (0, a, n - a) + ((0,) if key == "a4" else ())

                for _ in range(2):
                    batch.append(Query("lookup", key, _random_tuple(rng, members, level())))
                v = _random_tuple(rng, members, level())
                batch.append(Query("braid", key, v, oracle.apply_word(v, _random_word(rng, len(v), 30)), True))
                if key == "a4":
                    nu = level()
                    v = _random_tuple(rng, members, nu)
                    batch.append(Query("braid", key, v, _partner(rng, oracle, v, nu, False, lift), False))
                    nu = self.a4_stable_levels[b % len(self.a4_stable_levels)]
                    for same in (True, False):
                        v = _random_tuple(rng, members, nu)
                        batch.append(Query("stable", key, v, _partner(rng, oracle, v, nu, same, lift), same))
                else:
                    nu = level()
                    v = _random_tuple(rng, members, nu)
                    batch.append(Query("stable", key, v, _partner(rng, oracle, v, nu, True), True))
            batches.append(batch)
        return batches

    def ops(self, state: dict) -> list[Op]:
        return [Op(f"batch{i}", self._batch_op(state, batch), batch)
                for i, batch in enumerate(state["stream"])]

    def _batch_op(self, state: dict, batch: list[Query]):
        window = self.window

        def run(tr):
            out = []
            for q in batch:
                G, L, u = state["lib"][q.group]
                if q.kind == "lookup":
                    with tr.span("lattice.class_of", L.node_count):
                        out.append(L.orbit_class(L.class_of(q.v)))
                elif q.kind == "braid":
                    with tr.span("braid.braid_equivalent", L.node_count):
                        out.append(H.braid_equivalent(G, q.v, q.w, "lattice", CAPS))
                else:
                    with tr.span("stability.stable_equivalent", L.node_count):
                        res = H.stable_equivalent(G, q.v, q.w, u, window, CONFIRM, CAPS)
                    if res.equivalent is None:
                        raise OpFailed("indeterminate stable-eq verdict")
                    out.append(res.equivalent)
            return out

        return run

    def check(self, state: dict, op: Op, answer) -> list[str]:
        problems = []
        lift = state["lift"]
        for q, got in zip(op.data, answer):
            oracle = state["oracles"][q.group]
            if q.kind != "lookup":
                if got != q.expect:
                    problems.append(f"{q.kind} on {q.group} gave {got}, expected {q.expect}")
                continue
            if (got.nu != oracle.nielsen(q.v) or got.ev != oracle.evaluate(q.v)
                    or got.canonical > q.v
                    or set(got.subgroup.elements()) != oracle.subgroup(q.v)
                    or oracle.evaluate(got.canonical) != got.ev
                    or (q.group == "a4" and lift.of(got.canonical) != lift.of(q.v))):
                problems.append(f"lookup on {q.group} of {q.v} gave inconsistent class {got}")
        return problems

    def layer_metrics(self, spans: list[dict]) -> dict:
        stream = [s for s in spans if s["op"] is not None]
        return {
            "lattice.query_s": T.total(stream, "lattice.class_of"),
            "lattice.query_nodes": sum(s["nodes_after"] - s["nodes_before"] for s in spans
                                       if s["name"] == "lattice.warm_queries"),
            "stability.stable_eq_s": T.total(stream, "stability.stable_equivalent"),
            "stability.stable_eq_calls": T.count(stream, "stability.stable_equivalent"),
        }


# -- raw-oracle ----------------------------------------------------------------

# Base tuples; each round expands one seeded member of a conjugate of each
# base orbit, so the orbit sizes (and the work) do not depend on the seed.
S4_ORBITS = [  # orbit sizes 1,152 to 3,840
    ("(143)", "(142)", "(143)", "(234)", "(123)"),
    ("(1432)", "(1243)", "(1432)", "(1234)", "(14)(23)"),
    ("(243)", "(134)", "(14)(23)", "(134)", "(132)"),
    ("(12)", "(13)", "(142)", "(1234)"),
    ("(23)", "(124)", "(143)", "(1423)"),
    ("(14)(23)", "(1324)", "(134)", "(123)"),
]
A6_ORBITS = [  # orbit sizes 1,080 to 2,160
    ("(12653)", "(24563)", "(13)(25)"),
    ("(1564)(23)", "(14365)", "(14362)"),
    ("(23)(56)", "(14236)", "(1524)(36)"),
    ("(12)(56)", "(14)(2653)", "(12463)"),
    ("(1645)(23)", "(265)", "(12543)"),
]
# (Nielsen type, representative of the evaluation's class); the seed picks
# the evaluation within the class, and conjugate fibers are equally large.
S4_FIBERS = [((0, 2, 2, 0, 0), "(234)"), ((0, 3, 0, 0, 1), "(12)(34)")]


def _orbit_digest(members) -> tuple[int, int]:
    # tuples of ints hash the same in every process, and hashing the set
    # needs no sort, so it stays cheap next to the expansion it checks
    return len(members), hash(frozenset(members))


class RawOracle(Workload):
    """Group construction plus the brute-force reference path, no lattice."""

    name = "raw-oracle"
    setup_every_round = False  # raw expansions cache nothing, so rounds share one set-up
    setups_at_start = 3
    moves = 40
    subgroup_samples = 16

    def setup(self, seed: int, tr) -> dict:
        state = {}
        for key, spec, degree in (("s4", "sym:4", 4), ("a6", "alt:6", 6)):
            with tr.span("groups.build_builtin"):
                G = H.build_builtin(spec)
            with tr.span("groups.derived"):
                G.conj_table, G.classes, G.element_orders
            state[key] = (G, TableGroup.from_permutations(G.names, degree))
        rng = _rng(self.name, seed, "inputs")
        orbits = []
        for key, bases in (("s4", S4_ORBITS), ("a6", A6_ORBITS)):
            G, oracle = state[key]
            for base in bases:
                v0 = tuple(G.names.index(x) for x in base)
                h = rng.randrange(G.order)
                v = oracle.apply_word(v0, _random_word(rng, len(v0), self.moves))
                orbits.append((key, tuple(oracle.conj[x][h] for x in v)))
        G, oracle = state["s4"]
        fibers = []
        for nu, rep in S4_FIBERS:
            ev = rng.choice(oracle.members[oracle.class_of[G.names.index(rep)]])
            fibers.append((nu, ev))
        state["orbits"], state["fibers"] = orbits, fibers
        return state

    def ops(self, state: dict) -> list[Op]:
        ops = [Op(f"orbit{i}-{key}-len{len(v)}", self._orbit_op(state[key][0], v), (key, v))
               for i, (key, v) in enumerate(state["orbits"])]
        G = state["s4"][0]
        gamma = H.make_gamma(G, ALL)
        ops += [Op(f"direct{i}-s4-nu{''.join(map(str, nu))}",
                   self._direct_op(G, H.FiberSpec(nu=nu, gamma=gamma, ev=ev)), (nu, ev))
                for i, (nu, ev) in enumerate(state["fibers"])]
        return ops

    @staticmethod
    def _orbit_op(G, v):
        def run(tr):
            with tr.span("braid.orbit_members") as sp:
                members = H.orbit_members(G, v, CAPS.orbit_states)
                sp.work(len(members))
            return members

        return run

    @staticmethod
    def _direct_op(G, spec):
        def run(tr):
            with tr.span("braid.enumerate_direct") as sp:
                found = H.enumerate_classes(G, spec, CAPS, "direct")
                sp.work(sum(cl.size for cl in found))
            return _normalise_classes(found)

        return run

    @staticmethod
    def digest(op: Op, answer):
        return _orbit_digest(answer) if op.label.startswith("orbit") else answer

    def check(self, state: dict, op: Op, answer) -> list[str]:
        if op.label.startswith("direct"):
            nu, ev = op.data
            return _check_classes(state["s4"][1], nu, ev, answer, exhaustive=True)
        key, v = op.data
        oracle = state[key][1]
        members = oracle.orbit(v)
        problems = []
        if _orbit_digest(members) != answer:
            problems.append(f"orbit of {v}: {answer[0]} members, the oracle's BFS finds {len(members)}")
        ev, nu, sub = oracle.evaluate(v), oracle.nielsen(v), oracle.subgroup(v)
        for t in members:
            if oracle.evaluate(t) != ev or oracle.nielsen(t) != nu or not sub.issuperset(t):
                problems.append(f"orbit of {v} holds {t} with other invariants")
                break
        # a subgroup closure per member would dominate the run; a fixed sample
        # of members must generate the same subgroup
        for t in sorted(members)[::max(1, len(members) // self.subgroup_samples)]:
            if oracle.subgroup(t) != sub:
                problems.append(f"orbit of {v} holds {t}, which generates another subgroup")
                break
        return problems

    def check_groups(self, state: dict) -> list[str]:
        problems = []
        for key in ("s4", "a6"):
            G, oracle = state[key]
            if G.mul != oracle.mul or list(G.classes.class_of) != oracle.class_of \
                    or G.conj_table != oracle.conj:
                problems.append(f"{G.label}: table, conjugation or classes differ from the oracle's")
        return problems

    def layer_metrics(self, spans: list[dict]) -> dict:
        orbit_s = T.total(spans, "braid.orbit_members")
        states = T.work(spans, "braid.orbit_members")
        return {
            "groups.build_s": T.total(spans, "groups.build_builtin"),
            "groups.derived_s": T.total(spans, "groups.derived"),
            "braid.orbit_s": orbit_s,
            "braid.orbit_states": states,
            "braid.states_per_s": states / orbit_s,
            "braid.direct_s": T.total(spans, "braid.enumerate_direct"),
            "braid.direct_tuples": T.work(spans, "braid.enumerate_direct"),
        }


WORKLOADS = {w.name: w for w in (SurveyCold(), QueryWarm(), RawOracle())}
