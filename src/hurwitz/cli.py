"""Command-line surface: orbit, classes, stability, h2, stable-eq.

Exit codes: 0 success (or verdict "true"), 1 verdict "false", 2 usage or
parse error, 3 indeterminate outcome or an exceeded cap.  JSONL output is
byte-deterministic for a fixed configuration; pretty tables are for humans
and carry no such guarantee.
"""

from __future__ import annotations

import argparse
import json
import sys

from .braid import (Caps, DEFAULT_CAPS, FiberSpec, _split_top_level, enumerate_classes,
                    format_tuple, orbit, orbit_members, parse_tuple)
from .errors import CapExceeded, HomologyError, HurwitzError, ParseError
from .groups import FiniteGroup, GammaSet, load_group, make_gamma
from .homology import h2_order, h2_structure
from .stability import (
    DEFAULT_CONFIRM,
    DEFAULT_EQ_WINDOW,
    DEFAULT_WINDOW,
    find_stability_bound,
    make_stabilizer,
    stable_equivalent,
    u_gamma,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_INDETERMINATE = 3


# -- argument parsing helpers -------------------------------------------------


def _parse_element(G: FiniteGroup, text: str) -> int:
    tok = text.strip()
    if G.names is not None and tok in G.names:
        return G.names.index(tok)
    try:
        x = int(tok)
    except ValueError:
        raise ParseError(f"unknown element {tok!r}") from None
    if not 0 <= x < G.order:
        raise ParseError(f"element index {x} out of range [0, {G.order})")
    return x


def _parse_gamma(G: FiniteGroup, text: str) -> GammaSet:
    if text.strip() == "all-nontrivial":
        return make_gamma(G, "all-nontrivial")
    reps = [_parse_element(G, tok) for tok, _ in _split_top_level(text, 0) if tok.strip()]
    if not reps:
        raise ParseError("empty gamma spec")
    return make_gamma(G, reps)


def _parse_nielsen(G: FiniteGroup, text: str) -> tuple[int, ...]:
    k = G.classes.count
    counts = [0] * k
    raw = text.strip()
    if not raw:
        return tuple(counts)
    if ":" in raw:
        for part in raw.split(","):
            tok = part.strip()
            if not tok:
                continue
            name, _, value = tok.partition(":")
            if not name.startswith("c"):
                raise ParseError(f"bad nielsen entry {tok!r}; expected cID:count")
            try:
                cid = int(name[1:])
                cnt = int(value)
            except ValueError:
                raise ParseError(f"bad nielsen entry {tok!r}") from None
            if not 0 <= cid < k:
                raise ParseError(f"class id {cid} out of range [0, {k})")
            counts[cid] = cnt
        return tuple(counts)
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != k:
        raise ParseError(f"nielsen vector has {len(parts)} entries, group has {k} classes")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ParseError(f"bad nielsen vector {raw!r}") from None


def _parse_caps(text: str | None) -> Caps:
    if not text:
        return DEFAULT_CAPS
    values = {}
    for part in text.split(","):
        tok = part.strip()
        if not tok:
            continue
        name, _, value = tok.partition("=")
        try:
            values[name.strip()] = int(value)
        except ValueError:
            raise ParseError(f"bad caps entry {tok!r}; expected name=integer") from None
    known = {"orbit": "orbit_states", "fiber": "fiber_tuples", "nodes": "lattice_nodes"}
    kwargs = {}
    for name, val in values.items():
        if name not in known:
            raise ParseError(f"unknown cap {name!r}; expected orbit/fiber/nodes")
        kwargs[known[name]] = val
    return Caps(**{**DEFAULT_CAPS.__dict__, **kwargs})


# -- output -------------------------------------------------------------------


def _emit(records: list[dict], fmt: str, out) -> None:
    if fmt == "jsonl":
        for rec in records:
            out.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
        return
    if fmt == "tsv":
        keys = sorted({k for rec in records for k in rec})
        out.write("\t".join(keys) + "\n")
        for rec in records:
            out.write("\t".join(_cell(rec.get(k)) for k in keys) + "\n")
        return
    # pretty: aligned key/value blocks, one per record
    for rec in records:
        for k in sorted(rec):
            out.write(f"  {k:<18} {_cell(rec[k])}\n")
        out.write("\n")


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, (list, tuple)):
        return json.dumps(value, separators=(",", ":"))
    return str(value)


def _class_record(G: FiniteGroup, cls) -> dict:
    rec = {
        "canonical": list(cls.canonical),
        "size": cls.size,
        "ev": cls.ev,
        "nu": list(cls.nu),
        "subgroup_order": cls.subgroup.size,
    }
    if G.names is not None:
        rec["canonical_names"] = format_tuple(G, cls.canonical)
        rec["ev_name"] = G.names[cls.ev]
    return rec


# -- commands -------------------------------------------------------------------


def _cmd_orbit(args, caps: Caps) -> int:
    G = load_group(args.group)
    v = parse_tuple(G, args.tuple)
    cls = orbit(G, v, caps.orbit_states)
    records = [_class_record(G, cls)]
    if args.members:
        for member in sorted(orbit_members(G, v, caps.orbit_states)):
            records.append({"member": list(member)})
    _emit(records, args.format, sys.stdout)
    return EXIT_OK


def _build_fiber_spec(G: FiniteGroup, args, gamma: GammaSet, nu_text: str) -> FiberSpec:
    nu = _parse_nielsen(G, nu_text)
    ev = _parse_element(G, args.ev) if args.ev is not None else None
    generated = G.full_mask() if args.generating else None
    spec = FiberSpec(nu=nu, gamma=gamma, ev=ev, generated=generated)
    spec.validate(G)
    return spec


def _cmd_classes(args, caps: Caps) -> int:
    G = load_group(args.group)
    if args.gamma is None:
        raise ParseError("--gamma is required for classes")
    gamma = _parse_gamma(G, args.gamma)
    specs = [_build_fiber_spec(G, args, gamma, text) for text in args.nielsen]
    records = []
    for spec in specs:
        classes = enumerate_classes(G, spec, caps, args.method)
        for cls in classes:
            records.append(_class_record(G, cls))
        records.append({
            "fiber": spec.key(),
            "group": G.label,
            "total_classes": len(classes),
        })
    _emit(records, args.format, sys.stdout)
    return EXIT_OK


def _cmd_stability(args, caps: Caps) -> int:
    G = load_group(args.group)
    if args.gamma is None:
        raise ParseError("--gamma is required for stability")
    gamma = _parse_gamma(G, args.gamma)
    nu0 = _parse_nielsen(G, args.nielsen) if args.nielsen else None
    report = find_stability_bound(G, gamma, nu0, args.window, args.confirm, caps)
    data = report.to_jsonable()
    records = [dict(lv) for lv in data["levels"]]
    records.append({
        "bound": data["bound"],
        "confident": data["confident"],
        "error": data["error"],
        "stable_from_nielsen": (
            list(report.levels[report.bound].nu) if report.bound is not None else None
        ),
        "uniform_floor": (
            max(report.levels[report.bound].nu) if report.bound is not None else None
        ),
        "window": data["window"],
    })
    _emit(records, args.format, sys.stdout)
    return EXIT_OK if report.bound is not None else EXIT_INDETERMINATE


def _cmd_h2(args, caps: Caps) -> int:
    G = load_group(args.group)
    if args.gamma is None:
        raise ParseError("--gamma is required for h2")
    gamma = _parse_gamma(G, args.gamma)
    if args.structure:
        report = h2_structure(G, gamma, args.window, args.confirm, caps)
    else:
        report = h2_order(G, gamma, args.window, args.confirm, caps=caps)
    _emit([report.to_jsonable()], args.format, sys.stdout)
    return EXIT_OK


def _cmd_stable_eq(args, caps: Caps) -> int:
    G = load_group(args.group)
    v = parse_tuple(G, args.left)
    w = parse_tuple(G, args.right)
    if args.stabilizer == "ugamma":
        if args.gamma is None:
            raise ParseError("--gamma is required for the ugamma stabilizer")
        stab = u_gamma(G, _parse_gamma(G, args.gamma))
    else:
        stab = make_stabilizer(G, parse_tuple(G, args.stabilizer))
    result = stable_equivalent(G, v, w, stab, args.window, args.confirm, caps)
    verdict = {True: "true", False: "false", None: "indeterminate"}[result.equivalent]
    _emit([{
        "verdict": verdict,
        "level": result.level,
        "reason": result.reason,
        "window": result.window,
    }], args.format, sys.stdout)
    if result.equivalent is True:
        return EXIT_OK
    if result.equivalent is False:
        return EXIT_FALSE
    return EXIT_INDETERMINATE


# -- entry point -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hurwitz",
        description="Braid orbits of finite-group tuples: enumeration, "
                    "stabilisation, and torsor-counted homology.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, window: int = DEFAULT_WINDOW) -> None:
        p.add_argument("--group", required=True,
                       help="builtin spec (e.g. sym:3, cyclic:2xcyclic:2) or a table file path")
        p.add_argument("--gamma", default=None,
                       help="'all-nontrivial' or comma-separated class representatives")
        p.add_argument("--caps", default=None,
                       help="limits, e.g. orbit=1000000,fiber=1000000,nodes=500000")
        p.add_argument("--format", default="pretty", choices=("jsonl", "tsv", "pretty"))
        p.add_argument("--window", type=int, default=window,
                       help="how many stabiliser appends to explore")
        p.add_argument("--confirm", type=int, default=DEFAULT_CONFIRM,
                       help="bijective levels required to close a window confidently")

    p_orbit = sub.add_parser("orbit", help="expand one braid orbit")
    common(p_orbit)
    p_orbit.add_argument("--tuple", required=True, help='entries: "1,2,4" or "[(12),(13)]"')
    p_orbit.add_argument("--members", action="store_true", help="dump every orbit member")
    p_orbit.set_defaults(func=_cmd_orbit)

    p_classes = sub.add_parser("classes", help="enumerate classes in invariant fibers")
    common(p_classes)
    p_classes.add_argument("--nielsen", action="append", required=True,
                           help='class counts "c1:2,c2:0" or a full vector "0,2,0"; repeatable')
    p_classes.add_argument("--ev", default=None, help="pin the evaluation (name or index)")
    p_classes.add_argument("--generating", action="store_true",
                           help="keep only classes generating the whole group")
    p_classes.add_argument("--method", default="lattice", choices=("lattice", "direct"),
                           help="class lattice, or brute-force orbit search (the reference)")
    p_classes.set_defaults(func=_cmd_classes)

    p_stab = sub.add_parser("stability", help="find an empirical stability bound")
    common(p_stab)
    p_stab.add_argument("--nielsen", default=None, help="base level (default: nu of the gamma stabiliser)")
    p_stab.set_defaults(func=_cmd_stability)

    p_h2 = sub.add_parser("h2", help="order (and structure) of the stable-count invariant")
    common(p_h2)
    p_h2.add_argument("--structure", action="store_true",
                      help="also compute invariant factors via torsor composition")
    p_h2.set_defaults(func=_cmd_h2)

    p_eq = sub.add_parser("stable-eq", help="decide stable equivalence of two tuples")
    common(p_eq, window=DEFAULT_EQ_WINDOW)
    p_eq.add_argument("--left", required=True, help="first tuple")
    p_eq.add_argument("--right", required=True, help="second tuple")
    p_eq.add_argument("--stabilizer", default="ugamma",
                      help='"ugamma" (needs --gamma) or an explicit tuple')
    p_eq.set_defaults(func=_cmd_stable_eq)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, _parse_caps(args.caps))
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (CapExceeded, HomologyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INDETERMINATE
    except (HurwitzError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
