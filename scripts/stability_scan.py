#!/usr/bin/env python3
"""Scan stability bounds across groups and gamma choices.

Each configuration 'groupspec:gammaspec' is one `hurwitz stability` run.
Its bound, confidence and uniform floor come from the summary record, and
its stable count from the level record at the bound.  A run that prints no
records is reported with the CLI's error line, and the scan goes on.  The
scan also reports the maximum bound over everything explored, which is the
honest stand-in for a single uniform bound per group.

    python3 scripts/stability_scan.py --window 3
    python3 scripts/stability_scan.py --configs sym:3:all-nontrivial dihedral:4:r,s
"""

import argparse
import contextlib
import io
import json
import sys
import time

from hurwitz import cli

DEFAULT_CONFIGS = [
    "sym:3:(12)",
    "sym:3:all-nontrivial",
    "cyclic:4:all-nontrivial",
    "cyclic:2xcyclic:2:all-nontrivial",
    "dihedral:4:r,s",
    "quaternion:8:i,j",
]


def run_cli(argv):
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--configs", nargs="*", default=DEFAULT_CONFIGS,
                        help="entries 'groupspec:gammaspec'")
    parser.add_argument("--window", type=int, default=3)
    parser.add_argument("--confirm", type=int, default=2)
    parser.add_argument("--caps", default=None,
                        help="CLI cap syntax, e.g. nodes=2000000 (default: the CLI's caps)")
    parser.add_argument("--jsonl", action="store_true")
    args = parser.parse_args(argv)

    worst = None
    rows = []
    for config in args.configs:
        group, _, gamma = config.rpartition(":")
        t0 = time.time()
        _, out, err = run_cli(["stability", f"--group={group}", f"--gamma={gamma}",
                               f"--window={args.window}", f"--confirm={args.confirm}",
                               f"--caps={args.caps or ''}", "--format", "jsonl"])
        if not out:
            rows.append({"group": group, "gamma": gamma, "error": err.strip()})
            continue
        *levels, summary = map(json.loads, out.splitlines())
        bound = summary["bound"]
        rows.append({
            "group": group,
            "gamma": gamma,
            "bound": bound,
            "confident": summary["confident"],
            "stable_count": next((lv["count"] for lv in levels if lv["n"] == bound), None),
            "uniform_floor": summary["uniform_floor"],
            "seconds": round(time.time() - t0, 2),
        })
        if bound is not None:
            worst = bound if worst is None else max(worst, bound)
    if args.jsonl:
        for row in rows:
            print(json.dumps(row, sort_keys=True))
    else:
        header = f"{'group':24s} {'gamma':18s} {'bound':>5s} {'conf':>5s} {'count':>6s} {'floor':>5s} {'sec':>6s}"
        print(header)
        print("-" * len(header))
        for r in rows:
            if "error" in r:
                print(f"{r['group']:24s} {r['gamma']:18s} {r['error']}")
                continue
            print(f"{r['group']:24s} {r['gamma']:18s} {str(r['bound']):>5s} "
                  f"{str(r['confident']):>5s} {str(r['stable_count']):>6s} "
                  f"{str(r['uniform_floor']):>5s} {r['seconds']:>6.2f}")
    print(f"\nmax bound over explored configurations: {worst}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
