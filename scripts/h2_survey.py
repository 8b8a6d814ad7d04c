#!/usr/bin/env python3
"""Compute the stable-count invariant for a list of groups.

Each configuration 'groupspec:gammaspec' is one `hurwitz h2 --structure`
run; its JSONL record is printed with the group, gamma and seconds added.
A run that fails prints {"group", "gamma", "error"} with the CLI's error
line, and the survey goes on.

    python3 scripts/h2_survey.py
    python3 scripts/h2_survey.py --configs quaternion:8:all-nontrivial --window 2
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
    "dihedral:4:all-nontrivial",
    "quaternion:8:all-nontrivial",
    "sym:4:(1234)",
    "alt:4:(123),(132)",
    "sym:4:all-nontrivial",
    "sym:3xcyclic:2:all-nontrivial",
    "alt:5:(123)",
]


def run_cli(argv):
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--configs", nargs="*", default=DEFAULT_CONFIGS)
    parser.add_argument("--window", type=int, default=3)
    parser.add_argument("--caps", default=None,
                        help="CLI cap syntax, e.g. nodes=2000000 (default: the CLI's caps)")
    args = parser.parse_args(argv)

    for config in args.configs:
        group, _, gamma = config.rpartition(":")
        t0 = time.perf_counter()
        code, out, err = run_cli(["h2", f"--group={group}", f"--gamma={gamma}",
                                  f"--window={args.window}", f"--caps={args.caps or ''}",
                                  "--structure", "--format", "jsonl"])
        if code == 0:
            record = json.loads(out)
            record.update(group=group, gamma=gamma, seconds=round(time.perf_counter() - t0, 2))
        else:
            record = {"group": group, "gamma": gamma, "error": err.strip()}
        print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
