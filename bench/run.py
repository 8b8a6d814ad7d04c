#!/usr/bin/env python3
"""Benchmark of the hurwitz package: end-to-end metrics, or per-layer spans.

    python3 bench/run.py --workload survey-cold --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` one workload runs untraced for ``--seconds`` seconds of
whole rounds and the end-to-end metrics are reported.  With ``--trace 1``
one round of every workload runs, traced, and the per-layer metrics are
reported; the spans are written to ``bench/out/``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; details go to standard error.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
WORKLOAD_NAMES = ("survey-cold", "query-warm", "raw-oracle")
LAYERS = ("groups", "braid", "lattice", "stability", "homology")

# every per-layer metric the traced run reports, with its unit
PER_LAYER_UNITS = {
    "groups.build_s": "s", "groups.derived_s": "s",
    "braid.orbit_s": "s", "braid.orbit_states": "count", "braid.states_per_s": "1/s",
    "braid.direct_s": "s", "braid.direct_tuples": "count",
    "lattice.build_s": "s", "lattice.nodes": "count", "lattice.nodes_per_s": "1/s",
    "lattice.bytes_per_node": "B",
    "lattice.nodes.q8": "count", "lattice.nodes.d4": "count", "lattice.nodes.a4-pair": "count",
    "lattice.build_s.q8": "s", "lattice.build_s.d4": "s", "lattice.build_s.a4-pair": "s",
    "lattice.query_s": "s", "lattice.query_nodes": "count",
    "stability.bound_s": "s", "stability.stable_eq_s": "s", "stability.stable_eq_calls": "count",
    "homology.order_s": "s", "homology.torsor_s": "s", "homology.compose_calls": "count",
    "cli.overhead_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


class Runner:
    """Runs operations, times them, and keeps answers for the checks.

    Answers are keyed by operation label; operations that share a label
    repeat one input and must give one answer.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_round(self, wl, ops, tracer, op_times=None) -> dict:
        """Run ``ops`` once each; ``op_times[label]`` collects their seconds."""
        answers: dict = {}
        for op in ops:
            self.attempted += 1
            tracer.op = op.label
            t0 = time.perf_counter()
            try:
                with tracer.span("bench.op"):
                    answer = op.run(tracer)
            except Exception:  # an operation without an answer counts as failed
                self.failed += 1
                print(f"operation {op.label} failed:\n{traceback.format_exc()}", file=sys.stderr)
                continue
            dt = time.perf_counter() - t0
            if op_times is not None:
                op_times.setdefault(op.label, []).append(dt)
            answer = wl.digest(op, answer)
            if answers.setdefault(op.label, answer) != answer:
                self.problems.append(f"{op.label}: a repetition gave another answer")
            if wl.fresh_process_per_op:
                answer = None
                gc.collect()
        tracer.op = None
        return answers

    def compare(self, first: dict, later: dict, what: str) -> None:
        for label, answer in later.items():
            if label in first and first[label] != answer:
                self.problems.append(f"{label}: {what} answer differs from the first round's")

    def check(self, wl, state, ops, answers: dict) -> None:
        done = set()
        for op in ops:
            if op.label in answers and op.label not in done:
                done.add(op.label)
                self.problems += [f"{op.label}: {p}" for p in wl.check(state, op, answers[op.label])]
        self.problems += wl.check_groups(state)


def quantile(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def tail(samples):
    """The highest of p90/p95/p99/p99.9 with at least ten samples beyond it."""
    n = len(samples)
    best = None
    for p in (90, 95, 99, 99.9):
        if n * (1 - p / 100) >= 10:
            best = (p, quantile(sorted(samples), p / 100))
    return best


def measure(wl, seed: int, seconds: int, runner: Runner) -> dict:
    """Whole rounds until ``seconds`` have passed; the end-to-end metrics."""
    from spans import NullTracer
    from workloads import Op

    null = NullTracer()
    setups, op_times = [], {}

    def timed_setup():
        t0 = time.perf_counter()
        state = wl.setup(seed, null)
        setups.append(time.perf_counter() - t0)
        return state

    first = None
    start = time.perf_counter()
    while True:
        if first is None or wl.setup_every_round:
            state = ops = None
            for _ in range(wl.setups_at_start if first is None else 1):
                state = None
                gc.collect()  # a group and its lattice form a cycle; free the last one
                state = timed_setup()
            ops = wl.ops(state)
        answers = runner.run_round(wl, ops, null, op_times)
        if first is None:
            first = (wl.for_checks(state), [(op.label, op.data) for op in ops], answers)
        else:
            runner.compare(first[2], answers, "a later round's")
        if time.perf_counter() - start >= seconds:
            break
    peak = peak_rss_mb()
    state = ops = None
    check_state, op_data, answers = first
    runner.check(wl, check_state, [Op(label, None, data) for label, data in op_data], answers)

    # Each operation's fastest repetition in the run.  On a shared host the
    # same work runs in a fast and a slow state (about 1.6 times slower),
    # with fast spells from under a millisecond to a few hundred; the share
    # of slow time differs from run to run and moves a median with it,
    # while every operation here is short enough to fall wholly within a
    # fast spell on some of its repetitions.  Pooling all samples instead would also move
    # the median from one kind of operation to another whenever a run fits
    # one more round.
    per_op = {label: min(ts) for label, ts in op_times.items()}
    pooled = [t for ts in op_times.values() for t in ts]
    detail = {"workload": wl.name, "setups": len(setups), "operations": len(pooled),
              "setup_s": setups, "op_fastest_ms": {k: t * 1000 for k, t in per_op.items()},
              "op_median_ms": {k: statistics.median(ts) * 1000 for k, ts in op_times.items()}}
    t = tail(pooled)
    if t:
        detail[f"op_p{t[0]:g}_ms"] = t[1] * 1000
    print(json.dumps(detail), file=sys.stderr)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "solve_s": (sum(per_op.values()), "s"),
        "op_p50_ms": (statistics.median(per_op.values()) * 1000, "ms"),
        "peak_rss_mb": (peak, "MB"),
    }


def traced(seed: int, runner: Runner) -> tuple[dict, dict]:
    """One traced round of every workload, so every layer is measured.

    The survey's traced pass makes the library calls of each CLI command,
    the heavy ones included, and runs first, so the quaternion:8 call meets
    an unused heap; a CLI pass over the light commands follows, untraced,
    for ``cli.overhead_s``.  The other two workloads set up traced, and
    their traced round sits between two untraced rounds on the same state;
    its summed operation time minus their mean is the tracing overhead.
    """
    from spans import NullTracer, Tracer, duration, self_times
    from workloads import WORKLOADS

    null = NullTracer()
    metrics: dict = {}
    all_spans: dict[str, list] = {}

    survey = WORKLOADS["survey-cold"]
    state = survey.setup(seed, null)
    tr = Tracer()
    ops = survey.traced_ops(state)
    # quaternion:8 alone first, to read the RSS growth it causes
    rss0 = peak_rss_mb()
    lib_answers = runner.run_round(survey, ops[:1], tr)
    rss_growth = (peak_rss_mb() - rss0) * 2**20
    lib_answers.update(runner.run_round(survey, ops[1:], tr))
    cli_times: dict = {}
    runner.compare(lib_answers, runner.run_round(survey, survey.ops(state), null, cli_times), "the CLI's")
    runner.check(survey, state, ops, lib_answers)
    metrics.update(survey.layer_metrics(tr.spans, cli_times, rss_growth))
    all_spans[survey.name] = tr.spans

    def op_seconds(times: dict) -> float:
        return sum(t for ts in times.values() for t in ts)

    overhead = 0.0
    for name in ("query-warm", "raw-oracle"):
        wl = WORKLOADS[name]
        gc.collect()
        tr = Tracer()
        state = wl.setup(seed, tr)
        before, after = {}, {}
        # an untraced round on each side of the traced one, so that a first
        # round's warm-up does not count as tracing cost
        first = runner.run_round(wl, wl.ops(state), null, before)
        ops = wl.traced_ops(state)
        answers = runner.run_round(wl, ops, tr)
        runner.compare(first, answers, "the traced round's")
        runner.compare(first, runner.run_round(wl, wl.ops(state), null, after), "the untraced round's")
        runner.check(wl, state, ops, answers)
        metrics.update(wl.layer_metrics(tr.spans))
        all_spans[name] = tr.spans
        traced_s = sum(duration(s) for s in tr.spans if s["name"] == "bench.op")
        overhead += traced_s - (op_seconds(before) + op_seconds(after)) / 2
        state = ops = None

    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            t for spans in all_spans.values()
            for s, t in zip(spans, self_times(spans)) if s["name"].split(".")[0] == layer)
    metrics["trace.overhead_s"] = overhead
    return metrics, all_spans


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hurwitz", "__init__.py")):
        print(f"error: package source not found under {os.path.relpath(SRC)}; "
              "run the benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import hurwitz

    if not os.path.abspath(hurwitz.__file__).startswith(SRC + os.sep):
        print(f"error: hurwitz was imported from {hurwitz.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    runner = Runner()
    if args.trace:
        values, all_spans = traced(args.seed, runner)
        if set(values) != set(PER_LAYER_UNITS):
            raise RuntimeError(f"traced metrics differ from the list: {set(values) ^ set(PER_LAYER_UNITS)}")
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"metrics": values, "spans": all_spans}, fh)
        print(f"spans written to {os.path.relpath(path, ROOT)}", file=sys.stderr)
    else:
        values = measure(WORKLOADS[args.workload], args.seed, args.seconds, runner)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    for p in runner.problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"correct": not runner.problems, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
