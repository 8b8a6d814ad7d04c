import json
import os
import subprocess
import sys

import pytest

from conftest import load_repo_file
from hurwitz import build_builtin, find_stability_bound, make_gamma

LIGHT = ["--configs", "sym:3:(12)", "--window", "2"]


def test_h2_survey_runs_one_light_configuration(capsys):
    survey = load_repo_file("scripts", "h2_survey.py")
    assert survey.main(LIGHT) == 0
    (line,) = capsys.readouterr().out.splitlines()
    record = json.loads(line)
    assert (record["group"], record["gamma"]) == ("sym:3", "(12)")
    assert (record["order"], record["structure"], record["stable_level"]) == (1, [], [0, 4, 0])
    # the u_gamma ray, which the search keeps, is stable from (0, 6, 0)
    G = build_builtin("sym:3")
    ray = find_stability_bound(G, make_gamma(G, [G.index_of("(12)")]), None, 2)
    assert ray.levels[ray.bound].nu == (0, 6, 0)


def test_stability_scan_runs_one_light_configuration(capsys):
    scan = load_repo_file("scripts", "stability_scan.py")
    assert scan.main(LIGHT + ["--jsonl"]) == 0
    row, blank, summary = capsys.readouterr().out.splitlines()
    record = json.loads(row)
    assert (record["group"], record["gamma"]) == ("sym:3", "(12)")
    assert (record["bound"], record["confident"], record["stable_count"]) == (0, True, 6)
    assert record["uniform_floor"] == 6
    assert blank == "" and summary == "max bound over explored configurations: 0"


# each bad input fails its configuration with the CLI's error line (None:
# the configuration runs), and the scripts go on to the next configuration
BAD_GAMMA = "error: unknown element '(99)' (at position 0)"
BAD_WINDOW = "error: window must be non-negative, got -1"
BAD_CAPS = "error: cap nodes must be non-negative, got -1 (at position 0)"
BAD = [
    (["--configs", "sym:3:(99)", "sym:3:(12)", "--window", "2"],
     [("(99)", BAD_GAMMA), ("(12)", None)]),
    (["--configs", "sym:3:(12)", "sym:3:all-nontrivial", "--window", "-1"],
     [("(12)", BAD_WINDOW), ("all-nontrivial", BAD_WINDOW)]),
    (["--configs", "sym:3:(12)", "sym:3:all-nontrivial", "--window", "2", "--caps", "nodes=-1"],
     [("(12)", BAD_CAPS), ("all-nontrivial", BAD_CAPS)]),
]


def _outcomes(records):
    assert all(r["group"] == "sym:3" for r in records)
    return [(r["gamma"], r.get("error")) for r in records]


@pytest.mark.parametrize("argv, expected", BAD, ids=["gamma", "window", "caps"])
def test_h2_survey_reports_a_failed_configuration_and_goes_on(capsys, argv, expected):
    survey = load_repo_file("scripts", "h2_survey.py")
    assert survey.main(argv) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert _outcomes(records) == expected
    assert all(set(r) == {"group", "gamma", "error"} for r in records if "error" in r)
    orders = [r["order"] for r in records if "error" not in r]
    assert orders == [1] * len(orders)


@pytest.mark.parametrize("argv, expected", BAD, ids=["gamma", "window", "caps"])
def test_stability_scan_reports_a_failed_configuration_and_goes_on(capsys, argv, expected):
    scan = load_repo_file("scripts", "stability_scan.py")
    assert scan.main(argv + ["--jsonl"]) == 0
    *rows, blank, summary = capsys.readouterr().out.splitlines()
    records = [json.loads(row) for row in rows]
    assert _outcomes(records) == expected
    bounds = [r["bound"] for r in records if "error" not in r]
    assert bounds == [0] * len(bounds)
    assert summary == f"max bound over explored configurations: {0 if bounds else None}"


@pytest.mark.parametrize("workload", ["survey-cold", "query-warm", "raw-oracle"])
def test_bench_run_passes_its_checks(workload):
    # one short untraced run of a benchmark workload: its package-free checks
    # of every answer, through the public names the benchmark calls; an
    # untraced run writes no file
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = os.path.join(repo_root, "bench", "out")
    before = sorted(os.listdir(out)) if os.path.isdir(out) else None
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, cwd=repo_root, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert (sorted(os.listdir(out)) if os.path.isdir(out) else None) == before
