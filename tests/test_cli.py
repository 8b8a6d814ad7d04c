import json
import os
import subprocess
import sys

import pytest

from hurwitz import build_builtin, make_gamma
from hurwitz.cli import _parse_gamma, main
from hurwitz.stability import DEFAULT_EQ_WINDOW
from conftest import MALFORMED_TABLES, cli_env


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def jsonl(out):
    return [json.loads(line) for line in out.strip().splitlines()]


# -- orbit ---------------------------------------------------------------------


def test_orbit_command(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--group", "sym:3",
                           "--tuple", "[(12),(13)]", "--format", "jsonl")
    assert code == 0
    rec = jsonl(out)[0]
    assert rec["size"] == 3
    assert rec["ev_name"] == "(123)"


def test_orbit_abelian_pair(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--group", "cyclic:4",
                           "--tuple", "1,1", "--format", "jsonl")
    assert code == 0
    assert jsonl(out)[0]["size"] == 1


def test_orbit_members_dump(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--group", "sym:3",
                           "--tuple", "[(12),(13)]", "--members", "--format", "jsonl")
    assert code == 0
    members = [r["member"] for r in jsonl(out) if "member" in r]
    assert len(members) == 3
    assert members == sorted(members)


def test_malformed_tuple_exits_2_with_position(capsys):
    code, _, err = run_cli(capsys, "orbit", "--group", "sym:3",
                           "--tuple", "1,zz,3", "--format", "jsonl")
    assert code == 2
    assert "position" in err


@pytest.mark.parametrize("caps", ["nodes=abc", "bogus=1", "nodes"])
def test_malformed_caps_exit_2(capsys, caps):
    code, out, err = run_cli(capsys, "stable-eq", "--group", "sym:3", "--gamma", "(12)",
                             "--left", "[(12),(12)]", "--right", "[(13),(13)]",
                             "--caps", caps, "--format", "jsonl")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("doc", MALFORMED_TABLES)
def test_malformed_table_file_exits_2(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "orbit", "--group", str(path),
                             "--tuple", "1,1", "--format", "jsonl")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_gamma_splits_on_top_level_commas_only():
    G = build_builtin("sym:3xcyclic:2")
    want = make_gamma(G, [G.index_of("((12),1)"), G.index_of("((123),0)")])
    assert _parse_gamma(G, " ((12),1), ((123),0),") == want


def test_unbalanced_gamma_exits_2_with_position(capsys):
    code, _, err = run_cli(capsys, "h2", "--group", "sym:3", "--gamma", "(12",
                           "--format", "jsonl")
    assert code == 2
    assert "unbalanced" in err and "position 3" in err


# -- classes -------------------------------------------------------------------


def test_classes_spec_example(capsys):
    code, out, _ = run_cli(capsys, "classes", "--group", "sym:3", "--gamma", "(12)",
                           "--nielsen", "c1:2", "--ev", "(123)", "--format", "jsonl")
    assert code == 0
    records = jsonl(out)
    assert records[-1]["total_classes"] == 1
    assert records[0]["size"] == 3


def test_classes_empty_nielsen(capsys):
    code, out, _ = run_cli(capsys, "classes", "--group", "sym:3", "--gamma", "(12)",
                           "--nielsen", "", "--format", "jsonl")
    assert code == 0
    records = jsonl(out)
    assert records[-1]["total_classes"] == 1
    assert records[0]["canonical"] == []


def test_classes_nielsen_outside_gamma_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "classes", "--group", "sym:3", "--gamma", "(12)",
                           "--nielsen", "c2:1", "--format", "jsonl")
    assert code == 2
    assert "outside gamma" in err


def test_classes_deterministic_across_processes(tmp_path):
    # hash randomisation differs per process; output must not
    cmd = [sys.executable, "-m", "hurwitz.cli", "classes", "--group", "sym:3",
           "--gamma", "all-nontrivial", "--nielsen", "c1:2,c2:1",
           "--format", "jsonl"]
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    outs = []
    for seed in ("0", "424242"):
        env = cli_env(PYTHONHASHSEED=seed)
        proc = subprocess.run(cmd, capture_output=True, env=env, cwd=repo_root)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_classes_cap_exceeded_exits_3(capsys):
    code, _, err = run_cli(capsys, "classes", "--group", "sym:3", "--gamma", "(12)",
                           "--nielsen", "c1:4", "--method", "direct",
                           "--caps", "fiber=5", "--format", "jsonl")
    assert code == 3
    assert "cap" in err


def test_classes_trust_no_file_in_the_environment(tmp_path, capsys, monkeypatch):
    # a fiber entry edited to a tuple outside the fiber, at the path and in
    # the format an earlier per-fiber cache read, must not reach the output
    import hurwitz

    G = hurwitz.build_builtin("sym:3")
    planted = tmp_path / f"{G.digest[:16]}.json"
    planted.write_text(json.dumps({
        "version": 1, "group_digest": G.digest, "group_label": G.label,
        "sigma": "sigma-right-conjugate-v1",
        "fibers": {"nu=0,2,0;gamma=1": {"reps": [[4, 4, 4]], "sizes": [1]}},
    }))
    monkeypatch.setenv("HURWITZ_CACHE_DIR", str(tmp_path))
    code, out, _ = run_cli(capsys, "classes", "--group", "sym:3", "--gamma", "(12)",
                           "--nielsen", "0,2,0", "--format", "jsonl")
    assert code == 0
    records = jsonl(out)
    assert records[-1]["total_classes"] == 5
    assert [r["canonical"] for r in records[:-1]] == [[1, 1], [1, 2], [1, 5], [2, 2], [5, 5]]
    assert all(r["nu"] == [0, 2, 0] for r in records[:-1])
    assert list(tmp_path.iterdir()) == [planted]


# -- stability -----------------------------------------------------------------


def test_stability_command(capsys):
    code, out, _ = run_cli(capsys, "stability", "--group", "sym:3",
                           "--gamma", "all-nontrivial", "--window", "2",
                           "--format", "jsonl")
    assert code == 0
    records = jsonl(out)
    assert records[-1]["bound"] == 0
    assert records[-1]["confident"] is True
    assert records[-1]["uniform_floor"] is not None


def test_stability_window_exhaustion_exits_3(capsys):
    code, out, _ = run_cli(capsys, "stability", "--group", "sym:3", "--gamma", "(12)",
                           "--nielsen", "c1:1", "--window", "1", "--format", "jsonl")
    assert code == 3


# -- h2 ------------------------------------------------------------------------


def test_h2_command(capsys):
    code, out, _ = run_cli(capsys, "h2", "--group", "sym:3", "--gamma", "(12)",
                           "--window", "3", "--format", "jsonl")
    assert code == 0
    rec = jsonl(out)[0]
    assert rec["order"] == 1
    assert rec["commutator_order"] == 3


def test_h2_structure_flag(capsys):
    code, out, _ = run_cli(capsys, "h2", "--group", "cyclic:4", "--gamma",
                           "all-nontrivial", "--structure", "--window", "3",
                           "--format", "jsonl")
    assert code == 0
    assert jsonl(out)[0]["structure"] == []


# -- stable-eq -----------------------------------------------------------------


def test_stable_eq_verdict_true(capsys):
    code, out, _ = run_cli(capsys, "stable-eq", "--group", "sym:3", "--gamma", "(12)",
                           "--left", "[(12),(12)]", "--right", "[(13),(13)]",
                           "--format", "jsonl")
    assert code == 0
    assert jsonl(out)[0]["verdict"] == "true"


def test_stable_eq_verdict_false(capsys):
    code, out, _ = run_cli(capsys, "stable-eq", "--group", "sym:3", "--gamma", "(12)",
                           "--left", "[(12),(13)]", "--right", "[(12),(23)]",
                           "--format", "jsonl")
    assert code == 1
    rec = jsonl(out)[0]
    assert rec["verdict"] == "false"
    # without --window the CLI explores as far as the library default
    assert rec["window"] == DEFAULT_EQ_WINDOW == 8


def test_stable_eq_verdict_indeterminate(capsys):
    code, out, _ = run_cli(capsys, "stable-eq", "--group", "sym:3", "--gamma", "(12)",
                           "--left", "[(12),(12)]", "--right", "[(13),(13)]",
                           "--window", "0", "--format", "jsonl")
    assert code == 3
    assert jsonl(out)[0]["verdict"] == "indeterminate"


def test_stable_eq_explicit_stabilizer(capsys):
    code, out, _ = run_cli(capsys, "stable-eq", "--group", "sym:3",
                           "--left", "[(12),(12)]", "--right", "[(13),(13)]",
                           "--stabilizer", "[(12),(12),(13),(13),(23),(23)]",
                           "--format", "jsonl")
    assert code == 0


# -- formats -------------------------------------------------------------------


def test_tsv_and_pretty_formats(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--group", "sym:3",
                           "--tuple", "[(12),(13)]", "--format", "tsv")
    assert code == 0
    assert out.splitlines()[0].startswith("canonical")
    code, out, _ = run_cli(capsys, "orbit", "--group", "sym:3",
                           "--tuple", "[(12),(13)]", "--format", "pretty")
    assert code == 0
    assert "size" in out


def test_group_file_loading(tmp_path, capsys):
    import hurwitz

    doc = hurwitz.to_table_doc(hurwitz.build_builtin("sym:3"))
    path = tmp_path / "mygroup.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "orbit", "--group", str(path),
                           "--tuple", "[(12),(13)]", "--format", "jsonl")
    assert code == 0
    assert jsonl(out)[0]["size"] == 3
