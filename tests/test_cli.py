import argparse
import hashlib
import json
import os
import subprocess
import sys

import pytest

from hurwitz import ParseError, build_builtin, make_gamma
from hurwitz.braid import Caps
from hurwitz.cli import _parse_caps, _parse_gamma, build_parser, main
from hurwitz.stability import DEFAULT_EQ_WINDOW
from conftest import MALFORMED_TABLES, cli_env


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def jsonl(out):
    return [json.loads(line) for line in out.strip().splitlines()]


# -- flags ---------------------------------------------------------------------

SHARED = {"--group", "--caps", "--format"}
FLAGS = {
    "orbit": SHARED | {"--tuple", "--members"},
    "classes": SHARED | {"--gamma", "--nielsen", "--ev", "--generating", "--method"},
    "stability": SHARED | {"--gamma", "--window", "--confirm", "--nielsen"},
    "h2": SHARED | {"--gamma", "--window", "--confirm", "--structure"},
    "stable-eq": SHARED | {"--gamma", "--window", "--confirm", "--left", "--right",
                           "--stabilizer"},
}


def test_each_subcommand_has_only_the_flags_it_reads():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    got = {name: {opt for a in sub._actions for opt in a.option_strings} - {"-h", "--help"}
           for name, sub in commands.choices.items()}
    assert got == FLAGS
    required_gamma = {name for name, sub in commands.choices.items()
                      for a in sub._actions if "--gamma" in a.option_strings and a.required}
    assert required_gamma == {"classes", "stability", "h2"}


@pytest.mark.parametrize("argv", [
    ["orbit", "--tuple", "1,1", "--window", "3"],
    ["orbit", "--tuple", "1,1", "--gamma", "(12)"],
    ["classes", "--gamma", "(12)", "--nielsen", "c1:2", "--confirm", "1"],
    ["classes", "--nielsen", "c1:2"],
    ["stability"],
    ["h2", "--structure"],
])
def test_unread_flag_or_missing_gamma_is_rejected_by_the_parser(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--group", "sym:3", "--format", "jsonl"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.startswith("usage:")


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


def test_orbit_members_expands_the_orbit_once(capsys, monkeypatch):
    import hurwitz.braid

    calls = []
    closure = hurwitz.braid._closure

    def counted(*args, **kwargs):
        calls.append(args[1])
        return closure(*args, **kwargs)

    monkeypatch.setattr(hurwitz.braid, "_closure", counted)
    code, out, _ = run_cli(capsys, "orbit", "--group", "sym:3",
                           "--tuple", "[(12),(13)]", "--members", "--format", "jsonl")
    assert code == 0
    assert len(calls) == 1
    assert jsonl(out)[0]["size"] == len(jsonl(out)) - 1 == 3


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


@pytest.mark.parametrize("argv, position", [
    (["stable-eq", "--left", "1", "--right", "1", "--caps", "orbit=1,nodes=abc"], 8),
    (["stable-eq", "--left", "1", "--right", "1", "--caps", "orbit=1, bogus=1"], 9),
    (["classes", "--nielsen", "c1:2,cx:1"], 5),
    (["classes", "--nielsen", "c1:2, c7:1"], 6),
    (["classes", "--nielsen", "0,x,2"], 2),
    (["classes", "--nielsen", " 0, 1 ,y"], 7),
    (["classes", "--nielsen", "c1:2,c1:3"], 5),
    (["stable-eq", "--left", "1", "--right", "1", "--caps", "nodes=5,nodes=0"], 8),
    (["stable-eq", "--left", "1", "--right", "1", "--caps", "nodes=-1"], 0),
    (["stable-eq", "--left", "1", "--right", "1", "--caps", "fiber=9, orbit=-5"], 9),
])
def test_entry_parse_errors_give_the_entry_offset(capsys, argv, position):
    code, out, err = run_cli(capsys, *argv, "--group", "sym:3", "--gamma", "(12)",
                             "--format", "jsonl")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and f"(at position {position})" in err


def test_zero_cap_is_valid():
    assert _parse_caps("nodes=0, orbit=0") == Caps(orbit_states=0, lattice_nodes=0)


@pytest.mark.parametrize("argv", [
    ["stability"],
    ["h2", "--structure"],
    ["stable-eq", "--left", "[(12),(12)]", "--right", "[(13),(13)]"],
])
def test_negative_confirm_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--group", "sym:3", "--gamma", "(12)",
                             "--window", "1", "--confirm", "-1", "--format", "jsonl")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "confirm" in err


def test_negative_window_exits_2(capsys):
    for argv in (["stability"], ["h2"],
                 ["stable-eq", "--left", "[(12),(12)]", "--right", "[(13),(13)]"]):
        code, out, err = run_cli(capsys, *argv, "--group", "sym:3", "--gamma", "(12)",
                                 "--window", "-2", "--format", "jsonl")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "window" in err


@pytest.mark.parametrize("doc", MALFORMED_TABLES)
def test_malformed_table_file_exits_2(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "orbit", "--group", str(path),
                             "--tuple", "1,1", "--format", "jsonl")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_unreadable_group_path_exits_2(tmp_path, capsys):
    # a directory exists but cannot be read: exit 2, not the "false" code 1
    code, out, err = run_cli(capsys, "orbit", "--group", str(tmp_path), "--tuple", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read group file ") and str(tmp_path) in err


def test_gamma_splits_on_top_level_commas_only():
    G = build_builtin("sym:3xcyclic:2")
    want = make_gamma(G, [G.index_of("((12),1)"), G.index_of("((123),0)")])
    assert _parse_gamma(G, " ((12),1), ((123),0),") == want


def test_gamma_entry_errors_give_the_entry_offset():
    G = build_builtin("sym:3")
    for text, position in (("(12), 9", 6), ("(12),  zz", 7), (" , ", None)):
        with pytest.raises(ParseError) as exc:
            _parse_gamma(G, text)
        assert exc.value.position == position
        assert ("at position" in str(exc.value)) == (position is not None)


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
    # that cache named each file after the SHA-256 of the table's order and rows
    h = hashlib.sha256(str(G.order).encode())
    for row in G.mul:
        h.update(b"|" + ",".join(map(str, row)).encode())
    digest = h.hexdigest()
    planted = tmp_path / f"{digest[:16]}.json"
    planted.write_text(json.dumps({
        "version": 1, "group_digest": digest, "group_label": G.label,
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


def test_explicit_stabilizer_rejects_unread_gamma(capsys):
    code, out, err = run_cli(capsys, "stable-eq", "--group", "sym:3", "--gamma", "(13)",
                             "--left", "[(12),(12)]", "--right", "[(13),(13)]",
                             "--stabilizer", "[(12),(12),(13),(13),(23),(23)]",
                             "--format", "jsonl")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--gamma" in err


def test_flag_level_errors_name_no_position(capsys):
    # neither error points into an argument's text, so neither names an offset
    for argv in (["--left", "1", "--right", "1"],
                 ["--gamma", "(13)", "--left", "1", "--right", "1", "--stabilizer", "1,1"]):
        code, out, err = run_cli(capsys, "stable-eq", "--group", "sym:3", *argv,
                                 "--format", "jsonl")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--gamma" in err
        assert "at position" not in err


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


# exact stdout of the stability and h2 records: their keys, the lists written
# for tuples and None written as null or "-" are all part of the output
GOLDEN = [
    (("stability", "--group", "sym:3", "--gamma", "all-nontrivial", "--window", "2",
      "--format", "jsonl"),
     '{"bijective":true,"count":3,"generating_count":3,"injective":true,"n":0,'
     '"nu":[0,6,6],"surjective":true}\n'
     '{"bijective":true,"count":3,"generating_count":3,"injective":true,"n":1,'
     '"nu":[0,12,12],"surjective":true}\n'
     '{"bijective":null,"count":3,"generating_count":3,"injective":null,"n":2,'
     '"nu":[0,18,18],"surjective":null}\n'
     '{"bound":0,"confident":true,"error":null,"stable_from_nielsen":[0,6,6],'
     '"uniform_floor":6,"window":2}\n'),
    (("h2", "--group", "alt:4", "--gamma", "(123)", "--window", "2", "--structure",
      "--format", "jsonl"),
     '{"base_point":[2,2,2,4,4,4],"bound":1,"commutator_order":4,'
     '"confident":false,"cross_checks":[[[0,0,9,0],8]],"order":2,'
     '"slice_counts":[[0,2],[3,2],[8,2],[11,2]],"stable_level":[0,0,6,0],'
     '"structure":[2]}\n'),
    (("stability", "--group", "sym:3", "--gamma", "all-nontrivial", "--window", "2",
      "--format", "tsv"),
     "bijective\tbound\tconfident\tcount\terror\tgenerating_count\tinjective\tn\tnu\t"
     "stable_from_nielsen\tsurjective\tuniform_floor\twindow\n"
     "True\t-\t-\t3\t-\t3\tTrue\t0\t[0,6,6]\t-\tTrue\t-\t-\n"
     "True\t-\t-\t3\t-\t3\tTrue\t1\t[0,12,12]\t-\tTrue\t-\t-\n"
     "-\t-\t-\t3\t-\t3\t-\t2\t[0,18,18]\t-\t-\t-\t-\n"
     "-\t0\tTrue\t-\t-\t-\t-\t-\t-\t[0,6,6]\t-\t6\t2\n"),
]


@pytest.mark.parametrize("argv, expected", GOLDEN, ids=["stability-jsonl", "h2-jsonl",
                                                        "stability-tsv"])
def test_stability_and_h2_stdout_bytes(capsys, argv, expected):
    assert run_cli(capsys, *argv) == (0, expected, "")


def test_group_file_loading(tmp_path, capsys):
    import hurwitz

    doc = hurwitz.to_table_doc(hurwitz.build_builtin("sym:3"))
    path = tmp_path / "mygroup.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "orbit", "--group", str(path),
                           "--tuple", "[(12),(13)]", "--format", "jsonl")
    assert code == 0
    assert jsonl(out)[0]["size"] == 3


def call_cli(capsys, argv):
    """Exit code, stdout and stderr of one in-process call, parser errors included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cached_parser_gives_each_call_what_it_gives_alone(capsys):
    # the parser is built once per process; a call rejected by the parser, a
    # call rejected after parsing and a valid h2 call give the same exit
    # code and output whichever ran before them
    h2 = ["h2", "--group", "sym:3", "--gamma", "(12)", "--format", "jsonl",
          "--window", "2", "--confirm", "1"]
    calls = {
        "parser": ["h2", "--group", "sym:3", "--format", "jsonl", "--nielsen", "0,1,0"],
        "caps": [*h2, "--caps", "nodes=-1"],
        "h2": h2,
    }
    alone = {}
    for key, argv in calls.items():
        build_parser.cache_clear()
        alone[key] = call_cli(capsys, argv)
    assert [alone[k][0] for k in calls] == [2, 2, 0]
    assert alone["parser"][2].startswith("usage:") and alone["caps"][2].startswith("error:")
    assert jsonl(alone["h2"][1])[0]["order"] == 1
    assert build_parser() is build_parser()
    for first, second in (("parser", "h2"), ("h2", "parser"), ("caps", "h2"), ("h2", "caps")):
        build_parser.cache_clear()
        assert [call_cli(capsys, calls[k]) for k in (first, second)] == [alone[first], alone[second]]
