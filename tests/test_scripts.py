import json

from conftest import load_repo_file

LIGHT = ["--configs", "sym:3:(12)", "--window", "2"]


def test_h2_survey_runs_one_light_configuration(capsys):
    survey = load_repo_file("scripts", "h2_survey.py")
    assert survey.main(LIGHT) == 0
    (line,) = capsys.readouterr().out.splitlines()
    record = json.loads(line)
    assert (record["group"], record["gamma"]) == ("sym:3", "(12)")
    assert (record["order"], record["structure"], record["stable_level"]) == (1, [], [0, 6, 0])


def test_stability_scan_runs_one_light_configuration(capsys):
    scan = load_repo_file("scripts", "stability_scan.py")
    assert scan.main(LIGHT + ["--jsonl"]) == 0
    row, blank, summary = capsys.readouterr().out.splitlines()
    record = json.loads(row)
    assert (record["group"], record["gamma"]) == ("sym:3", "(12)")
    assert (record["bound"], record["confident"], record["stable_count"]) == (0, True, 6)
    assert blank == "" and summary == "max bound over explored configurations: 0"
