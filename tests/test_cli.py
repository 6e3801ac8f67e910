import json

import pytest

from galchar import cli
from galchar.cli import main
from galchar.perm import group_to_json, load_group, save_group
from galchar.corpus import build


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_zsigmondy_command(capsys):
    code, out, _ = run(["zsigmondy", "2", "6"], capsys)
    assert code == 0 and out.strip() == "none"
    code, out, _ = run(["zsigmondy", "2", "4"], capsys)
    assert code == 0 and out.strip() == "5"


def test_construct_then_classify(tmp_path, capsys):
    gf = tmp_path / "d10.json"
    code, _, _ = run(
        ["construct", "a1", "--p", "5", "--n", "1", "--d", "2", "--out", str(gf)],
        capsys,
    )
    assert code == 0
    group = load_group(gf)
    assert group.order == 10

    rf = tmp_path / "report.json"
    code, _, _ = run(
        ["classify", str(gf), "--report", "json", "--out", str(rf)], capsys
    )
    assert code == 0
    report = json.loads(rf.read_text())
    assert report["verdict"] == "SingleGaloisClass"
    assert report["case_tag"] == "a1"
    assert report["config"]["seed"] == 0


def test_construct_invalid_exit_code(capsys):
    code, _, err = run(["construct", "a5", "--p", "3", "--n", "2", "--d", "2"], capsys)
    assert code == 1
    assert "PARAMS-INVALID" in err


def test_chartab_json_schema(tmp_path, capsys):
    gf = tmp_path / "q8.json"
    save_group(build("Q8"), gf)
    out_file = tmp_path / "table.json"
    code, _, _ = run(
        ["chartab", str(gf), "--format", "json", "--out", str(out_file)], capsys
    )
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["order"] == 8
    assert sorted(doc["degrees"]) == [1, 1, 1, 1, 2]
    assert len(doc["classes"]) == 5
    assert "seed" in doc["config"]


def test_chartab_text(tmp_path, capsys):
    gf = tmp_path / "s3.json"
    save_group(build("S3"), gf)
    code, out, _ = run(["chartab", str(gf)], capsys)
    assert code == 0
    assert "order 6" in out


def test_classify_assert_single(tmp_path, capsys):
    gf = tmp_path / "q8.json"
    save_group(build("Q8"), gf)
    code, out, _ = run(["classify", str(gf), "--assert-single"], capsys)
    assert code == 1
    assert "NilpotentEmpty" in out


def test_classify_text_report(tmp_path, capsys):
    gf = tmp_path / "s4.json"
    save_group(build("S4"), gf)
    code, out, _ = run(["classify", str(gf)], capsys)
    assert code == 0
    assert "NotSingleClass" in out
    assert "kernels" in out


def test_bad_groupfile_is_internal_error(tmp_path, capsys):
    gf = tmp_path / "bad.json"
    gf.write_text("{not json")
    code, _, err = run(["classify", str(gf)], capsys)
    assert code == 2
    assert "error:" in err


def test_sweep_small(tmp_path, capsys):
    out_file = tmp_path / "census.json"
    code, _, _ = run(
        [
            "sweep",
            "--tags",
            "a5",
            "--primes",
            "2,3",
            "--max-order",
            "200",
            "--out",
            str(out_file),
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out_file.read_text())
    statuses = {
        (r["params"]["tag"], r["params"]["p"]): r["status"] for r in doc["records"]
    }
    assert statuses[("a5", 2)] == "ok"
    assert statuses[("a5", 3)] == "PARAMS-INVALID"


def test_sweep_tables_take_the_seed(tmp_path, capsys, monkeypatch):
    seeds, character_table = [], cli.character_table

    def recording(group, seed=0):
        seeds.append(seed)
        return character_table(group, seed=seed)

    monkeypatch.setattr(cli, "character_table", recording)
    argv = ["--seed", "3", "sweep", "--tags", "a1", "--primes", "3", "--out", str(tmp_path / "s.json")]
    code, _, _ = run(argv, capsys)
    assert code == 0
    assert seeds and set(seeds) == {3}
