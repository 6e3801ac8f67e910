import hashlib
import json

import pytest

from galchar import cli, cyclotomic
from galchar.chartab import character_table
from galchar.cli import main
from galchar.perm import group_to_json, load_group, save_group
from galchar.corpus import CORPUS, build


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


def test_construct_then_classify_a3_with_n_1(tmp_path, capsys):
    gf = tmp_path / "a3.json"
    argv = ["construct", "a3", "--p", "7", "--n", "1", "--height", "2"]
    code, _, _ = run(argv + ["--d", "2", "--out", str(gf)], capsys)
    assert code == 0
    code, out, _ = run(["classify", str(gf)], capsys)
    assert code == 0
    assert "case: a3  (p=7, n=1, d=2)" in out and "THEOREM-VIOLATION" not in out
    # q = (7 - 1)/1 = 6 is not prime
    code, _, err = run(argv + ["--d", "1"], capsys)
    assert code == 1 and "PARAMS-INVALID" in err


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


def test_conductor_bound_refuses_a_table_before_the_split(tmp_path, capsys, monkeypatch):
    # S4's largest class order is 4, the conductor of its lifted values
    monkeypatch.setattr(cyclotomic, "CONDUCTOR_BOUND", 3)
    with pytest.raises(cyclotomic.ConductorOverflow, match="conductor 4 exceeds bound"):
        character_table(build("S4"))
    gf = tmp_path / "s4.json"
    save_group(build("S4"), gf)
    code, out, err = run(["chartab", str(gf)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: conductor 4 exceeds bound")
    assert character_table(build("S3")).n_classes == 3  # class order 3 is within it


# sha256 of the stdout and the exit code of whole runs in process.  A change
# to any byte of these outputs is an output change, to be made on purpose.
PINNED_STDOUT = {
    "sweep": (0, "55920e24902b2ac5e6145ce08d6f836d2b3f54db34d12f73c2d518d4a64e34da"),
    "check-theorem": (0, "58846ac8f9bd12343d29deae7b4bf212e92597477871da2c1a0b82db32dbf338"),
}
# one digest over "key code\n" and the JSON report of each corpus group, in order
PINNED_CLASSIFY = "de3ff0235be63b7d3b4ef15eb568a6490740563d1051ab49447c511be18bed00"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_sweep_and_check_theorem_outputs_are_pinned(capsys):
    for argv, name in ((["--seed", "0", "sweep"], "sweep"), (["check-theorem"], "check-theorem")):
        code, out, _ = run(argv, capsys)
        assert (code, _digest(out)) == PINNED_STDOUT[name], name


def test_classify_reports_of_the_corpus_are_pinned(tmp_path, capsys):
    gf, outputs = tmp_path / "group.json", []
    for entry in CORPUS:
        gf.write_text(group_to_json(build(entry.key)))
        code, out, _ = run(["classify", str(gf), "--report", "json"], capsys)
        outputs.append(f"{entry.key} {code}\n{out}")
    assert _digest("".join(outputs)) == PINNED_CLASSIFY
