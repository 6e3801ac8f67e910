"""Smoke test of the benchmark on S3 and S4: answers do not depend on the
seed, and every declared metric is printed with its unit."""
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

SEEDS = (0, 1, 2)


def test_smoke_answers_are_seed_independent():
    expected = workloads.load_expected()["smoke"]
    answers = []
    for seed in SEEDS:
        inputs = run.build_inputs("smoke", seed)
        assert [key for key, _, _ in inputs] == ["S3", "S4"]
        _, got, failures = run.run_pass(workloads.JOBS["smoke"], inputs, seed, expected)
        assert failures == 0
        answers.append(got)
    assert answers[0] == answers[1] == answers[2]
    assert [a["verdict"] for a in answers[0]] == ["SingleGaloisClass", "NotSingleClass"]


def test_relabelling_changes_the_input_only_for_nonzero_seeds():
    group = workloads.corpus.build("S4")
    plain = workloads.relabel(group, 0, "S4")
    assert plain == workloads.perm.group_to_json(group).strip()
    assert workloads.relabel(group, 1, "S4") != plain
    assert workloads.relabel(group, 1, "S4") == workloads.relabel(group, 1, "S4")


@pytest.mark.parametrize(
    "trace, seed", [(0, 0), (0, 1), (0, 2), (1, 0)]
)
def test_smoke_run_prints_every_metric(trace, seed):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "smoke",
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
