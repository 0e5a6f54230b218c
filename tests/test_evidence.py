"""Committed benchmark evidence: every ``BENCH_<label>.json`` at the repo
root is a complete, correct run of the declared benchmark."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {workload["name"] for workload in BENCHMARK["workloads"]}
METRICS = {metric["name"] for metric in BENCHMARK["end_to_end"]}
EVIDENCE = sorted(ROOT.glob("BENCH_*.json"))


def test_evidence_files_exist():
    assert EVIDENCE


@pytest.mark.parametrize("path", EVIDENCE, ids=lambda path: path.name)
def test_evidence_file_is_complete_and_correct(path):
    evidence = json.loads(path.read_text())
    assert evidence["label"] == path.stem.removeprefix("BENCH_")
    assert evidence["all_correct"] is True
    runs = evidence["runs"]
    for run in runs:
        assert run["result"]["correct"] is True, (run["workload"], run["seed"], run["side"])
        assert run["result"]["failed"] == 0, (run["workload"], run["seed"], run["side"])
        assert set(run["result"]["metrics"]) == METRICS, (run["workload"], run["seed"], run["side"])
    for side in ("parent", "change"):
        assert {run["workload"] for run in runs if run["side"] == side} == WORKLOADS, side
