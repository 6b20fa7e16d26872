"""Tests of the benchmark itself, at the tiny input size.

    python3 -m pytest perfbench -q

Run from the repository root.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import inputs  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
TINY = inputs.SIZES["tiny"]
MAKERS = {"audit": inputs.make_audit, "train": inputs.make_train,
          "mine": inputs.make_mine}


def run_bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", sorted(MAKERS))
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    digests = []
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        folder = tmp_path / name
        folder.mkdir()
        MAKERS[workload](ROOT, str(folder), seed, **TINY[workload])
        digests.append(worker.tree_digest(str(folder)))
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


@pytest.mark.parametrize("workload", ["audit", "train", "mine"])
def test_every_metric_is_printed_by_name_with_its_unit(workload):
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        proc = run_bench(ROOT, "--workload", workload, "--seed", "3",
                         "--seconds", "0.1", "--trace", trace,
                         "--size", "tiny")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, proc.stderr
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert result["metrics"] == {
            m["name"]: {"value": result["metrics"][m["name"]]["value"],
                        "unit": m["unit"]}
            for m in SPEC[section]}
        if section == "end_to_end":
            assert all(v["value"] > 0 for v in result["metrics"].values())


def break_audit(folder: str) -> None:
    """Relabel every planted defect as clean in the truth file."""
    path = os.path.join(folder, "truth.jsonl")
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(dict(row, label="NON_DEFECT")) + "\n")


def break_train(folder: str) -> None:
    """Label one clean sample as a defect; synthesis refuses the pool."""
    path = os.path.join(folder, "clean.jsonl")
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    rows[0]["label"] = "READABILITY"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(row) + "\n" for row in rows)


def break_mine(folder: str) -> None:
    """Forget one planted log-only commit."""
    path = os.path.join(folder, "planted.json")
    with open(path, encoding="utf-8") as fh:
        planted = json.load(fh)
    planted["log_only_commits"].pop()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(planted, fh)


@pytest.mark.parametrize("workload,breaker", [
    ("audit", break_audit), ("train", break_train), ("mine", break_mine)])
def test_broken_input_fails_the_checks(tmp_path, monkeypatch, workload,
                                       breaker):
    monkeypatch.chdir(ROOT)
    folder = str(tmp_path / "inputs")
    worker.setup(workload, "tiny", 5, folder)
    assert worker.run(workload, folder, traced=False)["problems"] == []
    breaker(folder)
    assert worker.run(workload, folder, traced=False)["problems"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(str(tmp_path), "--workload", "mine", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_children_on_the_same_thread():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))

    def outer():
        inner()
        inner()

    outer = tracer.wrap("outer", outer)
    threads = [threading.Thread(target=outer) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    by_id = {s.span_id: s for s in tracer.spans}
    assert tracer.calls("outer") == 3 and tracer.calls("inner") == 6
    for s in tracer.spans:
        if s.name == "inner":
            parent = by_id[s.parent]
            assert parent.name == "outer"
            assert parent.start <= s.start <= s.end <= parent.end
        else:
            assert s.parent is None
    self_time = tracer.self_time("outer")
    assert 0 <= self_time
    assert self_time == pytest.approx(
        tracer.total("outer") - tracer.total("inner"))
