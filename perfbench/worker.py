"""One child process of the benchmark: a set-up or a timed repetition.

    python3 perfbench/worker.py setup <workload> <size> <seed> <dir> <record>
    python3 perfbench/worker.py run <workload> <dir> <trace 0|1> <record>

Run it from the root of a logfix checkout; logfix is imported from ./src.
`setup` writes the workload's inputs into <dir>. `run` times the workload's
stages through ``logfix.cli.main``, then checks their outputs. Both write a
JSON record to <record>.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import inputs  # noqa: E402
import spans  # noqa: E402
from logfix import cli  # noqa: E402

# fix --jobs: nproc of the 2-CPU machine the benchmark was written on.
JOBS = 2
MIN_F1 = 0.90


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def tree_digest(folder: str) -> str:
    """Digest of every file under `folder`, git's object store excepted
    (mine's planted.json holds the commit ids, which hash the history)."""
    h = hashlib.sha256()
    for base, dirs, names in os.walk(folder):
        dirs[:] = sorted(d for d in dirs if d != ".git")
        for name in sorted(names):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, folder).encode("utf-8") + b"\0")
            h.update(sha256(path).encode("ascii"))
    return h.hexdigest()


def read_rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------
def setup(workload: str, size: str, seed: int, folder: str) -> dict:
    os.makedirs(folder, exist_ok=True)
    root = os.getcwd()
    start = time.perf_counter()
    make = {"audit": inputs.make_audit, "train": inputs.make_train,
            "mine": inputs.make_mine}[workload]
    sizes = make(root, folder, seed, **inputs.SIZES[size][workload])
    if workload == "audit":
        inputs.make_checkpoint(root, folder)
    seconds = time.perf_counter() - start
    meta = {"workload": workload, "seed": seed, "sizes": sizes}
    with open(os.path.join(folder, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, sort_keys=True)
    return {"seconds": seconds, "sizes": sizes, "digest": tree_digest(folder)}


# ---------------------------------------------------------------------------
# timed stages
# ---------------------------------------------------------------------------
def heldout(corpus_path: str, model_path: str, seed: int, out: str) -> int:
    """Macro-F1 of the trained checkpoint on the test part of the corpus
    split that training used. Functions are looked up on their modules at
    call time so that the tracer sees them."""
    from logfix import detector, metrics, model

    corpus = model.read_samples(corpus_path)
    _, _, test = detector.stratified_split(corpus, seed)
    encoder, head, config = detector.load_checkpoint(model_path)
    preds = [detector.predict(s.context, s.target, encoder, head,
                              config.max_tokens)[0] for s in test]
    report = metrics.detection_metrics(preds, [s.label for s in test])
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"f1_macro": report.f1_macro, "samples": len(test)}, fh)
    return 0


def stages(workload: str, d: str, o: str, meta: dict) -> list:
    """(stage name, argv for logfix.cli.main or a callable) in run order."""
    j = os.path.join
    if workload == "audit":
        model = j(d, "model.json")
        return [
            ("extract", ["extract", "--root", j(d, "tree"), "--project",
                         inputs.AUDIT_PROJECT, "--out", j(o, "methods.jsonl")]),
            ("detect", ["detect", "--in", j(o, "methods.jsonl"), "--model",
                        model, "--out", j(o, "detections.jsonl")]),
            ("fix", ["fix", "--in", j(o, "detections.jsonl"), "--model", model,
                     "--lcc", j(d, "pool.jsonl"), "--jobs", str(JOBS),
                     "--out", j(o, "results.jsonl")]),
            ("evaluate", ["evaluate", "--results", j(o, "results.jsonl"),
                          "--truth", j(d, "truth.jsonl"),
                          "--out", j(o, "report.json")]),
        ]
    seed = str(meta["seed"])
    if workload == "train":
        return [
            ("synthesize", ["synthesize", "--in", j(d, "clean.jsonl"),
                            "--out", j(o, "corpus.jsonl"), "--per-type",
                            str(meta["sizes"]["per_type"]), "--seed", seed]),
            ("train", ["train", "--corpus", j(o, "corpus.jsonl"), "--model",
                       j(o, "model.json"), "--config",
                       j(d, "train-config.json"), "--seed", seed]),
            ("heldout", lambda: heldout(j(o, "corpus.jsonl"),
                                        j(o, "model.json"), meta["seed"],
                                        j(o, "heldout.json"))),
        ]
    return [("mine", ["mine", "--repo", j(d, "repo"), "--project", "bench",
                      "--out", j(o, "changes.jsonl")])]


# ---------------------------------------------------------------------------
# Correctness checks. Each returns the problems found, the f1_macro, the
# facts that per-layer ratios divide by, output digests, and the operations
# beyond the stages themselves (fix results) with how many of them failed.
# ---------------------------------------------------------------------------
def check_audit(d: str, o: str, meta: dict):
    problems = []
    f1 = read_json(os.path.join(o, "report.json"))["detection"]["f1_macro"]
    if f1 < MIN_F1:
        problems.append(f"f1_macro {f1:.4f} < {MIN_F1}")
    truth = read_rows(os.path.join(d, "truth.jsonl"))
    rows = read_rows(os.path.join(o, "results.jsonl"))
    if len(rows) != len(truth):
        problems.append(f"{len(rows)} results for {len(truth)} statements")
    facts = {"statements": len(truth), "defects": 0, "confirmed": 0,
             "backend_errors": 0, "empty_pool": 0}
    bad_budget = 0
    for row in rows:
        diagnostics = row["diagnostics"]
        last = diagnostics[-1] if diagnostics else ""
        if row["predicted_label"] == "NON_DEFECT":
            bad_budget += last != "backend-calls:0"
            continue
        facts["defects"] += 1
        facts["confirmed"] += bool(row["checker_confirmed"])
        if row["checker_confirmed"]:
            bad_budget += last != "backend-calls:2"
        facts["backend_errors"] += any(
            x.startswith("backend-error:") for x in diagnostics)
        facts["empty_pool"] += "empty-exemplar-pool" in diagnostics
    if bad_budget:
        problems.append(f"{bad_budget} results spent an unexpected number "
                        "of backend calls")
    return {"problems": problems, "f1": f1, "facts": facts,
            "digests": {"results.jsonl": sha256(os.path.join(o, "results.jsonl"))},
            "operations": len(rows), "failed": facts["backend_errors"]}


def check_train(d: str, o: str, meta: dict):
    problems = []
    held = read_json(os.path.join(o, "heldout.json"))
    f1 = held["f1_macro"]
    if f1 < MIN_F1:
        problems.append(f"held-out f1_macro {f1:.4f} < {MIN_F1}")
    corpus = len(read_rows(os.path.join(o, "corpus.jsonl")))
    mutants = 4 * meta["sizes"]["per_type"]
    if corpus != meta["sizes"]["clean"] + mutants:
        problems.append(f"corpus has {corpus} samples, expected "
                        f"{meta['sizes']['clean']} + {mutants}")
    return {"problems": problems, "f1": f1,
            "facts": {"statements": held["samples"],
                      "mutants": corpus - meta["sizes"]["clean"]},
            "digests": {name: sha256(os.path.join(o, name))
                        for name in ("corpus.jsonl", "model.json")},
            "operations": 0, "failed": 0}


def check_mine(d: str, o: str, meta: dict):
    problems = []
    planted = read_json(os.path.join(d, "planted.json"))
    expected = planted["log_only_commits"]
    found = [row["commit_id"] for row in
             read_rows(os.path.join(o, "changes.jsonl"))]
    if sorted(found) != sorted(expected):
        problems.append(f"mined {len(found)} changes from "
                        f"{len(set(found) - set(expected))} unplanted commits, "
                        f"missed {len(set(expected) - set(found))} of "
                        f"{len(expected)} planted log-only commits")
    # Macro-F1 of the commits' log-only / other classification.
    commits = planted["commits"]
    tp = len(set(found) & set(expected))
    fp = len(set(found) - set(expected))
    fn = len(expected) - tp
    tn = commits - tp - fp - fn
    return {"problems": problems, "f1": (_f1(tp, fp, fn) + _f1(tn, fn, fp)) / 2,
            "facts": {"commits": commits, "lccs": len(found)},
            "digests": {"changes.jsonl": sha256(os.path.join(o, "changes.jsonl"))},
            "operations": 0, "failed": 0}


def _f1(tp: int, fp: int, fn: int) -> float:
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


CHECKS = {"audit": check_audit, "train": check_train, "mine": check_mine}


def run(workload: str, d: str, traced: bool) -> dict:
    meta = read_json(os.path.join(d, "meta.json"))
    out = os.path.join(d, "out")
    os.makedirs(out, exist_ok=True)
    tracer = spans.Tracer() if traced else None
    missing = spans.install(tracer) if tracer else []
    plan = stages(workload, d, out, meta)
    seconds: dict[str, float] = {}
    exits: dict[str, int] = {}
    start = time.perf_counter()
    for name, step in plan:
        t = time.perf_counter()
        code = step() if callable(step) else cli.main(step)
        seconds[name] = time.perf_counter() - t
        exits[name] = code
        if code != 0:
            break
    wall = time.perf_counter() - start
    record = {"wall_s": wall, "stages": seconds, "exits": exits,
              "missing_patch_points": missing}
    failed_stages = sum(1 for code in exits.values() if code != 0)
    if failed_stages:
        record.update(problems=[f"stage {name} exited {code}"
                                for name, code in exits.items() if code],
                      f1=0.0, digests={}, attempted=len(exits),
                      failed=failed_stages)
        return record
    record.update(CHECKS[workload](d, out, meta))
    record["attempted"] = len(exits) + record.pop("operations")
    if tracer:
        record["layers"] = spans.layer_metrics(tracer, record["facts"])
    return record


def main(argv: list[str]) -> int:
    mode, workload = argv[0], argv[1]
    if mode == "setup":
        size, seed, folder, record_path = argv[2], int(argv[3]), argv[4], argv[5]
        record = setup(workload, size, seed, folder)
    else:
        folder, traced, record_path = argv[2], argv[3] == "1", argv[4]
        record = run(workload, folder, traced)
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
