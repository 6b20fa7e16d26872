"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed and of the 25 clean Java
files bundled under tests/fixtures/clean: the same seed writes the same
bytes. Defects are planted through the public ``logfix.synthesis.mutate_*``
functions, so the planted text is what the synthesizer itself would produce.

- ``make_audit``: a source tree of copies of the clean files with a few
  statements mutated, its truth file, and a mined-change pool split across
  two projects; ``make_checkpoint`` trains the detector it audits with.
- ``make_train``: the clean statements as a NON_DEFECT sample file.
- ``make_mine``: a git repository written with ``git fast-import`` whose
  first-parent history mixes log-text-only, Java-code and non-Java commits,
  plus the list of log-only commit ids.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
from dataclasses import replace

from logfix import cli
from logfix.model import (
    DefectLabel,
    LabeledSample,
    LogCentricChange,
    Provenance,
    ProvenanceKind,
    dumps_line,
    statement_to_dict,
    write_changes,
    write_samples,
)
from logfix.parser import extract_file
from logfix.synthesis import (
    NoCandidate,
    NoMutableWord,
    mutate_readability,
    mutate_semantic,
    mutate_tense,
)

CLEAN_DIR = os.path.join("tests", "fixtures", "clean")
DEFECTS = (
    DefectLabel.STATEMENT_CODE,
    DefectLabel.STATIC_DYNAMIC,
    DefectLabel.TEMPORAL,
    DefectLabel.READABILITY,
)
AUDIT_PROJECT = "audit"
OTHER_PROJECT = "legacy"
# The audit checkpoint is acceptance check 3's corpus trained for 3 epochs
# at lr 5e-3 instead of 10 at 3e-3, to keep set-up short; it still labels
# every statement of the generated trees correctly. It does not depend on
# the benchmark seed: a checkpoint trained per seed misclassifies a
# different few clean statements each time, and the tree holds 10 copies of
# each, so the fix stage's work and f1_macro would move with the seed.
AUDIT_TRAIN_CONFIG = {"train": {"learning_rate": 5e-3, "epochs": 3}}
AUDIT_PER_TYPE = 500
CHECKPOINT_SEED = 0
# The train workload: acceptance check 3's recipe.
TRAIN_CONFIG = {"train": {"learning_rate": 3e-3, "epochs": 10}}
# Input sizes per workload. "tiny" is for the benchmark's own tests.
SIZES = {
    "full": {
        "audit": {"copies": 10, "defects_per_class": 8, "pool_size": 1000},
        "train": {"per_type": 500},
        "mine": {"commits": 300},
    },
    "tiny": {
        "audit": {"copies": 1, "defects_per_class": 2, "pool_size": 40},
        "train": {"per_type": 500},
        "mine": {"commits": 30},
    },
}
# Fixed committer clock so that commit ids depend only on the seed.
EPOCH = 1_700_000_000


def clean_files(root: str) -> list[tuple[str, str]]:
    """(file name, text) of every bundled clean file, in name order."""
    folder = os.path.join(root, CLEAN_DIR)
    out = []
    for name in sorted(os.listdir(folder)):
        if name.endswith(".java"):
            with open(os.path.join(folder, name), encoding="utf-8") as fh:
                out.append((name, fh.read()))
    if not out:
        raise FileNotFoundError(f"no clean Java files under {folder}")
    return out


def clean_samples(files: list[tuple[str, str]], project: str) -> list[LabeledSample]:
    samples = []
    for name, text in files:
        for ctx, parsed in extract_file(text, name, None, project).records:
            for p in parsed:
                samples.append(LabeledSample(
                    context=ctx, target=p.statement,
                    label=DefectLabel.NON_DEFECT,
                    provenance=Provenance(kind=ProvenanceKind.WELL_MAINTAINED)))
    return samples


def mutate(label: DefectLabel, sample: LabeledSample, rng_seed: str):
    """One planted defect of `label`, or None when the statement has none."""
    try:
        if label is DefectLabel.READABILITY:
            return mutate_readability(sample.target, rng_seed=rng_seed)[0]
        if label is DefectLabel.TEMPORAL:
            found = mutate_tense(sample.target, rng_seed=rng_seed)
            return found[0] if found else None
        return mutate_semantic(sample.target, sample.context, label,
                               rng_seed=rng_seed)[0]
    except (NoMutableWord, NoCandidate):
        return None


def _replace_line(text: str, line: int, old: str, new: str) -> str:
    lines = text.split("\n")
    if old not in lines[line - 1]:
        raise ValueError(f"statement not on line {line}: {old!r}")
    lines[line - 1] = lines[line - 1].replace(old, new, 1)
    return "\n".join(lines)


def _cli(argv: list[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"logfix {argv[0]} exited with {code}")


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------
def make_audit(root: str, out: str, seed: int, copies: int,
               defects_per_class: int, pool_size: int) -> dict:
    """Write tree/, truth.jsonl and pool.jsonl under `out`."""
    files = clean_files(root)
    rng = random.Random(f"audit|{seed}")
    tree = os.path.join(out, "tree")
    # (rel path, clean text) of every file of the tree
    sources = [(f"copy{c:02d}/{name}", text)
               for c in range(copies) for name, text in files]
    clean_by_file = [clean_samples([source], AUDIT_PROJECT)
                     for source in sources]
    slots = [(fi, sample) for fi, samples in enumerate(clean_by_file)
             for sample in samples]
    order = list(range(len(slots)))
    rng.shuffle(order)

    texts = [text for _, text in sources]
    planted: dict[tuple[int, int], DefectLabel] = {}
    wanted = [label for label in DEFECTS for _ in range(defects_per_class)]
    for slot in order:
        if not wanted:
            break
        fi, sample = slots[slot]
        mutant = mutate(wanted[-1], sample, f"{seed}|tree|{slot}")
        if mutant is None:
            continue
        loc = sample.target.location
        texts[fi] = _replace_line(texts[fi], loc.start_line,
                                  sample.target.raw_text, mutant.raw_text)
        planted[(fi, loc.start_line)] = wanted.pop()
    if wanted:
        raise RuntimeError(f"audit: {len(wanted)} defects could not be planted")

    truth = []
    for fi, (rel, clean_text) in enumerate(sources):
        path = os.path.join(tree, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(texts[fi])
        clean = {s.target.location.start_line: s.target
                 for s in clean_by_file[fi]}
        final = (clean_by_file[fi] if texts[fi] == clean_text
                 else clean_samples([(rel, texts[fi])], AUDIT_PROJECT))
        for s in final:
            line = s.target.location.start_line
            label = planted.get((fi, line), DefectLabel.NON_DEFECT)
            truth.append(dumps_line({
                "statement_id": s.target.id,
                "label": label.value,
                "statement": statement_to_dict(clean[line]),
            }))
    with open(os.path.join(out, "truth.jsonl"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(truth) + "\n")

    pool_samples = clean_samples(files, AUDIT_PROJECT)
    changes: list[LogCentricChange] = []
    seen: set[tuple[str, str]] = set()
    attempt = 0
    while len(changes) < pool_size:
        attempt += 1
        if attempt > 20 * pool_size:
            raise RuntimeError(f"audit: pool stuck at {len(changes)} changes")
        sample = pool_samples[rng.randrange(len(pool_samples))]
        label = DEFECTS[len(changes) % len(DEFECTS)]
        mutant = mutate(label, sample, f"{seed}|pool|{attempt}")
        if mutant is None or (sample.target.id, mutant.raw_text) in seen:
            continue
        seen.add((sample.target.id, mutant.raw_text))
        project = (AUDIT_PROJECT if len(changes) < pool_size // 2
                   else OTHER_PROJECT)
        changes.append(LogCentricChange(
            project_id=project, commit_id=f"{project}-{len(changes):05d}",
            before=mutant, after=sample.target,
            context=replace(sample.context, project_id=project)))
    write_changes(os.path.join(out, "pool.jsonl"), changes)

    return {"files": len(sources), "statements": len(truth),
            "defects": len(planted), "pool": len(changes)}


def make_checkpoint(root: str, out: str) -> None:
    """Train the audit checkpoint into out/model.json through the CLI."""
    clean_path = os.path.join(out, "clean.jsonl")
    corpus = os.path.join(out, "corpus.jsonl")
    config = os.path.join(out, "train-config.json")
    write_samples(clean_path, clean_samples(clean_files(root), "clean-corpus"))
    _write_json(config, AUDIT_TRAIN_CONFIG)
    _cli(["synthesize", "--in", clean_path, "--out", corpus,
          "--per-type", str(AUDIT_PER_TYPE), "--seed", str(CHECKPOINT_SEED)])
    _cli(["train", "--corpus", corpus, "--model",
          os.path.join(out, "model.json"), "--config", config,
          "--seed", str(CHECKPOINT_SEED)])
    for name in (clean_path, corpus, config):
        os.remove(name)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------
def make_train(root: str, out: str, seed: int, per_type: int) -> dict:
    """Write clean.jsonl (in seeded order) and the training config."""
    samples = clean_samples(clean_files(root), "clean-corpus")
    random.Random(f"train|{seed}").shuffle(samples)
    write_samples(os.path.join(out, "clean.jsonl"), samples)
    _write_json(os.path.join(out, "train-config.json"), TRAIN_CONFIG)
    return {"clean": len(samples), "per_type": per_type}


# ---------------------------------------------------------------------------
# mine
# ---------------------------------------------------------------------------
OTHER_FILES = ("README.md", "build.gradle", "conf/app.properties")


def _log_edit(text: str, path: str, rng: random.Random, tag: str) -> str:
    samples = clean_samples([(path, text)], "")
    for _ in range(100):
        sample = samples[rng.randrange(len(samples))]
        mutant = mutate(rng.choice(DEFECTS), sample, f"{tag}|{rng.random()}")
        if mutant is not None:
            loc = sample.target.location
            return _replace_line(text, loc.start_line, sample.target.raw_text,
                                 mutant.raw_text)
    raise RuntimeError(f"mine: no log edit found in {path}")


def _code_edit(text: str, path: str, rng: random.Random, tag: str) -> str:
    """Append a revision comment to one code line outside any log call."""
    log_lines = {s.target.location.start_line
                 for s in clean_samples([(path, text)], "")}
    lines = text.split("\n")
    candidates = [i for i, line in enumerate(lines)
                  if line.startswith("        ") and line.rstrip().endswith(";")
                  and i + 1 not in log_lines]
    i = candidates[rng.randrange(len(candidates))]
    lines[i] += f" // rev {tag}"
    return "\n".join(lines)


def _fast_import_stream(commits: list[tuple[str, dict[str, str]]]) -> bytes:
    out = bytearray()

    def data(payload: str) -> None:
        raw = payload.encode("utf-8")
        out.extend(b"data %d\n" % len(raw))
        out.extend(raw)
        out.extend(b"\n")

    for n, (message, changed) in enumerate(commits):
        out.extend(b"commit refs/heads/main\n")
        out.extend(b"committer Bench <bench@example.invalid> %d +0000\n"
                   % (EPOCH + 60 * n))
        data(message)
        for path in sorted(changed):
            out.extend(f"M 100644 inline {path}\n".encode("utf-8"))
            data(changed[path])
    return bytes(out)


def make_mine(root: str, out: str, seed: int, commits: int) -> dict:
    """Write repo/ (a git repository) and planted.json under `out`."""
    rng = random.Random(f"mine|{seed}")
    tree = {f"src/main/java/bench/{name}": text
            for name, text in clean_files(root)}
    tree.update({"README.md": "# bench\n",
                 "build.gradle": "apply plugin: 'java'\n",
                 "conf/app.properties": "app.name=bench\n"})
    java = sorted(p for p in tree if p.endswith(".java"))
    kinds = ["log", "code", "other"] * (commits // 3)
    kinds += ["log"] * (commits - len(kinds))
    rng.shuffle(kinds)
    history = [("base", dict(tree))]
    for n, kind in enumerate(kinds, start=1):
        if kind == "other":
            path = rng.choice(OTHER_FILES)
            text = tree[path] + f"# change {n}\n"
        else:
            path = rng.choice(java)
            edit = _log_edit if kind == "log" else _code_edit
            text = edit(tree[path], path, rng, f"{seed}|{n}")
        tree[path] = text
        history.append((f"{kind} edit {n}", {path: text}))

    repo = os.path.join(out, "repo")
    subprocess.run(["git", "init", "-q", "-b", "main", repo], check=True)
    subprocess.run(["git", "-C", repo, "fast-import", "--quiet"],
                   input=_fast_import_stream(history), check=True)
    shas = subprocess.run(
        ["git", "-C", repo, "rev-list", "--reverse", "--first-parent",
         "main"], capture_output=True, text=True, check=True).stdout.split()
    planted = [sha for sha, kind in zip(shas[1:], kinds) if kind == "log"]
    _write_json(os.path.join(out, "planted.json"),
                {"commits": len(kinds), "log_only_commits": planted})
    return {"commits": len(kinds), "log_only": len(planted),
            "head": shas[-1]}
