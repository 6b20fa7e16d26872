"""Command-line interface wiring the toolkit into subcommands.

Subcommands: extract, mine, synthesize, train, detect, fix, evaluate.
Exit codes: 0 success, 1 usage error, 2 data/config error, 3 backend error.
Human-readable diagnostics go to standard error; machine output goes only to
the files named by --out (or --model).
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass, fields, replace
from typing import get_type_hints

from .backends import (
    BackendError,
    HttpBackend,
    LlmBackend,
    MockBackend,
    load_transcript,
)
from .detector import TrainConfig, load_checkpoint, predict, save_checkpoint, train
from .metrics import aggregate_update_records, detection_metrics, evaluate_update
from .mining import FixtureHistoryProvider, GitHistoryProvider, extract_lccs
from .model import (
    LABEL_INDEX,
    LABELS,
    DefectLabel,
    Detection,
    MethodRecord,
    TruthRecord,
    UpdateResult,
    from_dict,
    read_changes,
    read_jsonl,
    read_samples,
    to_dict,
    write_changes,
    write_jsonl,
    write_samples,
)
from .parser import ParserConfig, decode_source, extract_file
from .repair import RepairConfig, run_pipeline_batch
from .retrieval import DEFAULT_B, DEFAULT_K1, build_pool
from .synthesis import (
    load_antonym_table,
    load_typo_lexicon,
    load_verb_lexicon,
    synthesize_corpus,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_BACKEND = 3


class DataError(Exception):
    """Bad input file, bad config, or a domain invariant violation."""


class _UsageError(Exception):
    """Raised by the argument parser instead of exiting the process."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; this tool reserves 2
    # for data errors, so route usage problems through an exception.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# Configuration file
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RetrievalSettings:
    k: int = 3
    k1: float = DEFAULT_K1
    b: float = DEFAULT_B


@dataclass(frozen=True)
class BackendSettings:
    kind: str = "mock"
    endpoint: str = ""
    model: str = ""
    timeout_seconds: float = 60.0
    # mock only: JSON file of {"pattern": regex, "reply": text} entries
    transcript: str = ""


@dataclass(frozen=True)
class LexiconPaths:
    typos: str = ""
    verbs: str = ""
    antonyms: str = ""


@dataclass(frozen=True)
class ToolConfig:
    parser: ParserConfig
    train: TrainConfig
    retrieval: RetrievalSettings
    backend: BackendSettings
    paths: LexiconPaths


def _strict_section(raw: object, name: str, cls):
    try:
        section = from_dict(cls, raw)
    except ValueError as exc:
        raise DataError(f"config section {name!r}: {exc}") from exc
    unknown = sorted(set(raw) - {f.name for f in fields(cls)})
    if unknown:
        raise DataError(f"config section {name!r}: unknown keys {unknown}")
    return section


def load_config(path: str | None) -> ToolConfig:
    """Load the shared JSON config; unknown keys at any level are errors.

    Every field has a default, so a missing or empty file yields a fully
    usable configuration.
    """
    raw: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise DataError(f"cannot read config {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise DataError(f"config {path!r} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise DataError(f"config {path!r} must contain a JSON object")
    sections = get_type_hints(ToolConfig)
    unknown = sorted(set(raw) - set(sections))
    if unknown:
        raise DataError(f"config: unknown top-level keys {unknown}")
    return ToolConfig(**{name: _strict_section(raw.get(name, {}), name, cls)
                         for name, cls in sections.items()})


def make_backend(settings: BackendSettings,
                 kind: str | None = None) -> LlmBackend:
    kind = kind or settings.kind
    if kind == "mock":
        transcript = (load_transcript(settings.transcript)
                      if settings.transcript else None)
        try:
            return MockBackend(transcript)
        except re.error as exc:  # not a ValueError
            raise DataError(f"{settings.transcript}: TranscriptEntry.pattern "
                            f"{exc.pattern!r}: {exc}") from exc
    if kind == "http":
        if not settings.endpoint or not settings.model:
            raise DataError(
                "http backend needs backend.endpoint and backend.model "
                "in the config file")
        return HttpBackend(settings.endpoint, settings.model,
                           settings.timeout_seconds)
    raise DataError(f"unknown backend kind {kind!r} (expected mock or http)")


def _note(message: str) -> None:
    print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------
def cmd_extract(args, config: ToolConfig) -> int:
    if not os.path.isdir(args.root):
        raise DataError(f"not a directory: {args.root!r}")
    paths = []
    for base, dirs, names in os.walk(args.root):
        dirs.sort()
        for name in sorted(names):
            if fnmatch.fnmatch(name, args.glob):
                paths.append(os.path.join(base, name))
    records = []
    methods = statements = 0
    for path in paths:
        rel = os.path.relpath(path, args.root).replace(os.sep, "/")
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            rel.encode("utf-8")  # fails on an undecodable name
            source = decode_source(data)
        except UnicodeError:
            shown = os.fsencode(rel).decode("utf-8", "backslashreplace")
            _note(f"extract: {shown}: not UTF-8 text, file skipped")
            continue
        result = extract_file(source, rel, config.parser, args.project)
        for err in result.errors:
            _note(f"extract: {err}")
        for ctx, parsed in result.records:
            records.append(MethodRecord(
                ctx, tuple(p.statement for p in parsed)))
            methods += 1
            statements += len(parsed)
    write_jsonl(args.out, map(to_dict, records))
    _note(f"extract: {len(paths)} files -> {methods} methods, "
          f"{statements} statements -> {args.out}")
    return EXIT_OK


def cmd_mine(args, config: ToolConfig) -> int:
    if not os.path.isdir(args.repo):
        raise DataError(f"not a directory: {args.repo!r}")
    # `.git` is a file in a linked worktree or a submodule checkout
    if os.path.exists(os.path.join(args.repo, ".git")):
        provider = GitHistoryProvider(args.repo, args.since)
    else:
        if args.since:
            _note("mine: snapshot directories carry no dates; --since ignored")
        provider = FixtureHistoryProvider(args.repo)
    commits = 0

    def counted_pairs():
        nonlocal commits
        for pair in provider.commit_pairs():
            commits += 1
            yield pair

    # the providers read the history while extract_lccs consumes it
    try:
        changes = extract_lccs(counted_pairs(), config.parser, args.project)
    except (subprocess.CalledProcessError, OSError) as exc:
        raise DataError(f"cannot read history from {args.repo!r}: {exc}") from exc
    write_changes(args.out, changes)
    _note(f"mine: {commits} commits -> {len(changes)} log-centric "
          f"changes -> {args.out}")
    return EXIT_OK


def cmd_synthesize(args, config: ToolConfig) -> int:
    clean = read_samples(args.in_path)
    if not clean:
        raise DataError(f"no samples in {args.in_path!r}")
    backend = make_backend(config.backend, args.llm) if args.llm else None
    seed = args.seed if args.seed is not None else config.train.seed
    mutated = synthesize_corpus(
        clean, args.per_type, seed,
        backend=backend,
        typo_lexicon=load_typo_lexicon(config.paths.typos or None),
        verb_lexicon=load_verb_lexicon(config.paths.verbs or None),
        antonyms=load_antonym_table(config.paths.antonyms or None),
        parser_config=config.parser,
    )
    # the training corpus is the clean pool plus its mutants
    write_samples(args.out, clean + mutated)
    _note(f"synthesize: {len(clean)} clean + {len(mutated)} mutated "
          f"-> {args.out}")
    return EXIT_OK


def cmd_train(args, config: ToolConfig) -> int:
    corpus = read_samples(args.corpus)
    train_config = config.train
    if args.seed is not None:
        train_config = replace(train_config, seed=args.seed)
    model, head, history = train(corpus, train_config)
    save_checkpoint(args.model, model, head, train_config)
    for row in history:
        _note(f"train: epoch {row['epoch']}: loss {row['train_loss']:.4f}, "
              f"val F1-macro {row['val_f1_macro']:.4f}")
    _note(f"train: {len(corpus)} samples -> {args.model}")
    return EXIT_OK


def _detect_one(ctx, stmt, model, head,
                max_tokens: int) -> tuple[DefectLabel, float]:
    """The predicted label of one statement and its probability."""
    label, probs = predict(ctx, stmt, model, head, max_tokens)
    return label, float(probs[LABEL_INDEX[label]])


def cmd_detect(args, config: ToolConfig) -> int:
    model, head, train_config = load_checkpoint(args.model)
    records = []
    for d in read_jsonl(args.in_path):
        r = from_dict(MethodRecord, d)
        for stmt in r.statements:
            records.append(Detection(r.method, stmt, *_detect_one(
                r.method, stmt, model, head, train_config.max_tokens)))
    write_jsonl(args.out, map(to_dict, records))
    defects = sum(1 for r in records
                  if r.predicted_label is not DefectLabel.NON_DEFECT)
    _note(f"detect: {len(records)} statements, {defects} flagged "
          f"-> {args.out}")
    return EXIT_OK


def _read_statement_items(path: str):
    """(context, statement, detection) items from detection records
    ({method, statement, predicted_label, confidence}) or extract records
    ({method, statements}). An item's detection is (label, confidence), or
    None for a statement of an extract record."""
    items = []
    for d in read_jsonl(path):
        if type(d) is dict and "statements" in d:
            m = from_dict(MethodRecord, d)
            items.extend((m.method, stmt, None) for stmt in m.statements)
        else:
            r = from_dict(Detection, d)
            items.append((r.method, r.statement,
                          (r.predicted_label, r.confidence)))
    return items


def cmd_fix(args, config: ToolConfig) -> int:
    k = args.exemplars if args.exemplars is not None else config.retrieval.k
    if k < 1:
        raise DataError(f"exemplars per prompt must be >= 1, got {k}")
    if args.jobs < 1:
        raise DataError(f"--jobs must be >= 1, got {args.jobs}")
    items = _read_statement_items(args.in_path)
    if any(detection is None for _, _, detection in items):
        if args.model is None:
            raise DataError("records without predicted labels need --model")
        model, head, train_config = load_checkpoint(args.model)
        max_tokens = train_config.max_tokens
        items = [(ctx, stmt,
                  detection or _detect_one(ctx, stmt, model, head, max_tokens))
                 for ctx, stmt, detection in items]
    lccs = read_changes(args.lcc) if args.lcc else []
    pool = build_pool(lccs, config.retrieval.k1, config.retrieval.b)
    backend = make_backend(config.backend, args.backend)
    repair_config = RepairConfig(exemplar_count=k, workers=args.jobs,
                                 parser_config=config.parser)
    results = run_pipeline_batch(items, pool, backend, repair_config)
    write_jsonl(args.out, map(to_dict, results))
    updated = sum(1 for r in results if r.updated_statement is not None)
    failed = sum(1 for r in results
                 if any(d.startswith("backend-error:") for d in r.diagnostics))
    _note(f"fix: {len(results)} statements, {updated} updated -> {args.out}")
    if failed:
        _note(f"fix: {failed} statements hit backend errors")
        return EXIT_BACKEND
    return EXIT_OK


def cmd_evaluate(args, config: ToolConfig) -> int:
    results = [from_dict(UpdateResult, d) for d in read_jsonl(args.results)]
    if not results:
        raise DataError(f"no results in {args.results!r}")
    truth = {t.statement_id: t for t in
             (from_dict(TruthRecord, d) for d in read_jsonl(args.truth))}
    preds, golds, per_sample = [], [], []
    for result in results:
        target = result.sample.target
        gold = truth.get(target.id)
        if gold is None:
            raise DataError(f"no ground truth for statement {target.id} "
                            f"({target.raw_text!r})")
        preds.append(result.predicted_label)
        golds.append(gold.label)
        if gold.label is not DefectLabel.NON_DEFECT:
            per_sample.append(evaluate_update(
                target, result.updated_statement, gold.statement))
    detection = detection_metrics(preds, golds)
    report = {
        "detection": {
            "per_class": {label.value: to_dict(detection.per_class[label])
                          for label in LABELS},
            "f1_macro": detection.f1_macro,
            "samples": len(results),
        },
        "update": aggregate_update_records(per_sample),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    _note(f"evaluate: {len(results)} results, {len(per_sample)} scored "
          f"updates -> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------
def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="FILE",
                        help="JSON configuration file (strict schema)")
    seeded = _Parser(add_help=False)
    seeded.add_argument("--seed", type=int,
                        help="override the configured random seed")

    parser = _Parser(prog="logfix",
                     description="Detect and repair factual defects in "
                                 "logging statements.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="COMMAND")

    p = sub.add_parser("extract", parents=[common],
                       help="pull logging statements out of a source tree")
    p.add_argument("--root", required=True, help="source directory to scan")
    p.add_argument("--glob", default="*.java",
                   help="filename filter (default: *.java)")
    p.add_argument("--project", default="", help="project id to stamp")
    p.add_argument("--out", required=True, help="methods JSONL to write")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("mine", parents=[common],
                       help="mine log-centric changes from history")
    p.add_argument("--repo", required=True,
                   help="git repository or snapshot directory")
    p.add_argument("--since", help="only consider commits after this date")
    p.add_argument("--project", default="", help="project id to stamp")
    p.add_argument("--out", required=True, help="changes JSONL to write")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("synthesize", parents=[common, seeded],
                       help="mutate clean statements into a defect corpus")
    p.add_argument("--in", dest="in_path", required=True,
                   help="clean-sample JSONL")
    p.add_argument("--out", required=True,
                   help="training corpus JSONL (clean + mutants)")
    p.add_argument("--per-type", dest="per_type", type=int, required=True,
                   help="samples to synthesize per defect type")
    p.add_argument("--llm", metavar="BACKEND", choices=["mock", "http"],
                   help="backend for semantic mutations (default: rules only)")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("train", parents=[common, seeded],
                       help="train the defect classifier")
    p.add_argument("--corpus", required=True, help="labeled-sample JSONL")
    p.add_argument("--model", required=True, help="checkpoint file to write")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("detect", parents=[common],
                       help="classify statements with a trained model")
    p.add_argument("--in", dest="in_path", required=True,
                   help="methods JSONL from extract")
    p.add_argument("--model", required=True, help="checkpoint file to read")
    p.add_argument("--out", required=True, help="detections JSONL to write")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("fix", parents=[common],
                       help="confirm and rewrite detected defects")
    p.add_argument("--in", dest="in_path", required=True,
                   help="detections JSONL from detect (or methods JSONL "
                        "from extract, with --model)")
    p.add_argument("--lcc", help="log-centric changes JSONL for exemplars")
    p.add_argument("--model",
                   help="checkpoint that labels records without a "
                        "predicted label (extract records)")
    p.add_argument("--backend", choices=["mock", "http"],
                   help="completion backend (default: from config)")
    p.add_argument("--exemplars", type=int, metavar="K",
                   help="exemplars per prompt, at least 1 "
                        "(default: from config)")
    p.add_argument("--jobs", type=int, metavar="N",
                   default=RepairConfig.workers,
                   help="worker threads for backend calls, at least 1 "
                        "(default: %(default)s)")
    p.add_argument("--out", required=True, help="results JSONL to write")
    p.set_defaults(func=cmd_fix)

    p = sub.add_parser("evaluate", parents=[common],
                       help="score pipeline results against ground truth")
    p.add_argument("--results", required=True, help="results JSONL from fix")
    p.add_argument("--truth", required=True,
                   help="ground-truth JSONL (statement_id, label, statement)")
    p.add_argument("--out", required=True, help="report JSON to write")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError:
        return EXIT_USAGE
    except SystemExit as exc:  # --help exits through argparse
        return int(exc.code or 0)
    try:
        config = load_config(args.config)
        return args.func(args, config)
    except _UsageError:
        return EXIT_USAGE
    except BackendError as exc:
        print(f"logfix: backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except DataError as exc:
        print(f"logfix: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (OSError, ValueError, LookupError) as exc:
        print(f"logfix: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
