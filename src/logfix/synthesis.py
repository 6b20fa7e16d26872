"""Synthesis of labeled defective logging statements from clean samples.

Clean statements are mutated by one of three families of seeded edits:
spelling/capitalization damage (READABILITY), main-verb tense rewrites
(TEMPORAL), and semantic contradictions (STATEMENT_CODE / STATIC_DYNAMIC).
Every mutation edits only the statement text or its argument list, re-parses
the result, and rewrites the enclosing method source so the sample stays
internally consistent.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property, lru_cache
from importlib import resources
from pathlib import Path

from .backends import LlmBackend
from .model import (
    DefectLabel,
    LabeledSample,
    LoggingStatement,
    MethodContext,
    Provenance,
    ProvenanceKind,
    statement_offset,
    validate_sample,
)
from .parser import (
    ParsedStatement,
    ParserConfig,
    collect_scope_identifiers,
    parse_statement_text,
)
from .repair import MalformedReply, NotALoggingStatement, parse_tagged_reply
from .tokenization import split_tokens


class SynthesisError(Exception):
    """Base class for mutation and corpus-building failures."""


class NoMutableWord(SynthesisError):
    """The statement's static text has no word eligible for editing."""


class NoCandidate(SynthesisError):
    """No applicable rewrite exists for the requested mutation kind."""


class InsufficientInputs(SynthesisError):
    """The clean pool cannot yield the requested number of unique samples."""


# ---------------------------------------------------------------------------
# Lexicons
# ---------------------------------------------------------------------------
class Tense(Enum):
    # Definition order doubles as the resolution order for surface forms
    # that are shared between tenses (e.g. "started" reads as PAST first).
    BASE = "BASE"
    PAST = "PAST"
    PAST_PARTICIPLE = "PAST_PARTICIPLE"
    PRESENT_PARTICIPLE = "PRESENT_PARTICIPLE"
    THIRD_PERSON = "THIRD_PERSON"


@dataclass(frozen=True)
class LexiconPaths:
    """The lexicon files (TSV) the mutation rules read; "" names the
    bundled file."""

    typos: str = ""
    verbs: str = ""
    antonyms: str = ""


@dataclass(frozen=True)
class Lexicons:
    """The word lists the mutation rules read, keyed by lowercase words.
    The bundled set is one value shared by every caller: read it, never
    change it."""

    typos: dict[str, tuple[str, ...]]  # word -> its known misspellings
    verbs: dict[str, dict[Tense, str]]  # lemma -> its form per tense
    # surface form -> (lemma, tense), without the verb file's stop forms
    verb_index: dict[str, tuple[str, Tense]]
    antonyms: dict[str, str]  # both directions of each pair

    def classify(self, word: str) -> tuple[str, Tense] | None:
        """Map a surface form to (lemma, tense); None for non-verbs."""
        return self.verb_index.get(word.lower())

    def opposite(self, word: str) -> str | None:
        """Opposite of `word`; when the word is a known verb form the opposite
        lemma is conjugated into the same tense (closed -> opened)."""
        word = word.lower()
        classified = self.classify(word)
        if classified is not None:
            lemma, tense = classified
            opposite_lemma = self.antonyms.get(lemma)
            if opposite_lemma is not None:
                if opposite_lemma in self.verbs:
                    return self.verbs[opposite_lemma][tense]
                return opposite_lemma
        return self.antonyms.get(word)


def _lexicon_lines(path: str, bundled: str) -> list[str]:
    """The entry lines of the file at `path`, or of the bundled file
    `bundled` when `path` is "": UTF-8 less a leading BOM, without blank
    and "#" comment lines."""
    source = (Path(path) if path else
              resources.files("logfix.data").joinpath(bundled))
    return [line for line in
            source.read_text(encoding="utf-8-sig").splitlines()
            if line.strip() and not line.lstrip().startswith("#")]


def _typo_entries(lines: list[str]) -> dict[str, tuple[str, ...]]:
    entries: dict[str, tuple[str, ...]] = {}
    for line in lines:
        parts = [p.strip() for p in line.split("\t") if p.strip()]
        if len(parts) < 2:
            raise ValueError(f"typo lexicon line needs >=2 fields: {line!r}")
        correct = parts[0]
        if correct != correct.lower():
            raise ValueError(f"typo lexicon keys must be lowercase: {correct!r}")
        misspellings = tuple(dict.fromkeys(parts[1:]))
        if any(m.lower() == correct for m in misspellings):
            raise ValueError(f"typo lexicon maps {correct!r} to itself")
        entries.setdefault(correct, misspellings)
    return entries


def _regular_forms(lemma: str) -> dict[Tense, str]:
    if lemma.endswith(("s", "x", "z", "ch", "sh")):
        third = lemma + "es"
    elif lemma.endswith("y") and len(lemma) > 1 and lemma[-2] not in "aeiou":
        third = lemma[:-1] + "ies"
    else:
        third = lemma + "s"
    if lemma.endswith("e"):
        past = lemma + "d"
    elif lemma.endswith("y") and len(lemma) > 1 and lemma[-2] not in "aeiou":
        past = lemma[:-1] + "ied"
    else:
        past = lemma + "ed"
    if lemma.endswith("ie"):
        ing = lemma[:-2] + "ying"
    elif lemma.endswith("e") and not lemma.endswith("ee"):
        ing = lemma[:-1] + "ing"
    else:
        ing = lemma + "ing"
    return {
        Tense.BASE: lemma,
        Tense.PAST: past,
        Tense.PAST_PARTICIPLE: past,
        Tense.PRESENT_PARTICIPLE: ing,
        Tense.THIRD_PERSON: third,
    }


def _verb_tables(lines: list[str]) -> tuple[dict[str, dict[Tense, str]],
                                            dict[str, tuple[str, Tense]]]:
    """The forms per lemma and the index of surface forms."""
    forms: dict[str, dict[Tense, str]] = {}
    stop: set[str] = set()
    for line in lines:
        parts = line.split("\t")
        if parts[0].strip() == "!stop":
            stop.update(p.strip().lower() for p in parts[1:] if p.strip())
            continue
        if len(parts) not in (1, 5):
            raise ValueError(f"verb lexicon line needs 1 or 5 fields: {line!r}")
        lemma = parts[0].strip().lower()
        # five fields are the forms in Tense order
        entry = (_regular_forms(lemma) if len(parts) == 1 else
                 dict(zip(Tense, (p.strip().lower() for p in parts))))
        if any(not f for f in entry.values()):
            raise ValueError(f"verb lexicon entry has an empty form: {line!r}")
        forms.setdefault(lemma, entry)
    index: dict[str, tuple[str, Tense]] = {}
    for lemma, entry in forms.items():
        for tense in Tense:
            if entry[tense] not in stop:
                index.setdefault(entry[tense], (lemma, tense))
    return forms, index


def _antonym_pairs(lines: list[str]) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for line in lines:
        parts = [p.strip().lower() for p in line.split("\t") if p.strip()]
        if len(parts) != 2:
            raise ValueError(f"antonym line needs exactly 2 fields: {line!r}")
        a, b = parts
        if a == b:
            raise ValueError(f"antonym line maps {a!r} to itself")
        pairs.setdefault(a, b)
        pairs.setdefault(b, a)
    return pairs


def load_lexicons(paths: LexiconPaths = LexiconPaths()) -> Lexicons:
    """The lexicons in the files at `paths`. The bundled set, where every
    path is "", is read once per process and shared. A malformed line
    raises ValueError."""
    if paths == LexiconPaths():
        return _bundled_lexicons()
    return _read_lexicons(paths)


def _read_lexicons(paths: LexiconPaths) -> Lexicons:
    typos = _typo_entries(_lexicon_lines(paths.typos, "typos.tsv"))
    verbs, verb_index = _verb_tables(_lexicon_lines(paths.verbs, "verbs.tsv"))
    return Lexicons(typos, verbs, verb_index, _antonym_pairs(
        _lexicon_lines(paths.antonyms, "antonyms.tsv")))


@lru_cache(maxsize=1)
def _bundled_lexicons() -> Lexicons:
    return _read_lexicons(LexiconPaths())


# ---------------------------------------------------------------------------
# Mutation records
# ---------------------------------------------------------------------------
class MutationStrategy(Enum):
    TYPO = "TYPO"
    CAPITALIZATION = "CAPITALIZATION"
    TENSE = "TENSE"
    SEMANTIC_STATEMENT_CODE = "SEMANTIC_STATEMENT_CODE"
    SEMANTIC_STATIC_DYNAMIC = "SEMANTIC_STATIC_DYNAMIC"


@dataclass(frozen=True)
class MutationRecord:
    strategy: MutationStrategy
    original: str
    mutated: str
    detail: str = ""

    def __post_init__(self) -> None:
        if self.original == self.mutated:
            raise ValueError("mutation record with identical original/mutated")


# ---------------------------------------------------------------------------
# Shared text-editing helpers
# ---------------------------------------------------------------------------
_WORD_RE = re.compile(r"[A-Za-z]+")
# a Java escape sequence inside a string literal
_ESCAPE_RE = re.compile(r"\\(?:u+[0-9A-Fa-f]{4}|.)")
_IDENT_RE = re.compile(r"^[A-Za-z_$][A-Za-z0-9_$]*$")


@dataclass(frozen=True)
class _EditableWord:
    match: re.Match
    span: tuple[int, int]  # in raw_text

    @property
    def text(self) -> str:
        return self.match.group()


# an edit a rule can make: the raw_text span, its replacement and the
# record's detail
_Edit = tuple[tuple[int, int], str, str]


class StatementAnalysis:
    """What the mutation rules read of one statement, each part worked out
    on first use and then kept: the parse, the editable words, the main
    verb, the antonym, variable-swap and description-swap edits, and the
    scope identifiers of the enclosing `context`. `synthesize_corpus` makes
    one per clean statement, so every label, round and attempt that reaches
    the statement shares it; only the splice and the re-parse of the mutant
    are done per attempt. The analysis also holds every other input a rule
    reads: the parser `config` and the `lexicons`, the bundled ones unless
    others were given."""

    def __init__(self, stmt: LoggingStatement,
                 context: MethodContext | None = None, *,
                 config: ParserConfig | None = None,
                 lexicons: Lexicons | None = None) -> None:
        self.stmt, self.context, self.config = stmt, context, config
        self.lexicons = lexicons or load_lexicons()

    @cached_property
    def _parse(self) -> ParsedStatement | None:
        return parse_statement_text(self.stmt.raw_text, self.config)

    @property
    def parsed(self) -> ParsedStatement:
        if self._parse is None:
            raise NoCandidate(
                f"statement text is not editable: {self.stmt.raw_text!r}")
        return self._parse

    @cached_property
    def words(self) -> list[_EditableWord]:
        """Alphabetic words of static_text that lie inside one string
        literal and do not overlap a placeholder marker or an escape
        sequence (the "n" of "\\n" is no part of a word)."""
        parsed = self.parsed
        stmt = parsed.statement
        marker_spans = [
            (p.offset, p.offset + len(p.text)) for p in stmt.placeholders
            if p.text
        ]
        # a literal's static text is its source text, escapes and all, so a
        # word's raw_text span is its static_text span moved by the
        # fragment's offset; blanking the escapes keeps every offset
        text = _ESCAPE_RE.sub(lambda e: " " * len(e.group()),
                              stmt.static_text)
        out: list[_EditableWord] = []
        for m in _WORD_RE.finditer(text):
            if any(m.start() < e and s < m.end() for s, e in marker_spans):
                continue
            for ss, se, rs, _ in parsed.literal_fragments:
                if ss <= m.start() and m.end() <= se:
                    start = rs + m.start() - ss
                    out.append(_EditableWord(m, (start,
                                                 start + len(m.group()))))
                    break
        return out

    @cached_property
    def main_verb(self) -> tuple[_EditableWord, str, Tense] | None:
        """The first editable word that is a verb form outside the verb
        lexicon's stop set, with its lemma and tense."""
        for word in self.words:
            hit = self.lexicons.classify(word.text)
            if hit is not None:
                return (word, hit[0], hit[1])
        return None

    @cached_property
    def antonym_edits(self) -> list[_Edit]:
        """The main verb and then every other editable word, each turned
        into its opposite where the antonym table knows one."""
        main = self.main_verb
        ordered: list[_EditableWord] = []
        if main is not None:
            ordered.append(main[0])
        for w in self.words:
            if main is not None and w.match.span() == main[0].match.span():
                continue
            ordered.append(w)
        out: list[_Edit] = []
        for w in ordered:
            opposite = self.lexicons.opposite(w.text)
            if opposite is not None and opposite != w.text.lower():
                mutated = _match_casing(w.text, opposite)
                out.append((w.span, mutated,
                            f"antonym {w.text.lower()} -> {mutated.lower()}"))
        return out

    @cached_property
    def variable_swaps(self) -> list[_Edit]:
        """Each logged identifier replaced by an in-scope name that the
        statement does not log."""
        scope = collect_scope_identifiers(self.context.source_text)
        stmt = self.stmt
        used = set(stmt.variables)
        out: list[_Edit] = []
        for i, var in enumerate(stmt.variables):
            if not _IDENT_RE.match(var):
                continue
            for alt in scope:
                if alt != var and alt not in used:
                    out.append((self.parsed.variable_spans[i], alt,
                                "variable-swap"))
        return out

    @cached_property
    def description_swaps(self) -> list[_Edit]:
        """Words that sit directly before a placeholder, replaced by
        descriptions derived from other logged variables' names."""
        stmt = self.parsed.statement
        words = self.words
        out: list[_Edit] = []
        for i, ph in enumerate(stmt.placeholders):
            preceding = None
            for w in words:
                if w.match.end() <= ph.offset:
                    gap = stmt.static_text[w.match.end():ph.offset]
                    if not gap.strip(" :=-\"'([<"):
                        preceding = w
                elif w.match.start() >= ph.offset:
                    break
            if preceding is None:
                continue
            for j, var in enumerate(stmt.variables):
                if j == i or not _IDENT_RE.match(var):
                    continue
                # the identifier's sub-words: its tokens but "$" and the
                # caps marker
                pieces = [t for t in split_tokens(var) if t.isalnum()]
                if not pieces:
                    continue
                description = pieces[-1]
                if description != preceding.text.lower():
                    out.append((preceding.span,
                                _match_casing(preceding.text, description),
                                "description-swap"))
        return out


def _rewrite(analysis: StatementAnalysis, span: tuple[int, int],
             mutated: str, strategy: MutationStrategy,
             detail: str) -> tuple[LoggingStatement, MutationRecord]:
    """The analysed statement with the raw_text `span` replaced by
    `mutated`, re-parsed and put where the statement sits, with the record
    of the edit."""
    raw = analysis.parsed.statement.raw_text
    start, end = span
    record = MutationRecord(strategy, raw[start:end], mutated, detail)
    new_raw = raw[:start] + mutated + raw[end:]
    reparsed = parse_statement_text(new_raw, analysis.config, analysis.stmt)
    if reparsed is None:
        raise NoCandidate(f"mutated text no longer parses: {new_raw!r}")
    return reparsed.statement, record


def _match_casing(model: str, word: str) -> str:
    if len(model) > 1 and model.isupper():
        return word.upper()
    if model[:1].isupper():
        return word[:1].upper() + word[1:]
    return word


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _random_edit(word: str, rng: random.Random) -> str:
    """One character added, dropped, or changed; the first letter is kept so
    the word's casing shape survives."""
    ops = ["add", "delete", "change"] if len(word) >= 2 else ["change"]
    op = rng.choice(ops)
    if op == "add":
        pos = rng.randrange(1, len(word) + 1)
        return word[:pos] + rng.choice(_LETTERS) + word[pos:]
    if op == "delete":
        pos = rng.randrange(1, len(word))
        return word[:pos] + word[pos + 1:]
    pos = rng.randrange(1, len(word)) if len(word) >= 2 else 0
    current = word[pos]
    pick = rng.choice([c for c in _LETTERS if c != current.lower()])
    if current.isupper():
        pick = pick.upper()
    return word[:pos] + pick + word[pos + 1:]


# ---------------------------------------------------------------------------
# READABILITY mutations
# ---------------------------------------------------------------------------
def mutate_readability(
    stmt: LoggingStatement,
    rng_seed: int | str = 0,
    *,
    analysis: StatementAnalysis | None = None,
) -> tuple[LoggingStatement, MutationRecord]:
    """Damage one word: a misspelling (lexicon-based when possible, otherwise
    a random single-character edit) or a full uppercasing, 50/50. Every
    input is read from `analysis`, by default `stmt` analysed with the
    bundled lexicons."""
    analysis = analysis or StatementAnalysis(stmt)
    misspellings = analysis.lexicons.typos
    words = analysis.words
    if not words:
        raise NoMutableWord(f"no editable word in {stmt.static_text!r}")
    rng = random.Random(rng_seed)
    prefer_caps = rng.random() < 0.5

    caps_targets = [w for w in words if w.text != w.text.upper()]
    lexicon_targets = [w for w in words if w.text.lower() in misspellings]

    def apply_caps() -> tuple[LoggingStatement, MutationRecord]:
        target = rng.choice(caps_targets)
        return _rewrite(analysis, target.span, target.text.upper(),
                        MutationStrategy.CAPITALIZATION, "uppercase")

    def apply_typo() -> tuple[LoggingStatement, MutationRecord]:
        if lexicon_targets:
            target = rng.choice(lexicon_targets)
            misspelling = rng.choice(misspellings[target.text.lower()])
            mutated, detail = _match_casing(target.text, misspelling), "lexicon"
        else:
            target = rng.choice(words)
            mutated, detail = _random_edit(target.text, rng), "random-edit"
        return _rewrite(analysis, target.span, mutated,
                        MutationStrategy.TYPO, detail)

    if prefer_caps:
        if caps_targets:
            return apply_caps()
        return apply_typo()
    try:
        return apply_typo()
    except NoCandidate:
        if caps_targets:
            return apply_caps()
        raise


# ---------------------------------------------------------------------------
# TEMPORAL mutations
# ---------------------------------------------------------------------------
def mutate_tense(
    stmt: LoggingStatement,
    rng_seed: int | str = 0,
    *,
    analysis: StatementAnalysis | None = None,
) -> tuple[LoggingStatement, MutationRecord]:
    """Rewrite the main verb to a uniformly random different surface form.

    Raises NoCandidate when the static text has no recognizable main verb.
    Every input is read from `analysis`, by default `stmt` analysed with the
    bundled lexicons.
    """
    analysis = analysis or StatementAnalysis(stmt)
    found = analysis.main_verb
    if found is None:
        raise NoCandidate(f"no main verb in {stmt.static_text!r}")
    word, lemma, tense = found
    forms = analysis.lexicons.verbs[lemma]
    alternatives: list[tuple[Tense, str]] = []
    seen: set[str] = set()
    for t in Tense:
        surface = forms[t]
        if surface != word.text.lower() and surface not in seen:
            seen.add(surface)
            alternatives.append((t, surface))
    if not alternatives:
        raise NoCandidate(f"{lemma} has no other surface form")
    rng = random.Random(rng_seed)
    target_tense, target_surface = rng.choice(alternatives)
    return _rewrite(analysis, word.span,
                    _match_casing(word.text, target_surface),
                    MutationStrategy.TENSE,
                    f"{lemma}: {tense.name} -> {target_tense.name}")


# ---------------------------------------------------------------------------
# Semantic mutations (STATEMENT_CODE / STATIC_DYNAMIC)
# ---------------------------------------------------------------------------
_KIND_GOALS = {
    DefectLabel.STATEMENT_CODE: (
        "make the message text describe an event that contradicts what the "
        "surrounding code does (for example the opposite action)"
    ),
    DefectLabel.STATIC_DYNAMIC: (
        "make the message text or argument list misdescribe the dynamic "
        "values actually logged (for example log a different variable than "
        "the text describes)"
    ),
}


def _semantic_prompt(stmt: LoggingStatement, context: MethodContext,
                     kind: DefectLabel) -> str:
    return (
        "Rewrite one logging statement to plant a realistic factual defect "
        "for training data.\n"
        f"Goal: {_KIND_GOALS[kind]}.\n"
        "Keep the statement syntactically valid and change as little as "
        "possible.\n\n"
        "Method source:\n"
        f"{context.source_text}\n\n"
        "Statement to rewrite:\n"
        f"{stmt.raw_text}\n\n"
        "Reply with only the rewritten statement between <MUTATED> and "
        "</MUTATED>."
    )


def mutate_semantic(
    stmt: LoggingStatement,
    context: MethodContext,
    kind: DefectLabel,
    backend: LlmBackend | None = None,
    *,
    rng_seed: int | str | None = None,
    analysis: StatementAnalysis | None = None,
) -> tuple[LoggingStatement, MutationRecord]:
    """Plant a semantic contradiction of the requested kind.

    A configured backend is asked first (transport failures propagate); the
    deterministic rule fallback runs when no backend is given or its reply
    holds no <MUTATED> logger call that differs from `stmt` once re-parsed.
    Without `rng_seed` the fallback picks the first candidate so
    repeated calls agree; with a seed it picks uniformly, which lets corpus
    building draw several distinct variants from one statement. Every
    input is read from `analysis`, by default `stmt` and `context` analysed
    with the bundled lexicons.
    """
    if kind not in (DefectLabel.STATEMENT_CODE, DefectLabel.STATIC_DYNAMIC):
        raise ValueError(f"unsupported semantic mutation kind: {kind}")
    strategy = (MutationStrategy.SEMANTIC_STATEMENT_CODE
                if kind is DefectLabel.STATEMENT_CODE
                else MutationStrategy.SEMANTIC_STATIC_DYNAMIC)
    analysis = analysis or StatementAnalysis(stmt, context)
    analysis.parsed  # an unparseable statement is not sent to the backend

    if backend is not None:
        reply = backend.complete(_semantic_prompt(stmt, context, kind))
        try:
            mutated = parse_tagged_reply(reply, "MUTATED", stmt,
                                         analysis.config)
        except (MalformedReply, NotALoggingStatement):
            mutated = None
        if mutated is not None and mutated.raw_text != stmt.raw_text:
            return mutated, MutationRecord(strategy, stmt.raw_text,
                                           mutated.raw_text,
                                           f"llm:{backend.name}")

    if kind is DefectLabel.STATEMENT_CODE:
        candidates = analysis.antonym_edits
        missing = f"no event word with a known opposite in {stmt.static_text!r}"
    else:
        candidates = analysis.variable_swaps or analysis.description_swaps
        missing = ("no alternative in-scope variable or placeholder "
                   f"description available for {stmt.raw_text!r}")
    if not candidates:
        raise NoCandidate(missing)
    span, mutated, detail = (random.Random(rng_seed).choice(candidates)
                             if rng_seed is not None else candidates[0])
    return _rewrite(analysis, span, mutated, strategy, detail)


# ---------------------------------------------------------------------------
# Corpus building
# ---------------------------------------------------------------------------
DEFECT_LABELS: tuple[DefectLabel, ...] = (
    DefectLabel.STATEMENT_CODE,
    DefectLabel.STATIC_DYNAMIC,
    DefectLabel.TEMPORAL,
    DefectLabel.READABILITY,
)

MAX_RESAMPLE_ROUNDS = 64


def _mutated_context(context: MethodContext, old: LoggingStatement,
                     new: LoggingStatement) -> MethodContext:
    # a valid sample's statement is at its line (validate_sample)
    at = statement_offset(context, old)
    source = (context.source_text[:at] + new.raw_text
              + context.source_text[at + len(old.raw_text):])
    ids = tuple(new.id if sid == old.id else sid for sid in context.statement_ids)
    return replace(context, source_text=source, statement_ids=ids)


def _mutate_for(
    label: DefectLabel,
    sample: LabeledSample,
    analysis: StatementAnalysis,
    rng_seed: str,
    backend: LlmBackend | None,
) -> tuple[LoggingStatement, MutationRecord]:
    if label is DefectLabel.READABILITY:
        return mutate_readability(sample.target, rng_seed=rng_seed,
                                  analysis=analysis)
    if label is DefectLabel.TEMPORAL:
        return mutate_tense(sample.target, rng_seed=rng_seed,
                            analysis=analysis)
    return mutate_semantic(sample.target, sample.context, label, backend,
                           rng_seed=rng_seed, analysis=analysis)


def synthesize_corpus(
    clean: list[LabeledSample],
    per_type_count: int,
    seed: int = 0,
    *,
    backend: LlmBackend | None = None,
    lexicons: Lexicons | None = None,
    parser_config: ParserConfig | None = None,
) -> list[LabeledSample]:
    """Build a defect corpus: `per_type_count` unique samples per defect type.

    Uniqueness is over (origin method source, mutated statement text) pairs
    across the whole corpus. The pool is walked in a seeded shuffled order,
    repeatedly, with a fresh per-sample random stream each round, until each
    type reaches its count; a round that adds nothing raises
    InsufficientInputs. A clean sample that fails `validate_sample` raises
    ValueError; a mutant that fails it is dropped.
    """
    for sample in clean:
        if sample.label is not DefectLabel.NON_DEFECT:
            raise ValueError(
                f"clean pool contains a {sample.label.value} sample "
                f"({sample.target.id})")
        problems = validate_sample(sample)
        if problems:
            raise ValueError(f"clean sample {sample.target.id}: "
                             + "; ".join(problems))
    if per_type_count < 0:
        raise ValueError("per_type_count must be >= 0")
    analyses = [StatementAnalysis(s.target, s.context, config=parser_config,
                                  lexicons=lexicons) for s in clean]
    out: list[LabeledSample] = []
    seen: set[tuple[str, str]] = set()
    for label in DEFECT_LABELS:
        order = list(range(len(clean)))
        random.Random(f"{seed}|order|{label.name}").shuffle(order)
        picked: list[LabeledSample] = []
        round_no = 0
        while len(picked) < per_type_count:
            if round_no >= MAX_RESAMPLE_ROUNDS:
                raise InsufficientInputs(
                    f"{label.value}: {len(picked)}/{per_type_count} unique "
                    f"samples after {round_no} rounds")
            progressed = False
            for idx in order:
                if len(picked) >= per_type_count:
                    break
                sample = clean[idx]
                sub_seed = f"{seed}|{label.name}|{round_no}|{idx}"
                try:
                    new_stmt, record = _mutate_for(
                        label, sample, analyses[idx], sub_seed, backend)
                except (NoMutableWord, NoCandidate):
                    continue
                key = (sample.context.source_text, new_stmt.raw_text)
                if key in seen:
                    continue
                mutant = LabeledSample(
                    context=_mutated_context(sample.context, sample.target,
                                             new_stmt),
                    target=new_stmt,
                    label=label,
                    provenance=Provenance(
                        kind=ProvenanceKind.MUTATED,
                        strategy=record.strategy.name,
                        original_raw_text=sample.target.raw_text,
                    ),
                )
                if validate_sample(mutant):
                    continue
                seen.add(key)
                picked.append(mutant)
                progressed = True
            if not progressed and len(picked) < per_type_count:
                raise InsufficientInputs(
                    f"{label.value}: pool exhausted at {len(picked)}/"
                    f"{per_type_count} unique samples")
            round_no += 1
        out.extend(picked)
    return out
