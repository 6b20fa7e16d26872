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
from functools import lru_cache
from importlib import resources

from .backends import LlmBackend
from .model import (
    DefectLabel,
    LabeledSample,
    LoggingStatement,
    MethodContext,
    Provenance,
    ProvenanceKind,
    statement_offset,
)
from .parser import (
    ParsedStatement,
    ParserConfig,
    collect_scope_identifiers,
    parse_statement_text,
    relocate,
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
class TypoLexicon:
    """Known misspellings per correct (lowercase) word."""

    entries: dict[str, tuple[str, ...]]


@dataclass(frozen=True)
class VerbLexicon:
    forms: dict[str, dict[Tense, str]]
    stop_forms: frozenset[str]
    form_index: dict[str, tuple[str, Tense]]

    def classify(self, word: str) -> tuple[str, Tense] | None:
        """Map a surface form to (lemma, tense); None for non-verbs."""
        lowered = word.lower()
        if lowered in self.stop_forms:
            return None
        return self.form_index.get(lowered)

    def surface_forms(self, lemma: str) -> dict[Tense, str]:
        return dict(self.forms[lemma])


@dataclass(frozen=True)
class AntonymTable:
    pairs: dict[str, str]

    def opposite(self, word: str) -> str | None:
        return self.pairs.get(word.lower())


def _data_text(name: str) -> str:
    return resources.files("logfix.data").joinpath(name).read_text(encoding="utf-8")


def _read_lexicon_lines(path: str | None, default_name: str) -> list[str]:
    if path is None:
        text = _data_text(default_name)
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    lines = []
    for line in text.splitlines():
        line = line.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        lines.append(line)
    return lines


def load_typo_lexicon(path: str | None = None) -> TypoLexicon:
    entries: dict[str, tuple[str, ...]] = {}
    for line in _read_lexicon_lines(path, "typos.tsv"):
        parts = [p for p in line.split("\t") if p]
        if len(parts) < 2:
            raise ValueError(f"typo lexicon line needs >=2 fields: {line!r}")
        correct = parts[0]
        if correct != correct.lower():
            raise ValueError(f"typo lexicon keys must be lowercase: {correct!r}")
        misspellings = tuple(dict.fromkeys(parts[1:]))
        if any(m.lower() == correct for m in misspellings):
            raise ValueError(f"typo lexicon maps {correct!r} to itself")
        if correct not in entries:
            entries[correct] = misspellings
    return TypoLexicon(entries=entries)


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


def load_verb_lexicon(path: str | None = None) -> VerbLexicon:
    forms: dict[str, dict[Tense, str]] = {}
    stop: set[str] = set()
    for line in _read_lexicon_lines(path, "verbs.tsv"):
        parts = line.split("\t")
        if parts[0] == "!stop":
            stop.update(p.lower() for p in parts[1:] if p)
            continue
        if len(parts) == 1:
            lemma = parts[0].strip().lower()
            entry = _regular_forms(lemma)
        elif len(parts) == 5:
            lemma = parts[0].strip().lower()
            entry = {
                Tense.BASE: parts[0].strip().lower(),
                Tense.PAST: parts[1].strip().lower(),
                Tense.PAST_PARTICIPLE: parts[2].strip().lower(),
                Tense.PRESENT_PARTICIPLE: parts[3].strip().lower(),
                Tense.THIRD_PERSON: parts[4].strip().lower(),
            }
        else:
            raise ValueError(f"verb lexicon line needs 1 or 5 fields: {line!r}")
        if any(not f for f in entry.values()):
            raise ValueError(f"verb lexicon entry has an empty form: {line!r}")
        if lemma not in forms:
            forms[lemma] = entry
    index: dict[str, tuple[str, Tense]] = {}
    for lemma, entry in forms.items():
        for tense in Tense:
            surface = entry[tense]
            if surface in stop:
                continue
            index.setdefault(surface, (lemma, tense))
    return VerbLexicon(forms=forms, stop_forms=frozenset(stop), form_index=index)


def load_antonym_table(path: str | None = None) -> AntonymTable:
    pairs: dict[str, str] = {}
    for line in _read_lexicon_lines(path, "antonyms.tsv"):
        parts = [p.strip().lower() for p in line.split("\t") if p.strip()]
        if len(parts) != 2:
            raise ValueError(f"antonym line needs exactly 2 fields: {line!r}")
        a, b = parts
        if a == b:
            raise ValueError(f"antonym line maps {a!r} to itself")
        pairs.setdefault(a, b)
        pairs.setdefault(b, a)
    return AntonymTable(pairs=pairs)


@lru_cache(maxsize=1)
def default_typo_lexicon() -> TypoLexicon:
    return load_typo_lexicon()


@lru_cache(maxsize=1)
def default_verb_lexicon() -> VerbLexicon:
    return load_verb_lexicon()


@lru_cache(maxsize=1)
def default_antonym_table() -> AntonymTable:
    return load_antonym_table()


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


def _parse_for_edit(stmt: LoggingStatement,
                    config: ParserConfig | None = None) -> ParsedStatement:
    parsed = parse_statement_text(stmt.raw_text, config)
    if parsed is None:
        raise NoCandidate(f"statement text is not editable: {stmt.raw_text!r}")
    return parsed


@dataclass(frozen=True)
class _EditableWord:
    match: re.Match
    fragment: tuple[int, int, int, int]

    @property
    def text(self) -> str:
        return self.match.group()


def _editable_words(parsed: ParsedStatement) -> list[_EditableWord]:
    """Alphabetic words of static_text that lie inside one string literal
    and do not overlap a placeholder marker."""
    stmt = parsed.statement
    marker_spans = [
        (p.offset, p.offset + len(p.text)) for p in stmt.placeholders if p.text
    ]
    out: list[_EditableWord] = []
    for m in _WORD_RE.finditer(stmt.static_text):
        if any(m.start() < e and s < m.end() for s, e in marker_spans):
            continue
        for frag in parsed.literal_fragments:
            if frag[0] <= m.start() and m.end() <= frag[1]:
                out.append(_EditableWord(match=m, fragment=frag))
                break
    return out


def _splice_static(parsed: ParsedStatement, word: _EditableWord,
                   replacement: str) -> str:
    """Rewrite raw_text so the word's static_text span becomes `replacement`."""
    ss, se, rs, re_ = word.fragment
    raw = parsed.statement.raw_text
    if (se - ss) == (re_ - rs):
        # No escape sequences inside this literal: offsets map linearly.
        a = rs + (word.match.start() - ss)
        b = rs + (word.match.end() - ss)
        return raw[:a] + replacement + raw[b:]
    segment = raw[rs:re_]
    pos = segment.find(word.text)
    if pos < 0:
        raise NoCandidate(f"cannot locate {word.text!r} in raw text")
    return raw[:rs] + segment[:pos] + replacement + segment[pos + len(word.text):] + raw[re_:]


def _splice_variable(parsed: ParsedStatement, index: int, replacement: str) -> str:
    start, end = parsed.variable_spans[index]
    raw = parsed.statement.raw_text
    return raw[:start] + replacement + raw[end:]


def _rebuild(stmt: LoggingStatement, new_raw: str,
             config: ParserConfig | None = None) -> LoggingStatement:
    parsed = parse_statement_text(new_raw, config)
    if parsed is None:
        raise NoCandidate(f"mutated text no longer parses: {new_raw!r}")
    return relocate(parsed.statement, stmt)


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
    lexicon: TypoLexicon | None = None,
    rng_seed: int | str = 0,
    config: ParserConfig | None = None,
) -> tuple[LoggingStatement, MutationRecord]:
    """Damage one word: a misspelling (lexicon-based when possible, otherwise
    a random single-character edit) or a full uppercasing, 50/50."""
    lexicon = lexicon or default_typo_lexicon()
    parsed = _parse_for_edit(stmt, config)
    words = _editable_words(parsed)
    if not words:
        raise NoMutableWord(f"no editable word in {stmt.static_text!r}")
    rng = random.Random(rng_seed)
    prefer_caps = rng.random() < 0.5

    caps_targets = [w for w in words if w.text != w.text.upper()]
    lexicon_targets = [w for w in words if w.text.lower() in lexicon.entries]

    def apply_caps() -> tuple[LoggingStatement, MutationRecord]:
        target = rng.choice(caps_targets)
        mutated_word = target.text.upper()
        record = MutationRecord(
            strategy=MutationStrategy.CAPITALIZATION,
            original=target.text,
            mutated=mutated_word,
            detail="uppercase",
        )
        return _rebuild(stmt, _splice_static(parsed, target, mutated_word),
                        config), record

    def apply_typo() -> tuple[LoggingStatement, MutationRecord]:
        if lexicon_targets:
            target = rng.choice(lexicon_targets)
            misspelling = rng.choice(lexicon.entries[target.text.lower()])
            mutated_word = _match_casing(target.text, misspelling)
            detail = "lexicon"
        else:
            target = rng.choice(words)
            mutated_word = _random_edit(target.text, rng)
            detail = "random-edit"
        record = MutationRecord(
            strategy=MutationStrategy.TYPO,
            original=target.text,
            mutated=mutated_word,
            detail=detail,
        )
        return _rebuild(stmt, _splice_static(parsed, target, mutated_word),
                        config), record

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
def _main_verb_word(parsed: ParsedStatement,
                    lexicon: VerbLexicon) -> tuple[_EditableWord, str, Tense] | None:
    """The main verb: the first editable word that is a verb form outside
    the lexicon's stop set, with its lemma and tense."""
    for word in _editable_words(parsed):
        hit = lexicon.classify(word.text)
        if hit is not None:
            return (word, hit[0], hit[1])
    return None


def mutate_tense(
    stmt: LoggingStatement,
    lexicon: VerbLexicon | None = None,
    rng_seed: int | str = 0,
    config: ParserConfig | None = None,
) -> tuple[LoggingStatement, MutationRecord] | None:
    """Rewrite the main verb to a uniformly random different surface form.

    Returns None when the static text has no recognizable main verb.
    """
    lexicon = lexicon or default_verb_lexicon()
    parsed = _parse_for_edit(stmt, config)
    found = _main_verb_word(parsed, lexicon)
    if found is None:
        return None
    word, lemma, tense = found
    forms = lexicon.surface_forms(lemma)
    alternatives: list[tuple[Tense, str]] = []
    seen: set[str] = set()
    for t in Tense:
        surface = forms[t]
        if surface != word.text.lower() and surface not in seen:
            seen.add(surface)
            alternatives.append((t, surface))
    if not alternatives:
        return None
    rng = random.Random(rng_seed)
    target_tense, target_surface = rng.choice(alternatives)
    mutated_word = _match_casing(word.text, target_surface)
    record = MutationRecord(
        strategy=MutationStrategy.TENSE,
        original=word.text,
        mutated=mutated_word,
        detail=f"{lemma}: {tense.name} -> {target_tense.name}",
    )
    return _rebuild(stmt, _splice_static(parsed, word, mutated_word), config), record


# ---------------------------------------------------------------------------
# Semantic mutations (STATEMENT_CODE / STATIC_DYNAMIC)
# ---------------------------------------------------------------------------
_IDENT_RE = re.compile(r"^[A-Za-z_$][A-Za-z0-9_$]*$")

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


def _conjugate_like(antonyms: AntonymTable, verbs: VerbLexicon,
                    word: str) -> str | None:
    """Opposite of `word`; when the word is a known verb form the opposite
    lemma is conjugated into the same tense (closed -> opened)."""
    direct = antonyms.opposite(word)
    classified = verbs.classify(word)
    if classified is not None:
        lemma, tense = classified
        opposite_lemma = antonyms.opposite(lemma)
        if opposite_lemma is not None:
            if opposite_lemma in verbs.forms:
                return verbs.surface_forms(opposite_lemma)[tense]
            return opposite_lemma
    return direct


def _antonym_candidates(parsed: ParsedStatement, antonyms: AntonymTable,
                        verbs: VerbLexicon) -> list[tuple[_EditableWord, str]]:
    words = _editable_words(parsed)
    main = _main_verb_word(parsed, verbs)
    ordered: list[_EditableWord] = []
    if main is not None:
        ordered.append(main[0])
    for w in words:
        if main is not None and w.match.span() == main[0].match.span():
            continue
        ordered.append(w)
    out: list[tuple[_EditableWord, str]] = []
    for w in ordered:
        opposite = _conjugate_like(antonyms, verbs, w.text.lower())
        if opposite is not None and opposite != w.text.lower():
            out.append((w, _match_casing(w.text, opposite)))
    return out


def _variable_swap_candidates(stmt: LoggingStatement,
                              context: MethodContext) -> list[tuple[int, str]]:
    scope = collect_scope_identifiers(context.source_text)
    used = set(stmt.variables)
    out: list[tuple[int, str]] = []
    for i, var in enumerate(stmt.variables):
        if not _IDENT_RE.match(var):
            continue
        for alt in scope:
            if alt != var and alt not in used:
                out.append((i, alt))
    return out


def _description_swap_candidates(
    parsed: ParsedStatement,
) -> list[tuple[_EditableWord, str]]:
    """Words that sit directly before a placeholder, paired with descriptions
    derived from other logged variables' names."""
    stmt = parsed.statement
    words = _editable_words(parsed)
    out: list[tuple[_EditableWord, str]] = []
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
            # the identifier's sub-words: its tokens but "$" and the caps marker
            pieces = [t for t in split_tokens(var) if t.isalnum()]
            if not pieces:
                continue
            description = pieces[-1]
            if description != preceding.text.lower():
                out.append((preceding, _match_casing(preceding.text, description)))
    return out


def mutate_semantic(
    stmt: LoggingStatement,
    context: MethodContext,
    kind: DefectLabel,
    backend: LlmBackend | None = None,
    *,
    rng_seed: int | str | None = None,
    antonyms: AntonymTable | None = None,
    verb_lexicon: VerbLexicon | None = None,
    config: ParserConfig | None = None,
) -> tuple[LoggingStatement, MutationRecord]:
    """Plant a semantic contradiction of the requested kind.

    A configured backend is asked first (transport failures propagate); the
    deterministic rule fallback runs when no backend is given or its reply
    holds no <MUTATED> logger call that differs from `stmt` once re-parsed.
    Without `rng_seed` the fallback picks the first candidate so
    repeated calls agree; with a seed it picks uniformly, which lets corpus
    building draw several distinct variants from one statement.
    """
    if kind not in (DefectLabel.STATEMENT_CODE, DefectLabel.STATIC_DYNAMIC):
        raise ValueError(f"unsupported semantic mutation kind: {kind}")
    strategy = (MutationStrategy.SEMANTIC_STATEMENT_CODE
                if kind is DefectLabel.STATEMENT_CODE
                else MutationStrategy.SEMANTIC_STATIC_DYNAMIC)
    parsed = _parse_for_edit(stmt, config)

    if backend is not None:
        reply = backend.complete(_semantic_prompt(stmt, context, kind))
        try:
            mutated = parse_tagged_reply(reply, "MUTATED", stmt, config)
        except (MalformedReply, NotALoggingStatement):
            mutated = None
        if mutated is not None and mutated.raw_text != stmt.raw_text:
            return mutated, MutationRecord(
                strategy=strategy,
                original=stmt.raw_text,
                mutated=mutated.raw_text,
                detail=f"llm:{backend.name}",
            )

    rng = random.Random(rng_seed) if rng_seed is not None else None
    antonyms = antonyms or default_antonym_table()
    verb_lexicon = verb_lexicon or default_verb_lexicon()

    if kind is DefectLabel.STATEMENT_CODE:
        candidates = _antonym_candidates(parsed, antonyms, verb_lexicon)
        if not candidates:
            raise NoCandidate(
                f"no event word with a known opposite in {stmt.static_text!r}")
        word, mutated_word = rng.choice(candidates) if rng else candidates[0]
        record = MutationRecord(
            strategy=strategy,
            original=word.text,
            mutated=mutated_word,
            detail=f"antonym {word.text.lower()} -> {mutated_word.lower()}",
        )
        return _rebuild(stmt, _splice_static(parsed, word, mutated_word),
                        config), record

    swaps = _variable_swap_candidates(stmt, context)
    if swaps:
        index, alt = rng.choice(swaps) if rng else swaps[0]
        original_var = stmt.variables[index]
        record = MutationRecord(
            strategy=strategy,
            original=original_var,
            mutated=alt,
            detail="variable-swap",
        )
        return _rebuild(stmt, _splice_variable(parsed, index, alt),
                        config), record
    descriptions = _description_swap_candidates(parsed)
    if descriptions:
        word, mutated_word = (rng.choice(descriptions) if rng
                              else descriptions[0])
        record = MutationRecord(
            strategy=strategy,
            original=word.text,
            mutated=mutated_word,
            detail="description-swap",
        )
        return _rebuild(stmt, _splice_static(parsed, word, mutated_word),
                        config), record
    raise NoCandidate(
        "no alternative in-scope variable or placeholder description "
        f"available for {stmt.raw_text!r}")


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
    at = statement_offset(context, old)
    if at < 0:
        raise ValueError(f"statement {old.id} is not at line "
                         f"{old.location.start_line} of its method")
    source = (context.source_text[:at] + new.raw_text
              + context.source_text[at + len(old.raw_text):])
    ids = tuple(new.id if sid == old.id else sid for sid in context.statement_ids)
    return replace(context, source_text=source, statement_ids=ids)


def _mutate_for(
    label: DefectLabel,
    sample: LabeledSample,
    rng_seed: str,
    backend: LlmBackend | None,
    typo_lexicon: TypoLexicon,
    verb_lexicon: VerbLexicon,
    antonyms: AntonymTable,
    config: ParserConfig | None,
) -> tuple[LoggingStatement, MutationRecord] | None:
    if label is DefectLabel.READABILITY:
        return mutate_readability(sample.target, typo_lexicon, rng_seed, config)
    if label is DefectLabel.TEMPORAL:
        return mutate_tense(sample.target, verb_lexicon, rng_seed, config)
    return mutate_semantic(
        sample.target, sample.context, label, backend,
        rng_seed=rng_seed, antonyms=antonyms, verb_lexicon=verb_lexicon,
        config=config,
    )


def synthesize_corpus(
    clean: list[LabeledSample],
    per_type_count: int,
    seed: int = 0,
    *,
    backend: LlmBackend | None = None,
    typo_lexicon: TypoLexicon | None = None,
    verb_lexicon: VerbLexicon | None = None,
    antonyms: AntonymTable | None = None,
    parser_config: ParserConfig | None = None,
) -> list[LabeledSample]:
    """Build a defect corpus: `per_type_count` unique samples per defect type.

    Uniqueness is over (origin method source, mutated statement text) pairs
    across the whole corpus. The pool is walked in a seeded shuffled order,
    repeatedly, with a fresh per-sample random stream each round, until each
    type reaches its count; a round that adds nothing raises
    InsufficientInputs.
    """
    for sample in clean:
        if sample.label is not DefectLabel.NON_DEFECT:
            raise ValueError(
                f"clean pool contains a {sample.label.value} sample "
                f"({sample.target.id})")
    if per_type_count < 0:
        raise ValueError("per_type_count must be >= 0")
    typo_lexicon = typo_lexicon or default_typo_lexicon()
    verb_lexicon = verb_lexicon or default_verb_lexicon()
    antonyms = antonyms or default_antonym_table()

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
                    mutated = _mutate_for(
                        label, sample, sub_seed, backend,
                        typo_lexicon, verb_lexicon, antonyms, parser_config)
                except (NoMutableWord, NoCandidate):
                    continue
                if mutated is None:
                    continue
                new_stmt, record = mutated
                if new_stmt.raw_text == sample.target.raw_text:
                    continue
                key = (sample.context.source_text, new_stmt.raw_text)
                if key in seen:
                    continue
                seen.add(key)
                provenance = Provenance(
                    kind=ProvenanceKind.MUTATED,
                    strategy=record.strategy.name,
                    original_raw_text=sample.target.raw_text,
                )
                picked.append(LabeledSample(
                    context=_mutated_context(sample.context, sample.target,
                                             new_stmt),
                    target=new_stmt,
                    label=label,
                    provenance=provenance,
                ))
                progressed = True
            if not progressed and len(picked) < per_type_count:
                raise InsufficientInputs(
                    f"{label.value}: pool exhausted at {len(picked)}/"
                    f"{per_type_count} unique samples")
            round_no += 1
        out.extend(picked)
    return out
