#!/usr/bin/env python3
"""Regenerate the bundled Java fixture corpus.

Writes two fixture sets:

  tests/fixtures/clean/  -- 25 files x 10 methods, one logging statement
                            each, used as the clean pool for corpus
                            synthesis and detector training.
  tests/fixtures/e2e/    -- 20 single-method files (10 clean, 10 seeded
                            with a known defect) plus truth.jsonl carrying
                            the gold label and corrected statement for each.

The corpus is engineered so the five classes stay linearly separable after
mutation, which is what the desk-scale detector check relies on:

  * every clean statement's main verb is a present participle, and each verb
    lemma appears corpus-wide in exactly one surface form, so any tense
    mutation introduces a token no clean statement contains;
  * antonym-bearing words appear only in one direction (starting, opening,
    remote, ...), so a contradiction mutation always introduces an
    opposite-direction token;
  * each method declares in-scope locals that are never logged, so a
    variable swap always splices a never-logged identifier into the call;
  * logger receivers are lowercase, so an uppercased word is the only
    source of the tokenizer's all-caps marker inside a statement.

Deterministic: same lexicons in, same bytes out. Run from the repo root:

    python3 tools/generate_clean_fixtures.py
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from logfix.model import DefectLabel, TruthRecord, dumps_line, to_dict
from logfix.parser import extract_file
from logfix.synthesis import (
    Tense,
    load_lexicons,
    mutate_readability,
    mutate_semantic,
    mutate_tense,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLEAN_DIR = os.path.join(ROOT, "tests", "fixtures", "clean")
E2E_DIR = os.path.join(ROOT, "tests", "fixtures", "e2e")
JAVA_DIR = os.path.join(ROOT, "tests", "fixtures", "java")
HISTORY_DIR = os.path.join(ROOT, "tests", "fixtures", "history")

LEXICONS = load_lexicons()

# Main verbs: conjugatable and antonym-paired. Used only as participles.
# "publish" is deliberately absent: its opposite is "subscribe", which is a
# main verb here, so a contradiction mutant would read as clean text.
MAIN_VERBS = [
    "start", "open", "connect", "load", "attach", "register", "subscribe",
    "acquire", "lock", "mount", "resume", "create", "export", "serialize",
    "encrypt", "compress", "deploy", "install", "bind", "allocate",
    "insert", "enable", "activate", "grant", "schedule", "validate",
    "wrap", "pack", "pin",
]

# Adjectives with known opposites; only this direction appears in clean text.
ADJECTIVES = [
    "remote", "primary", "incoming", "inbound", "synchronous", "internal",
    "upstream", "online",
]

# First noun slot: every entry has a known misspelling, so a typo mutation
# always has a lexicon target and never falls back to a random edit.
NOUNS_WITH_TYPOS = [
    "segment", "partition", "cursor", "channel", "session", "pipeline",
    "handler", "gateway", "listener", "executor", "threshold", "scheduler",
    "tenant", "registry", "quorum", "descriptor", "interceptor", "bundle",
]

# Second noun slot: the wider pool.
NOUN_CANDIDATES = NOUNS_WITH_TYPOS + [
    "lease", "shard", "snapshot", "replica", "manifest", "broker", "worker",
    "cluster", "catalog", "payload", "heartbeat", "checkpoint", "datastore",
    "journal", "watermark", "ballot", "envelope",
]

# camelCase pieces for logged variables and never-logged swap targets.
VAR_SUBWORDS = ["id", "key", "name", "tag", "slot", "code", "ordinal"]
LOCAL_SUBWORDS = ["quota", "ledger", "spool", "gauge", "budget", "stub",
                  "vault", "tally"]

LEVELS = ["trace", "debug", "info", "warn", "error"]
RECEIVERS = ["log", "logger"]

CLASS_NAMES = [
    "LeaseCoordinator", "ShardBalancer", "SegmentArchiver", "BundleTracker",
    "SnapshotCourier", "ReplicaWarden", "ManifestWeaver", "PartitionSteward",
    "BrokerLiaison", "CursorKeeper", "ChannelMarshal", "SessionCurator",
    "WorkerHarbor", "TenantConcierge", "ClusterAttendant", "RegistryScribe",
    "CatalogSexton", "PipelineRigger", "PayloadPorter", "HandlerForeman",
    "HeartbeatNotary", "CheckpointBursar", "QuorumHerald",
    "DescriptorClerk", "InterceptorValet",
]


def verb_form(lemma: str, tense: Tense) -> str:
    return LEXICONS.verbs[lemma][tense]


def all_forms(lemma: str) -> set[str]:
    return set(LEXICONS.verbs[lemma].values())


PREPOSITIONS = ["for", "on", "with", "after"]


def clean_statement_tokens() -> set[str]:
    """Every lowercase word that can appear inside a clean statement."""
    tokens = {"log", "logger"} | set(LEVELS) | set(PREPOSITIONS)
    tokens |= {verb_form(v, Tense.PRESENT_PARTICIPLE) for v in MAIN_VERBS}
    tokens |= set(ADJECTIVES) | set(NOUN_CANDIDATES) | set(VAR_SUBWORDS)
    return tokens


def check_pools() -> None:
    """Fail loudly if a pool word breaks a separability convention.

    The guarantees, each checked against the full clean-statement token set:
      1. tense mutants (non-participle forms of main verbs) are never clean;
      2. contradiction mutants (conjugated verb opposites, adjective
         opposites) are never clean;
      3. misspellings of typo-covered clean words are never clean and never
         collide with the mutant sets above;
      4. swap-target local names stay out of clean statements entirely;
      5. nouns and name subwords carry no antonym of their own, so rule
         mutations only ever touch the designated verb and adjective slots.
    """
    clean = clean_statement_tokens()

    tense_mutants: set[str] = set()
    contradiction_mutants: set[str] = set()
    for v in MAIN_VERBS:
        participle = verb_form(v, Tense.PRESENT_PARTICIPLE)
        tense_mutants |= all_forms(v) - {participle}
        # the opposite lemma conjugated as a participle, or spliced in
        # as-is when it is no verb
        opposite = LEXICONS.opposite(participle)
        assert opposite, f"main verb {v!r} has no opposite"
        contradiction_mutants.add(opposite)
    for adj in ADJECTIVES:
        opposite = LEXICONS.opposite(adj)
        assert opposite, f"adjective {adj!r} has no opposite"
        assert LEXICONS.classify(adj) is None, \
            f"adjective {adj!r} is a verb form"
        contradiction_mutants.add(opposite)

    misspellings: set[str] = set()
    for word in clean:
        misspellings |= set(LEXICONS.typos.get(word, ()))

    overlap = tense_mutants & clean
    assert not overlap, f"tense mutants collide with clean text: {overlap}"
    overlap = contradiction_mutants & clean
    assert not overlap, f"opposites collide with clean text: {overlap}"
    overlap = misspellings & (clean | tense_mutants | contradiction_mutants)
    assert not overlap, f"misspellings are not unique markers: {overlap}"

    for word in LOCAL_SUBWORDS:
        assert word not in clean, f"swap-target subword {word!r} is clean"
    for word in list(NOUN_CANDIDATES) + VAR_SUBWORDS:
        assert word not in LEXICONS.antonyms, f"{word!r} has an antonym"
    # Prepositions may carry an opposite ("after" -> "before"); that is just
    # one more contradiction slot, provided the opposite is never clean text.
    for word in PREPOSITIONS:
        opposite = LEXICONS.opposite(word)
        if opposite is not None:
            assert opposite not in clean, f"{word!r} opposite is clean text"
    for noun in NOUNS_WITH_TYPOS:
        assert noun in LEXICONS.typos, f"{noun!r} missing from typo lexicon"


def cap(word: str) -> str:
    return word[0].upper() + word[1:]


def camel(*pieces: str) -> str:
    return pieces[0] + "".join(cap(p) for p in pieces[1:])


def pick(pool: list[str], *indices: int) -> list[str]:
    """Distinct pool entries at the given rotating offsets."""
    out: list[str] = []
    for i in indices:
        j = i % len(pool)
        while pool[j] in out:
            j = (j + 1) % len(pool)
        out.append(pool[j])
    return out


def make_method(index: int) -> dict:
    """All naming and text choices for one generated method."""
    verb = MAIN_VERBS[index % len(MAIN_VERBS)]
    participle = cap(verb_form(verb, Tense.PRESENT_PARTICIPLE))
    adj1, adj2 = pick(ADJECTIVES, index, index // 3 + 3)
    noun1 = NOUNS_WITH_TYPOS[(index * 7 + 1) % len(NOUNS_WITH_TYPOS)]
    noun2 = NOUN_CANDIDATES[(index * 11 + 5) % len(NOUN_CANDIDATES)]
    while noun2 == noun1:
        noun2 = NOUN_CANDIDATES[(NOUN_CANDIDATES.index(noun2) + 1)
                                % len(NOUN_CANDIDATES)]
    sub1, sub2 = pick(VAR_SUBWORDS, index, index // 2 + 2)
    var1 = camel(noun1, sub1)
    var2 = camel(noun2, sub2)
    loc1_sub, loc2_sub = pick(LOCAL_SUBWORDS, index, index // 4 + 3)
    local1 = camel(noun1, loc1_sub)
    local2 = camel(loc2_sub, "limit")
    level = LEVELS[index % len(LEVELS)]
    receiver = RECEIVERS[index % len(RECEIVERS)]

    template = index % 4
    if template == 0:
        text = f"{participle} {adj1} {noun1} {{}} for {adj2} {noun2} {{}}"
    elif template == 1:
        text = f"{participle} {noun1} {{}} on {adj1} {noun2} {{}}"
    elif template == 2:
        text = f"{participle} {adj1} {noun1} {{}} with {adj2} {noun2} {{}}"
    else:
        text = f"{participle} {noun1} {{}} after {adj1} {noun2} {{}}"

    method_name = camel(verb, noun1, "entry" if index % 2 else "batch")
    return {
        "verb": verb,
        "text": text,
        "method_name": method_name,
        "var1": var1,
        "var2": var2,
        "local1": local1,
        "local2": local2,
        "level": level,
        "receiver": receiver,
        "noun1": noun1,
        "noun2": noun2,
        "statement": f'{receiver}.{level}("{text}", {var1}, {var2});',
    }


_BODY_SHAPES = [
    # locals first, call after the log
    """    public void {method_name}(String {var1}, int {var2}) {{
        int {local1} = registry.reserve({var1});
        String {local2} = names.resolve({var2});
        {statement}
        dispatcher.{verb}({var1}, {local1});
    }}""",
    # guard clause shape
    """    public boolean {method_name}(String {var1}, long {var2}) {{
        long {local1} = clock.peek();
        String {local2} = names.resolve({var1});
        if ({var2} < {local1}) {{
            return false;
        }}
        {statement}
        return dispatcher.{verb}({var1}, {var2});
    }}""",
    # loop shape
    """    public void {method_name}(String {var1}, int {var2}) {{
        int {local1} = registry.reserve({var1});
        int {local2} = 0;
        for (int i = 0; i < {var2}; i++) {{
            {local2} += registry.step(i);
        }}
        {statement}
        dispatcher.{verb}({var1}, {local2} + {local1});
    }}""",
]

_DOCSTRINGS = [
    "",
    """    /**
     * Stages one {noun1} and reports the transition.
     */
""",
    """    // {noun1} handoff; see the {noun2} ledger for accounting.
""",
]


def render_method(index: int) -> tuple[str, dict]:
    m = make_method(index)
    body = _BODY_SHAPES[index % len(_BODY_SHAPES)].format(**m)
    doc = _DOCSTRINGS[index % len(_DOCSTRINGS)].format(**m)
    return doc + body, m


_FILE_HEADER = """package fixtures.generated;

import org.slf4j.Logger;
import org.slf4j.LoggerFactory;

/** Generated fixture: deterministic service-style logging call sites. */
public class {class_name} {{

    private static final Logger log = LoggerFactory.getLogger({class_name}.class);
    private static final Logger logger = log;

    private final Registry registry = Registry.shared();
    private final Dispatcher dispatcher = Dispatcher.shared();
    private final NameTable names = NameTable.shared();
    private final Clock clock = Clock.system();

"""


def render_file(class_name: str, method_indices: list[int]) -> str:
    parts = [_FILE_HEADER.format(class_name=class_name)]
    for idx in method_indices:
        text, _ = render_method(idx)
        parts.append(text + "\n\n")
    parts.append("}\n")
    return "".join(parts)


def write_clean() -> None:
    os.makedirs(CLEAN_DIR, exist_ok=True)
    for f, class_name in enumerate(CLASS_NAMES):
        indices = list(range(f * 10, f * 10 + 10))
        path = os.path.join(CLEAN_DIR, f"{class_name}.java")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render_file(class_name, indices))
    print(f"clean: {len(CLASS_NAMES)} files, {len(CLASS_NAMES) * 10} methods")


# ---------------------------------------------------------------------------
# End-to-end fixture: 20 single-method files + ground truth
# ---------------------------------------------------------------------------

# (file ordinal, generator index, defect to seed or None)
E2E_PLAN = [
    (1, 300, None),
    (2, 301, DefectLabel.READABILITY),
    (3, 302, None),
    (4, 303, DefectLabel.TEMPORAL),
    (5, 304, None),
    (6, 305, DefectLabel.STATEMENT_CODE),
    (7, 306, None),
    (8, 307, DefectLabel.STATIC_DYNAMIC),
    (9, 308, None),
    (10, 309, DefectLabel.READABILITY),
    (11, 310, None),
    (12, 311, DefectLabel.TEMPORAL),
    (13, 312, None),
    (14, 313, DefectLabel.STATEMENT_CODE),
    (15, 314, None),
    (16, 315, DefectLabel.STATIC_DYNAMIC),
    (17, 316, None),
    (18, 317, DefectLabel.READABILITY),
    (19, 318, None),
    (20, 319, DefectLabel.TEMPORAL),
]


def _single_method_file(class_name: str, index: int) -> str:
    return render_file(class_name, [index])


def _mutate(label: DefectLabel, stmt, ctx, seed: str):
    if label is DefectLabel.READABILITY:
        return mutate_readability(stmt, seed)
    if label is DefectLabel.TEMPORAL:
        return mutate_tense(stmt, seed)
    return mutate_semantic(stmt, ctx, label, rng_seed=seed)


def write_e2e() -> None:
    src_dir = os.path.join(E2E_DIR, "src")
    os.makedirs(src_dir, exist_ok=True)
    truth_lines = []
    for ordinal, index, defect in E2E_PLAN:
        class_name = f"PipelineCase{ordinal:02d}"
        file_name = f"{class_name}.java"
        source = _single_method_file(class_name, index)
        result = extract_file(source, file_name, project_id="e2e")
        assert len(result.records) == 1 and not result.errors, file_name
        ctx, parsed = result.records[0]
        assert len(parsed) == 1, file_name
        clean_stmt = parsed[0].statement

        if defect is None:
            final_source = source
            final_stmt = clean_stmt
            truth_stmt = clean_stmt
            label = DefectLabel.NON_DEFECT
        else:
            mutated_stmt, record = _mutate(defect, clean_stmt, ctx,
                                           f"e2e|{ordinal}")
            final_source = source.replace(clean_stmt.raw_text,
                                          mutated_stmt.raw_text, 1)
            re_extracted = extract_file(final_source, file_name,
                                        project_id="e2e")
            final_stmt = re_extracted.records[0][1][0].statement
            assert final_stmt.raw_text == mutated_stmt.raw_text
            truth_stmt = clean_stmt
            label = defect

        with open(os.path.join(src_dir, file_name), "w",
                  encoding="utf-8") as fh:
            fh.write(final_source)
        truth_lines.append(dumps_line(to_dict(
            TruthRecord(final_stmt.id, label, truth_stmt))))
    with open(os.path.join(E2E_DIR, "truth.jsonl"), "w",
              encoding="utf-8") as fh:
        fh.write("\n".join(truth_lines) + "\n")
    defects = sum(1 for _, _, d in E2E_PLAN if d is not None)
    print(f"e2e: {len(E2E_PLAN)} files ({defects} defective), truth.jsonl")


# ---------------------------------------------------------------------------
# Commit-history fixture: six snapshots, two qualifying changes
# ---------------------------------------------------------------------------

def write_history() -> None:
    """Derive the snapshot history from the two hand-written handler files.

    The five transitions exercise, in order: a pure log-text fix (qualifies),
    a log fix mixed with a code change (rejected: non-statement line), a
    statement deletion (rejected: statement sets differ), a statement
    addition (rejected likewise), and a second pure log-text fix (qualifies).
    """
    def read(name: str) -> str:
        with open(os.path.join(JAVA_DIR, name), encoding="utf-8") as fh:
            return fh.read()

    def swap(text: str, old: str, new: str) -> str:
        assert old in text, f"missing edit target: {old!r}"
        return text.replace(old, new, 1)

    intellflo0 = read("PentairIntelliFloHandler.java")
    digiplex0 = read("DigiplexReceiverThread.java")

    intellflo1 = swap(intellflo0, '"Intellflo received refresh command"',
                      '"IntelliFlo received refresh command"')
    dispatch_line = ('        logger.trace("Dispatching {} to channel {}",'
                     ' command, channel);\n')
    intellflo2 = swap(intellflo1, dispatch_line, "")
    intellflo3 = swap(
        intellflo2,
        '        logger.trace("Requesting pump status',
        '        logger.trace("Pump status request queued");\n'
        '        logger.trace("Requesting pump status')

    digiplex1 = swap(
        swap(digiplex0, "REPLY_TIMEOUT = 250", "REPLY_TIMEOUT = 500"),
        '"Serial port {} read timeout"', '"Serial port {} read failure"')
    digiplex2 = swap(digiplex1, '"Receiver thread started"',
                     '"Starting receiver thread"')

    snapshots = [
        ("0_base", intellflo0, digiplex0),
        ("1_typofix", intellflo1, digiplex0),
        ("2_mixedfix", intellflo1, digiplex1),
        ("3_logdrop", intellflo2, digiplex1),
        ("4_logadd", intellflo3, digiplex1),
        ("5_tensefix", intellflo3, digiplex2),
    ]
    for dirname, i_text, d_text in snapshots:
        base = os.path.join(HISTORY_DIR, dirname, "binding")
        os.makedirs(base, exist_ok=True)
        with open(os.path.join(base, "PentairIntelliFloHandler.java"), "w",
                  encoding="utf-8") as fh:
            fh.write(i_text)
        with open(os.path.join(base, "DigiplexReceiverThread.java"), "w",
                  encoding="utf-8") as fh:
            fh.write(d_text)
    print(f"history: {len(snapshots)} snapshots")


def main() -> None:
    check_pools()
    write_clean()
    write_e2e()
    write_history()


if __name__ == "__main__":
    main()
