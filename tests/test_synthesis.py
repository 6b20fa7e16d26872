"""Tests for lexicon loading, the four mutation operators, and corpus synthesis."""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import replace

import pytest

from conftest import JAVA_DIR, single_method, statement_of
from logfix import parser, synthesis
from logfix.backends import MockBackend
from logfix.parser import extract_file
from logfix.model import (
    DefectLabel,
    LabeledSample,
    LogLevel,
    Provenance,
    ProvenanceKind,
    statement_id,
    validate_sample,
)
from logfix.synthesis import (
    DEFECT_LABELS,
    InsufficientInputs,
    MutationRecord,
    MutationStrategy,
    NoCandidate,
    NoMutableWord,
    LexiconPaths,
    Tense,
    load_lexicons,
    mutate_readability,
    mutate_semantic,
    mutate_tense,
    synthesize_corpus,
)

# Seeds chosen so random.Random(seed).random() falls on a known side of the
# 50/50 branch in mutate_readability: seed 0 -> 0.844 (typo preferred),
# seed 3 -> 0.238 (uppercasing preferred).
TYPO_SEED = 0
CAPS_SEED = 3


# ---------------------------------------------------------------------------
# Lexicon loading
# ---------------------------------------------------------------------------
def load(tmp_path, key: str, text: str, encoding: str = "utf-8"):
    """The lexicons with the `key` file written from `text`, the other two
    bundled."""
    path = tmp_path / f"{key}.tsv"
    path.write_text(text, encoding=encoding)
    return load_lexicons(LexiconPaths(**{key: str(path)}))


class TestTypoLexicon:
    def test_bundled_entry(self):
        typos = load_lexicons().typos
        assert typos["executor"] == ("executer",)
        assert len(typos) > 300

    def test_custom_file(self, tmp_path):
        lex = load(tmp_path, "typos",
                   "# comment line\n"
                   "executor\texecuter\texcutor\n"
                   "\n"
                   "queue\tqeue\n")
        assert lex.typos == {
            "executor": ("executer", "excutor"),
            "queue": ("qeue",),
        }

    def test_rejects_single_field(self, tmp_path):
        with pytest.raises(ValueError):
            load(tmp_path, "typos", "lonely\n")

    def test_rejects_uppercase_key(self, tmp_path):
        with pytest.raises(ValueError):
            load(tmp_path, "typos", "Executor\texecuter\n")

    def test_rejects_identity_mapping(self, tmp_path):
        with pytest.raises(ValueError):
            load(tmp_path, "typos", "word\tWord\n")

    def test_a_leading_bom_is_not_part_of_the_first_key(self, tmp_path):
        lex = load(tmp_path, "typos", "executor\texecuter\n",
                   encoding="utf-8-sig")
        assert lex.typos == {"executor": ("executer",)}

    def test_fields_are_stripped(self, tmp_path):
        lex = load(tmp_path, "typos", "executor \t executer\n")
        assert lex.typos == {"executor": ("executer",)}

    @pytest.mark.parametrize("line", ["word\t \n", " \tword\n"])
    def test_a_blank_field_is_no_misspelling(self, tmp_path, line):
        with pytest.raises(ValueError, match="needs >=2 fields"):
            load(tmp_path, "typos", line)


class TestVerbLexicon:
    def test_bundled_classification(self):
        lex = load_lexicons()
        assert lex.classify("starting") == ("start", Tense.PRESENT_PARTICIPLE)
        assert lex.classify("Started") == ("start", Tense.PAST)
        assert lex.classify("is") is None  # auxiliary stop form
        assert lex.classify("quota") is None

    def test_bundled_surface_forms(self):
        forms = load_lexicons().verbs["start"]
        assert forms == {
            Tense.BASE: "start",
            Tense.PAST: "started",
            Tense.PAST_PARTICIPLE: "started",
            Tense.PRESENT_PARTICIPLE: "starting",
            Tense.THIRD_PERSON: "starts",
        }

    def test_regular_inflection_rules(self, tmp_path):
        verbs = load(tmp_path, "verbs", "deploy\ncopy\nclose\npass\n").verbs
        assert verbs["deploy"][Tense.PAST] == "deployed"
        assert verbs["deploy"][Tense.THIRD_PERSON] == "deploys"
        assert verbs["copy"][Tense.PAST] == "copied"
        assert verbs["copy"][Tense.THIRD_PERSON] == "copies"
        assert verbs["close"][Tense.PAST] == "closed"
        assert verbs["close"][Tense.PRESENT_PARTICIPLE] == "closing"
        assert verbs["pass"][Tense.THIRD_PERSON] == "passes"

    def test_explicit_forms_and_stop_set(self, tmp_path):
        lex = load(tmp_path, "verbs",
                   "run\tran\trun\trunning\truns\n"
                   "!stop\tis\twas\n")
        assert lex.classify("ran") == ("run", Tense.PAST)
        assert lex.classify("running") == ("run", Tense.PRESENT_PARTICIPLE)
        assert lex.classify("was") is None
        assert lex.classify("is") is None

    def test_rejects_wrong_field_count(self, tmp_path):
        with pytest.raises(ValueError):
            load(tmp_path, "verbs", "run\tran\trun\n")

    def test_stop_fields_are_stripped(self, tmp_path):
        lex = load(tmp_path, "verbs",
                   "run\tran\trun\trunning\truns\n"
                   " !stop\t Ran \t\n")
        assert lex.classify("ran") is None
        assert lex.classify("running") == ("run", Tense.PRESENT_PARTICIPLE)

    def test_a_leading_bom_is_not_part_of_the_first_lemma(self, tmp_path):
        lex = load(tmp_path, "verbs", "deploy\n", encoding="utf-8-sig")
        assert list(lex.verbs) == ["deploy"]
        assert lex.classify("deployed") == ("deploy", Tense.PAST)


class TestAntonymTable:
    def test_bundled_pairs_are_lemma_level(self):
        lex = load_lexicons()
        assert lex.opposite("close") == "open"
        assert lex.opposite("open") == "close"
        # Inflected forms are resolved by conjugation, not stored directly.
        assert lex.antonyms.get("closed") is None
        assert lex.opposite("closed") == "opened"
        assert lex.opposite("remote") == "local"
        assert lex.opposite("after") == "before"
        assert lex.opposite("quota") is None

    def test_custom_file_symmetric_and_first_wins(self, tmp_path):
        lex = load(tmp_path, "antonyms", "open\tclose\nopen\tshut\n")
        assert lex.opposite("open") == "close"
        assert lex.opposite("close") == "open"
        assert lex.opposite("shut") == "open"

    def test_rejects_bad_lines(self, tmp_path):
        with pytest.raises(ValueError):
            load(tmp_path, "antonyms", "same\tsame\n")
        with pytest.raises(ValueError):
            load(tmp_path, "antonyms", "a\tb\tc\n")

    def test_a_leading_bom_is_not_part_of_the_first_word(self, tmp_path):
        lex = load(tmp_path, "antonyms", "open\tclose\n",
                   encoding="utf-8-sig")
        assert lex.antonyms == {"open": "close", "close": "open"}


def test_the_bundled_lexicons_are_read_once():
    assert load_lexicons() is load_lexicons()
    # a config whose paths are all "" names the bundled files: same value
    assert load_lexicons(LexiconPaths()) is load_lexicons()


# ---------------------------------------------------------------------------
# Mutation records
# ---------------------------------------------------------------------------
def test_mutation_record_rejects_identity():
    with pytest.raises(ValueError):
        MutationRecord(
            strategy=MutationStrategy.TYPO, original="word", mutated="word"
        )


# ---------------------------------------------------------------------------
# Readability mutations
# ---------------------------------------------------------------------------
class TestMutateReadability:
    def test_lexicon_typo_path(self):
        stmt = statement_of('log.info("executor {}", executorId);')
        mutated, record = mutate_readability(stmt, rng_seed=TYPO_SEED)
        assert mutated.raw_text == 'log.info("executer {}", executorId);'
        assert record.strategy is MutationStrategy.TYPO
        assert record.detail == "lexicon"
        assert (record.original, record.mutated) == ("executor", "executer")
        # Identity and derived fields are refreshed; the location is not.
        assert mutated.id != stmt.id
        assert mutated.location == stmt.location
        assert mutated.method_id == stmt.method_id
        assert mutated.static_text == "executer {}"

    def test_uppercase_path(self):
        stmt = statement_of('log.info("executor {}", executorId);')
        mutated, record = mutate_readability(stmt, rng_seed=CAPS_SEED)
        assert mutated.raw_text == 'log.info("EXECUTOR {}", executorId);'
        assert record.strategy is MutationStrategy.CAPITALIZATION
        assert record.detail == "uppercase"

    def test_random_edit_fallback(self):
        stmt = statement_of('log.info("zgrblat {}", x);')
        mutated, record = mutate_readability(stmt, rng_seed=TYPO_SEED)
        assert record.strategy is MutationStrategy.TYPO
        assert record.detail == "random-edit"
        assert record.original == "zgrblat"
        assert record.mutated != "zgrblat"
        # Single-character edit that keeps the leading character.
        assert record.mutated[0] == "z"
        assert abs(len(record.mutated) - len("zgrblat")) <= 1
        assert mutated.raw_text == stmt.raw_text.replace("zgrblat", record.mutated)

    def test_casing_of_misspelling_follows_original(self):
        stmt = statement_of('log.info("Executor {}", executorId);')
        mutated, record = mutate_readability(stmt, rng_seed=TYPO_SEED)
        assert record.mutated == "Executer"
        assert '"Executer {}"' in mutated.raw_text

    def test_deterministic_per_seed(self):
        stmt = statement_of('log.warn("failed to reconnect after {} attempts", n);')
        first = mutate_readability(stmt, rng_seed=7)
        second = mutate_readability(stmt, rng_seed=7)
        assert first[0].raw_text == second[0].raw_text
        assert first[1] == second[1]

    def test_no_editable_word(self):
        stmt = statement_of('log.info("{}", x);')
        with pytest.raises(NoMutableWord):
            mutate_readability(stmt, rng_seed=0)

    def test_an_escape_letter_is_no_part_of_a_word(self):
        stmt = statement_of(
            'log.info("Failed:\\nretrying {} times\\tnow \\u0041ck", n);')
        for seed in range(16):
            mutated, record = mutate_readability(stmt, rng_seed=seed)
            assert record.original in {"Failed", "retrying", "times", "now",
                                       "ck"}, seed
            # every escape sequence survives the edit as it was
            assert re.findall(r"\\.", mutated.raw_text) == [
                "\\n", "\\t", "\\u"], (seed, mutated.raw_text)
        stmt = statement_of('log.info("Failed:\\nretrying {} times\\tnow", n);')
        assert [mutate_readability(stmt, rng_seed=seed)[0].raw_text
                for seed in (3, 8)] == [
            'log.info("Failed:\\nRETRYING {} times\\tnow", n);',
            'log.info("Failed:\\nretrying {} times\\tNOW", n);']

    def test_caps_seed_falls_back_to_typo_when_all_uppercase(self):
        stmt = statement_of('log.info("GC OK");')
        mutated, record = mutate_readability(stmt, rng_seed=CAPS_SEED)
        # Both words are already fully uppercase, so the 50/50 coin landing on
        # uppercasing has nothing to do and the typo arm runs instead.
        assert record.strategy is MutationStrategy.TYPO
        assert mutated.raw_text != stmt.raw_text


# ---------------------------------------------------------------------------
# Tense mutations
# ---------------------------------------------------------------------------
class TestMutateTense:
    def test_identify_main_verb(self):
        def main_verb(static_text):
            try:
                mutated, record = mutate_tense(
                    statement_of(f'log.info("{static_text}");'), rng_seed=0)
            except NoCandidate:
                return None
            words = re.findall(r"[A-Za-z]+", static_text)
            changed = [i for i, (a, b) in enumerate(zip(
                words, re.findall(r"[A-Za-z]+", mutated.static_text)))
                if a != b]
            assert changed == [words.index(record.original)]
            return changed[0], record.original, record.detail.split(" ->")[0]

        assert main_verb("starting the worker") == (
            0, "starting", "start: PRESENT_PARTICIPLE")
        assert main_verb("worker starting") == (
            1, "starting", "start: PRESENT_PARTICIPLE")
        # Stop forms (auxiliaries) never count as the main verb.
        assert main_verb("is starting") == (
            1, "starting", "start: PRESENT_PARTICIPLE")
        assert main_verb("memory quota threshold") is None
        assert main_verb("") is None

    def test_rewrites_only_the_main_verb(self):
        stmt = statement_of('logger.info("starting worker {}", workerId);')
        result = mutate_tense(stmt, rng_seed=0)
        assert result is not None
        mutated, record = result
        assert record.strategy is MutationStrategy.TENSE
        assert record.original == "starting"
        assert record.mutated in {"start", "started", "starts"}
        assert re.fullmatch(
            r"start: PRESENT_PARTICIPLE -> (BASE|PAST|THIRD_PERSON)",
            record.detail,
        )
        before_words = re.findall(r"[A-Za-z]+", stmt.static_text)
        after_words = re.findall(r"[A-Za-z]+", mutated.static_text)
        assert len(before_words) == len(after_words)
        diffs = [
            i for i, (a, b) in enumerate(zip(before_words, after_words)) if a != b
        ]
        assert diffs == [0]

    def test_casing_is_preserved(self):
        stmt = statement_of('logger.info("Starting worker");')
        result = mutate_tense(stmt, rng_seed=1)
        assert result is not None
        mutated, record = result
        assert record.mutated[0].isupper()
        assert record.mutated[1:].islower()

    def test_deterministic_per_seed(self):
        stmt = statement_of('logger.info("connection closed by peer {}", peer);')
        assert mutate_tense(stmt, rng_seed=4) == mutate_tense(stmt, rng_seed=4)

    def test_raises_without_a_verb(self):
        stmt = statement_of('logger.info("quota {}", q);')
        with pytest.raises(NoCandidate):
            mutate_tense(stmt, rng_seed=0)


# ---------------------------------------------------------------------------
# Semantic mutations
# ---------------------------------------------------------------------------
CHANNEL_SOURCE = """\
class Net {
    void teardown(Channel ch, String remoteAddr) {
        LOG.debug("channel {} closed", remoteAddr);
    }
}
"""


class TestMutateSemantic:
    def test_statement_code_uses_conjugated_antonym(self):
        ctx, stmts = single_method(CHANNEL_SOURCE)
        mutated, record = mutate_semantic(
            stmts[0], ctx, DefectLabel.STATEMENT_CODE
        )
        assert mutated.raw_text == 'LOG.debug("channel {} opened", remoteAddr);'
        assert record.strategy is MutationStrategy.SEMANTIC_STATEMENT_CODE
        assert record.detail == "antonym closed -> opened"
        assert (record.original, record.mutated) == ("closed", "opened")

    def test_static_dynamic_prefers_variable_swap(self):
        ctx, stmts = single_method(CHANNEL_SOURCE)
        mutated, record = mutate_semantic(
            stmts[0], ctx, DefectLabel.STATIC_DYNAMIC
        )
        assert mutated.raw_text == 'LOG.debug("channel {} closed", ch);'
        assert record.strategy is MutationStrategy.SEMANTIC_STATIC_DYNAMIC
        assert record.detail == "variable-swap"
        assert (record.original, record.mutated) == ("remoteAddr", "ch")
        assert mutated.variables == ("ch",)

    def test_static_dynamic_falls_back_to_description_swap(self):
        ctx, stmts = single_method(
            "class Job {\n"
            "    void run() {\n"
            '        log.info("worker {} spool {}", getWorker(), spoolTag);\n'
            "    }\n"
            "}\n"
        )
        mutated, record = mutate_semantic(
            stmts[0], ctx, DefectLabel.STATIC_DYNAMIC
        )
        assert record.detail == "description-swap"
        assert record.original == "worker"
        # The replacement names a *different* logged variable's description.
        assert record.mutated.lower() == "tag"
        assert mutated.static_text.startswith("tag {}")

    def test_rejects_non_semantic_kinds(self):
        ctx, stmts = single_method(CHANNEL_SOURCE)
        for kind in (DefectLabel.NON_DEFECT, DefectLabel.TEMPORAL,
                     DefectLabel.READABILITY):
            with pytest.raises(ValueError):
                mutate_semantic(stmts[0], ctx, kind)

    def test_no_candidate_paths(self):
        ctx, stmts = single_method(
            "class Quota {\n"
            "    void check(long q) {\n"
            '        LOG.info("quota {}", q);\n'
            "    }\n"
            "}\n"
        )
        with pytest.raises(NoCandidate):
            mutate_semantic(stmts[0], ctx, DefectLabel.STATEMENT_CODE)
        bare_ctx, bare_stmts = single_method(
            "class Quota {\n"
            "    void check() {\n"
            '        LOG.info("processing");\n'
            "    }\n"
            "}\n"
        )
        with pytest.raises(NoCandidate):
            mutate_semantic(bare_stmts[0], bare_ctx, DefectLabel.STATIC_DYNAMIC)

    def test_backend_reply_is_used_when_well_formed(self):
        ctx, stmts = single_method(CHANNEL_SOURCE)
        backend = MockBackend(transcript=[(
            "MUTATED",
            'Sure: <MUTATED>LOG.debug("channel {} reset", remoteAddr);</MUTATED>',
        )])
        mutated, record = mutate_semantic(
            stmts[0], ctx, DefectLabel.STATEMENT_CODE, backend
        )
        assert mutated.raw_text == 'LOG.debug("channel {} reset", remoteAddr);'
        assert record.detail == "llm:mock"
        assert record.original == stmts[0].raw_text
        assert len(backend.calls) == 1

    def test_backend_reply_keeps_its_level_and_drops_its_comment(self):
        ctx, stmts = single_method(CHANNEL_SOURCE)
        # scripted for the statement-code prompt only; the other kinds
        # fall back to the rules
        backend = MockBackend(transcript=[(
            "contradicts",
            '<MUTATED>LOG.warn("channel {} opened", remoteAddr); // x'
            '</MUTATED>',
        )])
        clean = [LabeledSample(
            context=ctx, target=stmts[0], label=DefectLabel.NON_DEFECT,
            provenance=Provenance(kind=ProvenanceKind.WELL_MAINTAINED))]
        corpus = synthesize_corpus(clean, 1, backend=backend)
        [sample] = [s for s in corpus
                    if s.label is DefectLabel.STATEMENT_CODE]
        target = sample.target
        assert target.level is LogLevel.WARN
        assert target.raw_text == 'LOG.warn("channel {} opened", remoteAddr);'
        assert (target.location, target.method_id) == (
            stmts[0].location, stmts[0].method_id)
        assert target.raw_text in sample.context.source_text

    def test_backend_junk_reply_falls_back_to_rules(self):
        ctx, stmts = single_method(CHANNEL_SOURCE)
        backend = MockBackend(transcript=[("MUTATED", "cannot comply")])
        mutated, record = mutate_semantic(
            stmts[0], ctx, DefectLabel.STATEMENT_CODE, backend
        )
        assert record.detail == "antonym closed -> opened"
        assert len(backend.calls) == 1

    def test_backend_unparseable_statement_falls_back_to_rules(self):
        ctx, stmts = single_method(CHANNEL_SOURCE)
        backend = MockBackend(transcript=[(
            "MUTATED", "<MUTATED>not a logging statement</MUTATED>",
        )])
        mutated, record = mutate_semantic(
            stmts[0], ctx, DefectLabel.STATEMENT_CODE, backend
        )
        assert record.detail == "antonym closed -> opened"

    def test_reply_equal_to_the_origin_once_reparsed_falls_back(self):
        ctx, stmts = single_method(CHANNEL_SOURCE)
        backend = MockBackend(transcript=[(
            "MUTATED",
            '<MUTATED>LOG.debug("channel {} closed", remoteAddr); // x'
            '</MUTATED>',
        )])
        mutated, record = mutate_semantic(
            stmts[0], ctx, DefectLabel.STATEMENT_CODE, backend
        )
        assert record.detail == "antonym closed -> opened"
        assert mutated.raw_text == 'LOG.debug("channel {} opened", remoteAddr);'
        assert len(backend.calls) == 1

    def test_record_holds_the_reparsed_text(self):
        ctx, stmts = single_method(CHANNEL_SOURCE)
        backend = MockBackend(transcript=[(
            "MUTATED",
            '<MUTATED>LOG.debug("channel {} reset", remoteAddr); // x'
            '</MUTATED>',
        )])
        mutated, record = mutate_semantic(
            stmts[0], ctx, DefectLabel.STATEMENT_CODE, backend
        )
        assert record.detail == "llm:mock"
        assert record.mutated == mutated.raw_text == (
            'LOG.debug("channel {} reset", remoteAddr);')

    def test_seeded_choice_is_deterministic(self):
        ctx, stmts = single_method(CHANNEL_SOURCE)
        a = mutate_semantic(stmts[0], ctx, DefectLabel.STATIC_DYNAMIC, rng_seed=9)
        b = mutate_semantic(stmts[0], ctx, DefectLabel.STATIC_DYNAMIC, rng_seed=9)
        assert a == b


# ---------------------------------------------------------------------------
# Corpus synthesis
# ---------------------------------------------------------------------------
class TestSynthesizeCorpus:
    def test_counts_grouping_and_invariants(self, clean_samples):
        out = synthesize_corpus(clean_samples[:15], 2, seed=5)
        assert [s.label for s in out] == [
            label for label in DEFECT_LABELS for _ in range(2)
        ]
        assert Counter(s.label for s in out) == {
            label: 2 for label in DEFECT_LABELS
        }
        for sample in out:
            assert validate_sample(sample) == []
            prov = sample.provenance
            assert prov.kind is ProvenanceKind.MUTATED
            assert prov.original_raw_text
            assert prov.original_raw_text != sample.target.raw_text
            # The context reflects the mutation.
            assert sample.target.raw_text in sample.context.source_text
            assert prov.original_raw_text not in sample.context.source_text
            assert sample.target.id in sample.context.statement_ids

    def test_a_repeated_statement_is_mutated_at_its_own_line(self):
        source = ("class Pump {\n"
                  "    void drain(Channel ch, String remoteAddr) {\n"
                  '        LOG.debug("closing channel {}", remoteAddr);\n'
                  "        ch.close();\n"
                  '        LOG.debug("closing channel {}", remoteAddr);\n'
                  "    }\n}\n")
        ctx, stmts = single_method(source, path="Pump.java")
        assert stmts[0].raw_text == stmts[1].raw_text
        for copy, stmt in enumerate(stmts):
            clean = LabeledSample(
                context=ctx, target=stmt, label=DefectLabel.NON_DEFECT,
                provenance=Provenance(kind=ProvenanceKind.WELL_MAINTAINED))
            out = synthesize_corpus([clean], 1, seed=0)
            assert len(out) == len(DEFECT_LABELS)
            for sample in out:
                assert validate_sample(sample) == []
                lines = sample.context.source_text.split("\n")
                # the method's text starts on its line 2; statements sit
                # on lines 3 and 5
                assert [lines[1].strip(), lines[3].strip()] == [
                    sample.target.raw_text if i == copy else stmt.raw_text
                    for i in range(2)]

    def test_strategy_matches_label(self, clean_samples):
        out = synthesize_corpus(clean_samples[:15], 2, seed=5)
        expected = {
            DefectLabel.READABILITY: {
                MutationStrategy.TYPO.value,
                MutationStrategy.CAPITALIZATION.value,
            },
            DefectLabel.TEMPORAL: {MutationStrategy.TENSE.value},
            DefectLabel.STATEMENT_CODE: {
                MutationStrategy.SEMANTIC_STATEMENT_CODE.value
            },
            DefectLabel.STATIC_DYNAMIC: {
                MutationStrategy.SEMANTIC_STATIC_DYNAMIC.value
            },
        }
        for sample in out:
            assert sample.provenance.strategy in expected[sample.label]

    def test_outputs_are_unique(self, clean_samples):
        out = synthesize_corpus(clean_samples[:15], 3, seed=2)
        keys = {(s.context.source_text, s.target.raw_text) for s in out}
        assert len(keys) == len(out)

    def test_deterministic_for_a_seed(self, clean_samples):
        first = synthesize_corpus(clean_samples[:15], 2, seed=11)
        second = synthesize_corpus(clean_samples[:15], 2, seed=11)
        assert first == second
        third = synthesize_corpus(clean_samples[:15], 2, seed=12)
        assert [s.target.raw_text for s in third] != [
            s.target.raw_text for s in first
        ]

    def test_zero_count_yields_empty(self, clean_samples):
        assert synthesize_corpus(clean_samples[:5], 0, seed=0) == []

    def test_rejects_defective_inputs(self, clean_samples):
        mutants = synthesize_corpus(clean_samples[:15], 1, seed=0)
        with pytest.raises(ValueError):
            synthesize_corpus(mutants[:1], 1, seed=0)

    def test_an_invalid_mutant_is_dropped(self, clean_samples, monkeypatch):
        mutate_tense = synthesis.mutate_tense
        invalid = []

        def first_three_invalid(*args, **kwargs):
            mutated = mutate_tense(*args, **kwargs)
            if mutated is not None and len(invalid) < 3:
                stmt, record = mutated
                mutated = replace(stmt, method_id="elsewhere"), record
                invalid.append(mutated[0])
            return mutated

        monkeypatch.setattr(synthesis, "mutate_tense", first_three_invalid)
        out = synthesize_corpus(clean_samples[:15], 4, seed=5)
        assert len(invalid) == 3
        assert Counter(s.label for s in out) == {
            label: 4 for label in DEFECT_LABELS}
        assert all(validate_sample(s) == [] for s in out)
        assert not {s.target for s in out} & set(invalid)

    def test_one_statement_hash_per_parse(self, clean_samples, monkeypatch):
        hashes = []

        def counted_hash(*args):
            hashes.append(args)
            return statement_id(*args)

        monkeypatch.setattr(parser, "statement_id", counted_hash)
        mutants = []
        for name in ("mutate_readability", "mutate_tense", "mutate_semantic"):
            def counted_rule(*args, _rule=getattr(synthesis, name), **kwargs):
                mutated = _rule(*args, **kwargs)
                mutants.append(mutated[0])
                return mutated

            monkeypatch.setattr(synthesis, name, counted_rule)
        pool = clean_samples[:15]
        synthesize_corpus(pool, 4, seed=5)
        # at most one hash per clean statement, for the bare parse of its
        # analysis (at <text>), and one per mutant, at its clean statement's
        # place, whether or not the corpus keeps it
        assert len(mutants) >= 16
        assert Counter(raw for path, *_, raw in hashes if path == "<text>") \
            <= Counter(sample.target.raw_text for sample in pool)
        assert sorted(h for h in hashes if h[0] != "<text>") == sorted(
            (m.location.path, m.location.start_line, m.location.end_line,
             m.raw_text) for m in mutants)

    def test_insufficient_inputs(self, clean_samples):
        with pytest.raises(InsufficientInputs):
            synthesize_corpus(clean_samples[:1], 50, seed=0)

    def test_bundled_anchor_statement(self):
        source = (JAVA_DIR / "StreamExecutorService.java").read_text(
            encoding="utf-8"
        )
        result = extract_file(source, "StreamExecutorService.java", None, "proj")
        anchors = [
            p.statement for _, parsed in result.records for p in parsed
            if p.statement.raw_text == 'LOG.info("To stop Stream executor");'
        ]
        assert len(anchors) == 1
        mutated, record = mutate_readability(anchors[0], rng_seed=0)
        assert record.mutated == "executer"
        assert '"To stop Stream executer"' in mutated.raw_text
