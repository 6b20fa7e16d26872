"""Tests for the core data model: hashing, invariants, JSON round trips."""
from __future__ import annotations

import dataclasses
import json

import pytest

from conftest import make_change, single_method, statement_of
from logfix import model as model_module
from logfix.model import (
    DefectLabel,
    LABEL_INDEX,
    LABELS,
    LabeledSample,
    LogLevel,
    NUM_CLASSES,
    Provenance,
    ProvenanceKind,
    SourceLocation,
    UnknownLevel,
    UpdateResult,
    EvaluationRecord,
    change_from_dict,
    change_to_dict,
    content_hash,
    dumps_line,
    method_record_from_dict,
    method_record_to_dict,
    parse_level,
    read_changes,
    read_jsonl,
    read_samples,
    result_from_dict,
    result_to_dict,
    sample_from_dict,
    sample_to_dict,
    statement_from_dict,
    statement_id,
    statement_to_dict,
    validate_sample,
    write_changes,
    write_jsonl,
    write_samples,
)

METHOD_SOURCE = """\
class Cache {
    void evict(String key, int size) {
        log.info("evicting {} of {} bytes", key, size);
    }
}
"""


def make_sample() -> LabeledSample:
    ctx, stmts = single_method(METHOD_SOURCE, path="Cache.java", project="cache")
    return LabeledSample(
        context=ctx,
        target=stmts[0],
        label=DefectLabel.NON_DEFECT,
        provenance=Provenance(kind=ProvenanceKind.WELL_MAINTAINED),
    )


class TestLabelSpace:
    def test_fixed_order_and_size(self):
        assert NUM_CLASSES == 5
        assert LABELS[0] is DefectLabel.NON_DEFECT
        assert LABEL_INDEX[DefectLabel.NON_DEFECT] == 0
        assert [LABEL_INDEX[lab] for lab in LABELS] == [0, 1, 2, 3, 4]


class TestLevels:
    def test_parse_level_is_case_insensitive(self):
        assert parse_level("info") is LogLevel.INFO
        assert parse_level("WARN") is LogLevel.WARN
        assert parse_level(" Error ") is LogLevel.ERROR
        assert parse_level("fatal") is LogLevel.FATAL

    def test_parse_level_unknown(self):
        with pytest.raises(UnknownLevel):
            parse_level("loud")
        # Method-name aliases belong to the source parser, not this function.
        with pytest.raises(UnknownLevel):
            parse_level("warning")


class TestHashing:
    def test_content_hash_is_deterministic_and_positional(self):
        assert content_hash("a", "b") == content_hash("a", "b")
        assert content_hash("a", "b") != content_hash("ab")
        assert content_hash("a", "b") != content_hash("b", "a")
        assert len(content_hash("x")) == 16
        int(content_hash("x"), 16)  # hex

    def test_statement_id_inputs(self):
        base = statement_id("A.java", 3, 3, "log.info(\"x\");")
        assert statement_id("A.java", 3, 3, "log.info(\"x\");") == base
        assert statement_id("B.java", 3, 3, "log.info(\"x\");") != base
        assert statement_id("A.java", 4, 4, "log.info(\"x\");") != base
        assert statement_id("A.java", 3, 3, "log.info(\"y\");") != base


class TestStatementSerialization:
    def test_round_trip(self):
        stmt = statement_of('log.error(err, "failed {} after {}", job, wait);')
        d = statement_to_dict(stmt)
        assert d["arity_mismatch"] == stmt.arity_mismatch
        assert d["parse_degraded"] is False
        assert statement_from_dict(json.loads(json.dumps(d))) == stmt

    def test_derived_fields_are_not_required_to_load(self):
        stmt = statement_of('log.info("plain");')
        d = statement_to_dict(stmt)
        del d["arity_mismatch"]
        del d["parse_degraded"]
        assert statement_from_dict(d) == stmt


class TestSampleSerialization:
    def test_round_trip(self):
        sample = make_sample()
        d = sample_to_dict(sample)
        assert sample_from_dict(json.loads(json.dumps(d))) == sample

    def test_mutated_provenance_round_trip(self):
        sample = make_sample()
        mutated = dataclasses.replace(
            sample,
            label=DefectLabel.READABILITY,
            provenance=Provenance(
                kind=ProvenanceKind.MUTATED,
                strategy="TYPO",
                original_raw_text='log.info("evicting …");',
            ),
        )
        assert sample_from_dict(sample_to_dict(mutated)) == mutated


class TestChangeSerialization:
    def test_round_trip_and_change_id(self):
        change = make_change(
            "proj", "c1",
            'log.info("strating");',
            'log.info("starting");',
        )
        d = change_to_dict(change)
        restored = change_from_dict(json.loads(json.dumps(d)))
        assert restored == change
        assert restored.change_id == change.change_id

    def test_change_id_is_hashed_once_per_object(self, monkeypatch):
        change = make_change("proj", "c1", 'log.info("a");', 'log.info("b");')
        before = json.dumps(change_to_dict(change))
        calls = []
        real = model_module.content_hash
        monkeypatch.setattr(model_module, "content_hash",
                            lambda *parts: calls.append(parts) or real(*parts))
        first = change.change_id
        assert change.change_id == first
        assert len(calls) == 1
        # The cached id is no field: it is neither serialized nor carried
        # over to a modified copy.
        assert json.dumps(change_to_dict(change)) == before
        assert dataclasses.replace(change, commit_id="c2").change_id != first
        assert len(calls) == 2

    def test_inferred_label_round_trip(self):
        change = dataclasses.replace(
            make_change("p", "c", 'log.info("a");', 'log.info("b");'),
            inferred_label=DefectLabel.TEMPORAL,
        )
        assert change_from_dict(change_to_dict(change)) == change


class TestResultSerialization:
    def test_round_trip(self):
        sample = make_sample()
        change = make_change("p", "c", 'log.info("a");', 'log.info("b");')
        result = UpdateResult(
            sample=sample,
            predicted_label=DefectLabel.READABILITY,
            confidence=0.75,
            checker_confirmed=True,
            checker_rationale="misspelled word",
            checker_semantics="cache eviction event",
            exemplars=(change,),
            updated_statement=statement_of('log.info("fixed");'),
            metrics=(EvaluationRecord("bleu-1", 0.5, 0.9, 0.8),
                     EvaluationRecord("rouge-l", 1.0, 1.0, None)),
            diagnostics=("backend-calls:2",),
        )
        d = result_to_dict(result)
        assert result_from_dict(json.loads(json.dumps(d))) == result

    def test_none_updated_statement(self):
        result = UpdateResult(
            sample=make_sample(),
            predicted_label=DefectLabel.NON_DEFECT,
            confidence=0.9,
            checker_confirmed=False,
            checker_rationale="",
            checker_semantics="",
            exemplars=(),
            updated_statement=None,
        )
        restored = result_from_dict(result_to_dict(result))
        assert restored == result
        assert restored.updated_statement is None


class TestValidateSample:
    def test_clean_sample_is_valid(self):
        assert validate_sample(make_sample()) == []

    def test_detects_foreign_statement(self):
        sample = make_sample()
        stranger = statement_of('logger.info("elsewhere");')
        bad = dataclasses.replace(sample, target=stranger)
        problems = validate_sample(bad)
        assert any("belong" in p for p in problems)

    def test_detects_path_mismatch(self):
        sample = make_sample()
        moved = dataclasses.replace(
            sample.target,
            location=SourceLocation("Other.java",
                                    sample.target.location.start_line,
                                    sample.target.location.end_line),
        )
        problems = validate_sample(dataclasses.replace(sample, target=moved))
        assert any("path" in p for p in problems)

    def test_detects_lines_outside_method(self):
        sample = make_sample()
        displaced = dataclasses.replace(
            sample.target,
            location=SourceLocation(sample.target.location.path, 999, 999),
        )
        problems = validate_sample(dataclasses.replace(sample, target=displaced))
        assert any("line" in p for p in problems)

    def test_detects_empty_statement_list(self):
        sample = make_sample()
        hollow = dataclasses.replace(sample.context, statement_ids=())
        problems = validate_sample(dataclasses.replace(sample, context=hollow))
        assert any("no logging statements" in p for p in problems)

    def test_detects_bad_mutated_provenance(self):
        sample = make_sample()
        # MUTATED + NON_DEFECT + missing original text: two violations.
        bad = dataclasses.replace(
            sample, provenance=Provenance(kind=ProvenanceKind.MUTATED)
        )
        problems = validate_sample(bad)
        assert any("NON_DEFECT" in p for p in problems)
        assert any("original_raw_text" in p for p in problems)

    def test_detects_unchanged_mutation(self):
        sample = make_sample()
        bad = dataclasses.replace(
            sample,
            label=DefectLabel.READABILITY,
            provenance=Provenance(
                kind=ProvenanceKind.MUTATED,
                strategy="TYPO",
                original_raw_text=sample.target.raw_text,
            ),
        )
        assert any("unchanged" in p for p in validate_sample(bad))

    def test_detects_mislabeled_clean_sample(self):
        sample = make_sample()
        bad = dataclasses.replace(sample, label=DefectLabel.TEMPORAL)
        assert any("NON_DEFECT" in p for p in validate_sample(bad))


class TestJsonl:
    def test_write_read_round_trip_skips_blank_lines(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        rows = [{"a": 1}, {"b": "two"}]
        assert write_jsonl(str(path), rows) == 2
        raw = path.read_text(encoding="utf-8")
        path.write_text(raw + "\n   \n", encoding="utf-8")
        assert list(read_jsonl(str(path))) == rows

    def test_unicode_is_not_escaped(self, tmp_path):
        line = dumps_line({"msg": "Größe läuft"})
        assert "Größe" in line
        path = tmp_path / "u.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        assert next(read_jsonl(str(path)))["msg"] == "Größe läuft"

    def test_sample_file_round_trip(self, tmp_path):
        path = tmp_path / "samples.jsonl"
        samples = [make_sample()]
        assert write_samples(str(path), samples) == 1
        assert read_samples(str(path)) == samples

    def test_change_file_round_trip(self, tmp_path):
        path = tmp_path / "changes.jsonl"
        changes = [make_change("p", "c", 'log.info("a");', 'log.info("b");')]
        assert write_changes(str(path), changes) == 1
        assert read_changes(str(path)) == changes


class TestMethodRecord:
    def test_round_trip(self):
        ctx, stmts = single_method(METHOD_SOURCE)
        d = method_record_to_dict(ctx, stmts)
        restored_ctx, restored_stmts = method_record_from_dict(
            json.loads(json.dumps(d))
        )
        assert restored_ctx == ctx
        assert restored_stmts == stmts
