"""Tests for the core data model: hashing, invariants, JSON round trips."""
from __future__ import annotations

import dataclasses
import json
import os
import re
import stat
import threading

import pytest

from conftest import make_change, single_method, statement_of
from logfix import model as model_module
from logfix.detector import TrainConfig
from logfix.parser import ParserConfig
from logfix.model import (
    DefectLabel,
    LABEL_INDEX,
    LABELS,
    LabeledSample,
    LogCentricChange,
    LoggingStatement,
    LogLevel,
    MethodContext,
    MethodRecord,
    NUM_CLASSES,
    Placeholder,
    PlaceholderKind,
    Provenance,
    ProvenanceKind,
    SourceLocation,
    TruthRecord,
    UpdateResult,
    content_hash,
    dumps_line,
    from_dict,
    open_output,
    read_changes,
    read_jsonl,
    read_samples,
    statement_id,
    statement_offset,
    statement_to_dict,
    to_dict,
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
    def test_level_names_are_case_insensitive(self):
        assert LogLevel("info") is LogLevel.INFO
        assert LogLevel("WARN") is LogLevel.WARN
        assert LogLevel(" Error ") is LogLevel.ERROR
        assert LogLevel("fatal") is LogLevel.FATAL

    def test_unknown_level_name(self):
        with pytest.raises(ValueError, match="'loud' is not a valid LogLevel"):
            LogLevel("loud")
        # Method-name aliases belong to the source parser, not the level.
        with pytest.raises(ValueError):
            LogLevel("warning")
        with pytest.raises(ValueError):
            LogLevel(3)

    def test_records_read_level_names_case_insensitively(self):
        d = to_dict(statement_of('log.warn("x");'))
        assert (from_dict(LoggingStatement, {**d, "level": "warn"})
                == from_dict(LoggingStatement, d))


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
        d = to_dict(stmt)
        # arity_mismatch is derived from the placeholders and variables, so
        # it is not written
        assert list(d) == [f.name for f in dataclasses.fields(stmt)]
        assert d["parse_degraded"] is False
        assert from_dict(LoggingStatement, json.loads(json.dumps(d))) == stmt

    def test_derived_fields_are_not_required_to_load(self):
        stmt = statement_of('log.info("plain");')
        d = to_dict(stmt)
        del d["parse_degraded"]
        assert from_dict(LoggingStatement, d) == stmt


class TestSampleSerialization:
    def test_round_trip(self):
        sample = make_sample()
        d = to_dict(sample)
        assert from_dict(LabeledSample, json.loads(json.dumps(d))) == sample

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
        assert from_dict(LabeledSample, to_dict(mutated)) == mutated


class TestChangeSerialization:
    def test_round_trip_and_change_id(self):
        change = make_change(
            "proj", "c1",
            'log.info("strating");',
            'log.info("starting");',
        )
        d = to_dict(change)
        restored = from_dict(LogCentricChange, json.loads(json.dumps(d)))
        assert restored == change
        assert restored.change_id == change.change_id

    def test_change_id_is_hashed_once_per_object(self, monkeypatch):
        change = make_change("proj", "c1", 'log.info("a");', 'log.info("b");')
        before = json.dumps(to_dict(change))
        calls = []
        real = model_module.content_hash
        monkeypatch.setattr(model_module, "content_hash",
                            lambda *parts: calls.append(parts) or real(*parts))
        first = change.change_id
        assert change.change_id == first
        assert len(calls) == 1
        # The cached id is no field: it is neither serialized nor carried
        # over to a modified copy.
        assert json.dumps(to_dict(change)) == before
        assert dataclasses.replace(change, commit_id="c2").change_id != first
        assert len(calls) == 2


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
            diagnostics=("backend-calls:2",),
        )
        d = to_dict(result)
        assert from_dict(UpdateResult, json.loads(json.dumps(d))) == result
        # Older files carry per-result metrics, which nothing reads, and an
        # inferred label on each exemplar; both still load and are dropped.
        old = json.loads(json.dumps({
            **d,
            "exemplars": [{**e, "inferred_label": "TEMPORAL"}
                          for e in d["exemplars"]],
            "metrics": [{"metric_name": "bleu-1", "m_origin": 0.5,
                         "m_updated": 0.9, "ic": 0.8}],
        }))
        restored = from_dict(UpdateResult, old)
        assert restored == result
        assert to_dict(restored) == d
        assert "metrics" not in d
        assert "inferred_label" not in d["exemplars"][0]

    def test_none_updated_statement(self):
        result = UpdateResult(
            sample=make_sample(),
            predicted_label=DefectLabel.NON_DEFECT,
            confidence=0.9,
            checker_confirmed=False,
            checker_rationale="",
            checker_semantics="",
        )
        d = to_dict(result)
        assert d["exemplars"] == [] and d["updated_statement"] is None
        restored = from_dict(UpdateResult, d)
        assert restored == result
        assert restored.updated_statement is None


class TestCodec:
    def test_keys_follow_the_declared_field_order(self):
        result = UpdateResult(
            sample=make_sample(), predicted_label=DefectLabel.TEMPORAL,
            confidence=0.5, checker_confirmed=False, checker_rationale="",
            checker_semantics="",
            exemplars=(make_change("p", "c", 'log.info("a");',
                                   'log.info("b");'),))
        d = to_dict(result)
        for obj, record in [(result, d), (result.sample, d["sample"]),
                            (result.sample.context, d["sample"]["context"]),
                            (result.sample.target, d["sample"]["target"]),
                            (result.exemplars[0], d["exemplars"][0]),
                            (TrainConfig(), to_dict(TrainConfig()))]:
            assert list(record) == [f.name for f in dataclasses.fields(obj)]

    def test_values_become_json_types(self):
        stmt = statement_of('log.warn("took {} ms", elapsed);')
        d = to_dict(stmt)
        assert d["level"] == "WARN"
        assert d["placeholders"] == [
            {"kind": "BRACE", "offset": 5, "text": "{}"}]
        assert d["variables"] == ["elapsed"]
        assert d["location"] == {"path": "<text>", "start_line": 1,
                                 "end_line": 1}
        prov = to_dict(Provenance(ProvenanceKind.WELL_MAINTAINED))
        assert prov == {"kind": "WELL_MAINTAINED", "strategy": None,
                        "original_raw_text": None}
        assert dumps_line(prov).endswith('"original_raw_text": null}')

    def test_unknown_keys_are_ignored(self):
        loc = from_dict(SourceLocation, {"path": "A.java", "start_line": 1,
                                         "end_line": 2, "column": 7})
        assert loc == SourceLocation("A.java", 1, 2)

    def test_a_missing_key_takes_the_field_default(self):
        assert (from_dict(Placeholder, {"kind": "PERCENT", "offset": 3})
                == Placeholder(PlaceholderKind.PERCENT, 3, ""))
        assert from_dict(TrainConfig, {"epochs": 4}) == TrainConfig(epochs=4)

    def test_a_missing_key_without_a_default_names_class_and_field(self):
        with pytest.raises(ValueError,
                           match=r"^SourceLocation\.end_line is missing$"):
            from_dict(SourceLocation, {"path": "A.java", "start_line": 1})
        # a nested record's path, as a value of the wrong type has it
        statement = to_dict(statement_of('log.info("x");'))
        del statement["raw_text"]
        with pytest.raises(ValueError, match=(
                r"^TruthRecord\.statement: LoggingStatement\.raw_text "
                r"is missing$")):
            from_dict(TruthRecord, {"statement_id": "s", "label": "NON_DEFECT",
                                    "statement": statement})

    def test_int_float_and_bool_fields_take_only_their_json_types(self):
        # an int field takes a JSON integer only: no float, however whole,
        # no numeric string and no boolean
        for start_line, end_line, bad in ((4.7, 5, "start_line"),
                                          (4, "5", "end_line"),
                                          (4, 4.0, "end_line"),
                                          (True, 5, "start_line")):
            data = {"path": "A.java", "start_line": start_line,
                    "end_line": end_line}
            with pytest.raises(ValueError, match=re.escape(
                    f"SourceLocation.{bad} must be an integer, got "
                    f"{json.dumps(data[bad])}")):
                from_dict(SourceLocation, data)
        with pytest.raises(ValueError, match=re.escape(
                'TrainConfig.dropout must be a number, got "0.1"')):
            from_dict(TrainConfig, {"dropout": "0.1"})
        # a JSON integer reads into a float field, and 0/1 into a bool field
        d = to_dict(make_result())
        restored = from_dict(UpdateResult, {**d, "confidence": 1,
                                            "checker_confirmed": 0})
        assert type(restored.confidence) is float
        assert restored.checker_confirmed is False
        assert from_dict(TrainConfig, {"dropout": 0}).dropout == 0.0

    @pytest.mark.parametrize("field, value, message", [
        ("variables", "ab", "LoggingStatement.variables must be a list"),
        ("variables", ["a", 1], "LoggingStatement.variables: each item must "
                                "be a string, got 1"),
        ("raw_text", 7, "LoggingStatement.raw_text must be a string"),
        ("level", "LOUD", "LoggingStatement.level: 'LOUD' is not a valid"),
        ("location", None, "LoggingStatement.location must be an object"),
        ("parse_degraded", "no", "parse_degraded must be a boolean"),
    ])
    def test_a_value_of_the_wrong_type_names_class_and_field(
            self, field, value, message):
        d = {**to_dict(statement_of('log.info("x {}", a);')), field: value}
        with pytest.raises(ValueError, match=re.escape(message)):
            from_dict(LoggingStatement, d)

    def test_sets_and_string_keyed_maps_round_trip(self):
        config = ParserConfig(logger_receivers=frozenset({"log", "bus", "a"}),
                              level_methods={"say": LogLevel.INFO})
        d = to_dict(config)
        assert d["logger_receivers"] == ["a", "bus", "log"]  # sorted
        assert d["level_methods"] == {"say": "INFO"}
        assert from_dict(ParserConfig, json.loads(json.dumps(d))) == config
        for field, value, message in (
                ("logger_receivers", ["log", 1], "ParserConfig.logger_"
                 "receivers: each item must be a string, got 1"),
                ("level_methods", {"say": 3}, "ParserConfig.level_methods: "
                 "each item must be a string, got 3"),
                ("level_methods", ["say"], "ParserConfig.level_methods "
                 'must be an object, got ["say"]')):
            with pytest.raises(ValueError, match=re.escape(message)):
                from_dict(ParserConfig, {field: value})

    def test_a_wrong_type_in_a_nested_record_names_the_path(self):
        d = to_dict(make_sample())
        d["target"]["location"]["start_line"] = None
        with pytest.raises(ValueError) as info:
            from_dict(LabeledSample, d)
        assert str(info.value) == (
            "LabeledSample.target: LoggingStatement.location: "
            "SourceLocation.start_line must be an integer, got null")

    def test_a_record_that_is_not_an_object_is_rejected(self):
        with pytest.raises(ValueError, match="SourceLocation must be an "
                                             "object"):
            from_dict(SourceLocation, ["A.java", 1, 2])

    def test_the_field_plan_is_worked_out_once_per_class(self, monkeypatch):
        # Each class gets one encoder and one decoder, built on its first
        # use; nested records call their class's closures directly.
        model_module._codec.cache_clear()
        built = []
        hints = model_module.get_type_hints
        monkeypatch.setattr(model_module, "get_type_hints",
                            lambda cls: built.append(cls) or hints(cls))
        changes = [make_change("p", f"c{i}", 'log.info("a {}", x);',
                               'log.info("b {}", x);') for i in range(20)]
        records = [json.loads(json.dumps(to_dict(c))) for c in changes]
        assert [from_dict(LogCentricChange, r) for r in records] == changes
        assert sorted(cls.__name__ for cls in built) == [
            "LogCentricChange", "LoggingStatement", "MethodContext",
            "Placeholder", "SourceLocation"]
        # once built, a record costs one lookup, for its top-level class
        before = model_module._codec.cache_info()
        assert [from_dict(LogCentricChange, r) for r in records] == changes
        after = model_module._codec.cache_info()
        assert (after.hits - before.hits, after.misses) == (20, 5)

    def test_statement_to_dict_is_to_dict(self):
        stmt = statement_of('log.info("x");')
        assert statement_to_dict(stmt) == to_dict(stmt)


def make_result() -> UpdateResult:
    return UpdateResult(
        sample=make_sample(), predicted_label=DefectLabel.READABILITY,
        confidence=0.5, checker_confirmed=True, checker_rationale="typo",
        checker_semantics="eviction")


# Records as the previous format wrote them: every statement carries the
# derived arity_mismatch, results carry metrics and exemplars an
# inferred_label (both dropped earlier). Reading them must give the objects
# the code builds today; writing those back drops only the three keys.
OLD_METHOD = {
    "method_id": "3107186e56e72d7f", "project_id": "cache",
    "qualified_name": "Cache.evict",
    "source_text": "    void evict(String key, int size) {\n"
                   "        log.warn(\"evicted {} of {}\", key);\n    }",
    "statement_ids": ["18362b7b0b154d01"],
    "location": {"path": "Cache.java", "start_line": 2, "end_line": 4}}
OLD_STATEMENT = {
    "id": "18362b7b0b154d01", "level": "WARN",
    "static_text": "evicted {} of {}",
    "placeholders": [{"kind": "BRACE", "offset": 8, "text": "{}"},
                     {"kind": "BRACE", "offset": 14, "text": "{}"}],
    "variables": ["key"], "raw_text": "log.warn(\"evicted {} of {}\", key);",
    "location": {"path": "Cache.java", "start_line": 3, "end_line": 3},
    "method_id": "3107186e56e72d7f", "arity_mismatch": True,
    "parse_degraded": False}


def old_text_statement(id_, static, variables, raw):
    return {"id": id_, "level": "INFO", "static_text": static,
            "placeholders": [{"kind": "BRACE", "offset": 9, "text": "{}"}],
            "variables": variables, "raw_text": raw,
            "location": {"path": "<text>", "start_line": 1, "end_line": 1},
            "method_id": "", "arity_mismatch": False,
            "parse_degraded": False}


OLD_CHANGE = {
    "project_id": "cache", "commit_id": "c1",
    "before": old_text_statement("14312e828b9f986c", "strating {}", ["id"],
                                 "log.info(\"strating {}\", id);"),
    "after": old_text_statement("5b5d73380f7c1f63", "starting {}", ["id"],
                                "log.info(\"starting {}\", id);"),
    "context": {
        "method_id": "", "project_id": "cache",
        "qualified_name": "Holder.act",
        "source_text": "void act() {\n    log.info(\"starting {}\", id);\n}",
        "statement_ids": ["5b5d73380f7c1f63"],
        "location": {"path": "<text>", "start_line": 1, "end_line": 3}},
    "inferred_label": "TEMPORAL"}
OLD_UPDATED = {
    "id": "2913924b03c7f7fe", "level": "WARN",
    "static_text": "evicted {} of {}",
    "placeholders": [{"kind": "BRACE", "offset": 8, "text": "{}"},
                     {"kind": "BRACE", "offset": 14, "text": "{}"}],
    "variables": ["key", "size"],
    "raw_text": "log.warn(\"evicted {} of {}\", key, size);",
    "location": {"path": "<text>", "start_line": 1, "end_line": 1},
    "method_id": "", "arity_mismatch": False, "parse_degraded": False}
OLD_SAMPLE = {
    "context": OLD_METHOD, "target": OLD_STATEMENT, "label": "READABILITY",
    "provenance": {"kind": "MUTATED", "strategy": "TYPO",
                   "original_raw_text": "log.warn(\"evcited {} of {}\", key);"}}
OLD_RESULT = {
    "sample": {**OLD_SAMPLE, "label": "NON_DEFECT",
               "provenance": {"kind": "WELL_MAINTAINED", "strategy": None,
                              "original_raw_text": None}},
    "predicted_label": "READABILITY", "confidence": 0.5,
    "checker_confirmed": True, "checker_rationale": "typo",
    "checker_semantics": "eviction", "exemplars": [OLD_CHANGE],
    "updated_statement": OLD_UPDATED, "diagnostics": ["backend-calls:2"],
    "metrics": [{"metric_name": "bleu-1", "m_origin": 0.5, "m_updated": 0.9,
                 "ic": 0.8}]}
OLD_CONFIG = {"learning_rate": 0.003, "adam_epsilon": 1e-08, "dropout": 0.1,
              "epochs": 4, "alpha": 0.5, "max_tokens": 1024,
              "batch_size": 32, "seed": 0, "dim": 128, "vocab_size": 4096}
UNREAD_KEYS = ("arity_mismatch", "metrics", "inferred_label")


def without_unread_keys(value):
    if isinstance(value, dict):
        return {k: without_unread_keys(v) for k, v in value.items()
                if k not in UNREAD_KEYS}
    if isinstance(value, list):
        return [without_unread_keys(v) for v in value]
    return value


class TestPreviousFormat:
    def today(self):
        ctx, stmts = single_method(
            "class Cache {\n    void evict(String key, int size) {\n"
            '        log.warn("evicted {} of {}", key);\n    }\n}\n',
            path="Cache.java", project="cache")
        sample = LabeledSample(
            ctx, stmts[0], DefectLabel.READABILITY,
            Provenance(ProvenanceKind.MUTATED, "TYPO",
                       'log.warn("evcited {} of {}", key);'))
        change = make_change("cache", "c1", 'log.info("strating {}", id);',
                             'log.info("starting {}", id);')
        result = UpdateResult(
            sample=dataclasses.replace(
                sample, label=DefectLabel.NON_DEFECT,
                provenance=Provenance(ProvenanceKind.WELL_MAINTAINED)),
            predicted_label=DefectLabel.READABILITY, confidence=0.5,
            checker_confirmed=True, checker_rationale="typo",
            checker_semantics="eviction", exemplars=(change,),
            updated_statement=statement_of(
                'log.warn("evicted {} of {}", key, size);'),
            diagnostics=("backend-calls:2",))
        return ctx, stmts, sample, change, result

    def test_every_record_kind_loads_as_today(self):
        ctx, stmts, sample, change, result = self.today()
        lines = {kind: json.loads(dumps_line(record)) for kind, record in [
            ("extract", {"method": OLD_METHOD, "statements": [OLD_STATEMENT]}),
            ("detect", {"method": OLD_METHOD, "statement": OLD_STATEMENT,
                        "predicted_label": "TEMPORAL", "confidence": 0.75}),
            ("truth", {"statement_id": OLD_STATEMENT["id"],
                       "label": "TEMPORAL", "statement": OLD_STATEMENT}),
            ("sample", OLD_SAMPLE), ("change", OLD_CHANGE),
            ("result", OLD_RESULT)]}
        assert (from_dict(MethodRecord, lines["extract"])
                == MethodRecord(ctx, tuple(stmts)))
        assert from_dict(MethodContext, lines["detect"]["method"]) == ctx
        for kind in ("detect", "truth"):
            assert (from_dict(LoggingStatement, lines[kind]["statement"])
                    == stmts[0])
        assert stmts[0].arity_mismatch
        assert from_dict(LabeledSample, lines["sample"]) == sample
        assert from_dict(LogCentricChange, lines["change"]) == change
        assert from_dict(UpdateResult, lines["result"]) == result
        assert (from_dict(TrainConfig, OLD_CONFIG)
                == TrainConfig(learning_rate=3e-3, epochs=4))

    def test_writing_back_drops_only_the_unread_keys(self):
        ctx, stmts, sample, change, result = self.today()
        for obj, old in [(sample, OLD_SAMPLE), (change, OLD_CHANGE),
                         (result, OLD_RESULT),
                         (TrainConfig(learning_rate=3e-3, epochs=4),
                          OLD_CONFIG)]:
            assert dumps_line(to_dict(obj)) == dumps_line(
                without_unread_keys(old))
        assert dumps_line(to_dict(MethodRecord(ctx, tuple(stmts)))) == dumps_line(
            without_unread_keys({"method": OLD_METHOD,
                                 "statements": [OLD_STATEMENT]}))


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

    def test_statement_offset_is_minus_one_outside_the_method(self):
        sample = make_sample()
        ctx, loc = sample.context, sample.target.location
        assert statement_offset(ctx, sample.target) >= 0
        for line in (ctx.location.start_line - 1, ctx.location.end_line + 1):
            outside = dataclasses.replace(
                sample.target, location=SourceLocation(loc.path, line, line))
            assert statement_offset(ctx, outside) == -1

    def test_detects_a_context_without_the_target_at_its_line(self):
        sample = make_sample()
        loc = sample.target.location
        # line 4 of Cache.java is the method's closing brace
        shifted = dataclasses.replace(sample.target, location=SourceLocation(
            loc.path, loc.start_line + 1, loc.end_line + 1))
        problems = validate_sample(dataclasses.replace(sample, target=shifted))
        assert problems == [
            "context does not hold the target's raw text at its line"]
        # two equal statements: the one at the target's line is the target
        ctx, stmts = single_method(
            "class Pump {\n    void drain(int n) {\n"
            '        log.info("draining {}", n);\n'
            '        log.info("draining {}", n);\n    }\n}\n')
        for stmt in stmts:
            assert validate_sample(dataclasses.replace(
                sample, context=ctx, target=stmt)) == []
            edited = dataclasses.replace(ctx, source_text=ctx.source_text
                                         .replace(stmt.raw_text, "x();", 1))
            assert len(validate_sample(dataclasses.replace(
                sample, context=edited, target=stmt))) == (stmt is stmts[0])

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
        written = path.read_bytes()
        assert read_changes(str(path)) == changes
        # An older file with an inferred label, which nothing reads, still
        # loads, and writing it back drops the key.
        write_jsonl(str(path), [{**to_dict(c),
                                 "inferred_label": "TEMPORAL"}
                                for c in changes])
        assert read_changes(str(path)) == changes
        assert write_changes(str(path), read_changes(str(path))) == 1
        assert path.read_bytes() == written
        assert b"inferred_label" not in written


class TestMethodRecord:
    def test_round_trip(self):
        ctx, stmts = single_method(METHOD_SOURCE)
        record = MethodRecord(ctx, tuple(stmts))
        assert from_dict(MethodRecord,
                         json.loads(json.dumps(to_dict(record)))) == record


class TestOpenOutput:
    def write(self, path, text):
        with open_output(str(path)) as fh:
            fh.write(text)

    def test_a_shorter_rewrite_keeps_the_file_and_leaves_no_tail(
            self, tmp_path):
        path, link = tmp_path / "out.jsonl", tmp_path / "link.jsonl"
        self.write(path, "x" * 100_000 + "\n")
        os.chmod(path, 0o640)
        os.link(path, link)
        before = os.stat(path)
        self.write(path, "é\n")
        after = os.stat(path)
        assert path.read_text(encoding="utf-8") == "é\n"
        assert link.read_text(encoding="utf-8") == "é\n"
        assert (after.st_ino, after.st_mode, after.st_nlink) == (
            before.st_ino, before.st_mode, 2)
        assert sorted(os.listdir(tmp_path)) == ["link.jsonl", "out.jsonl"]

    @pytest.mark.parametrize("with_path", [False, True])
    def test_a_tmp_left_by_a_killed_run_is_taken_over(self, tmp_path,
                                                      with_path):
        path, tmp = tmp_path / "out.jsonl", tmp_path / "out.jsonl.tmp"
        tmp.write_text("half a row", encoding="utf-8")
        if with_path:
            path.write_text("an older output\n", encoding="utf-8")
        self.write(path, "new\n")
        assert path.read_text(encoding="utf-8") == "new\n"
        assert os.listdir(tmp_path) == ["out.jsonl"]

    @pytest.mark.parametrize("existing", [False, True])
    def test_an_exception_in_the_block_leaves_no_tmp(self, tmp_path,
                                                     existing):
        path = tmp_path / "out.jsonl"
        if existing:
            path.write_text("an older output\n", encoding="utf-8")
        with pytest.raises(RuntimeError):
            with open_output(str(path)) as fh:
                fh.write("part of a row")
                raise RuntimeError
        # a new path is opened as before, so it keeps what was written;
        # an existing one is never left holding a mix of old and new
        assert os.listdir(tmp_path) == ([] if existing else ["out.jsonl"])

    def test_a_link_is_written_through(self, tmp_path):
        target, link = tmp_path / "target.jsonl", tmp_path / "out.jsonl"
        target.write_text("an older output\n", encoding="utf-8")
        link.symlink_to(target.name)
        self.write(link, "new\n")
        assert link.is_symlink()
        assert target.read_text(encoding="utf-8") == "new\n"
        assert sorted(os.listdir(tmp_path)) == ["out.jsonl", "target.jsonl"]

    def test_a_fifo_is_written_through(self, tmp_path):
        fifo = tmp_path / "out.jsonl"
        os.mkfifo(fifo)
        read = []
        reader = threading.Thread(
            target=lambda: read.append(fifo.read_text(encoding="utf-8")))
        reader.start()
        self.write(fifo, "row\n")
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert read == ["row\n"]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert os.listdir(tmp_path) == ["out.jsonl"]

    @pytest.mark.parametrize("failing", ["replace", "open"])
    def test_a_file_that_cannot_be_set_aside_is_truncated_in_place(
            self, tmp_path, monkeypatch, failing):
        path = tmp_path / "out.jsonl"
        path.write_text("an older, longer output\n", encoding="utf-8")
        inode = os.stat(path).st_ino
        real = getattr(os, failing)
        calls = []

        def fail_once(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise PermissionError(13, "Permission denied")
            return real(*args, **kwargs)

        monkeypatch.setattr(model_module.os, failing, fail_once)
        self.write(path, "new\n")
        assert path.read_text(encoding="utf-8") == "new\n"
        assert os.stat(path).st_ino == inode
        assert os.listdir(tmp_path) == ["out.jsonl"]
