"""End-to-end tests of the command-line interface and its config handling."""
from __future__ import annotations

import json

import pytest

from conftest import (
    E2E_SRC_DIR,
    HISTORY_DIR,
    load_clean_samples,
    make_change,
    single_method,
)
from logfix import cli, retrieval
from logfix.backends import TOKEN_ENV_VAR
from logfix.cli import main
from logfix.detector import TrainConfig, init_head, init_model, save_checkpoint
from logfix.model import (
    DefectLabel,
    LABEL_INDEX,
    context_to_dict,
    method_record_to_dict,
    read_jsonl,
    read_samples,
    statement_to_dict,
    write_changes,
    write_jsonl,
    write_samples,
)
from logfix.synthesis import synthesize_corpus
from logfix.tokenization import build_vocabulary

SMALL_TRAIN_SECTION = {
    "learning_rate": 3e-3,
    "epochs": 2,
    "dim": 16,
    "vocab_size": 256,
    "batch_size": 8,
}


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Shared workspace: corpus, config, trained and rigged checkpoints,
    extracted methods, and mined changes — built through the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "clean": str(root / "clean.jsonl"),
        "corpus": str(root / "corpus.jsonl"),
        "config": str(root / "config.json"),
        "model": str(root / "model.json"),
        "rigged": str(root / "rigged.json"),
        "methods": str(root / "methods.jsonl"),
        "detections": str(root / "detections.jsonl"),
        "lcc": str(root / "changes.jsonl"),
    }
    clean = load_clean_samples()[:15]
    write_samples(paths["clean"], clean)
    write_samples(paths["corpus"], clean + synthesize_corpus(clean, 5, seed=1))
    with open(paths["config"], "w", encoding="utf-8") as fh:
        json.dump({"train": SMALL_TRAIN_SECTION}, fh)

    assert main(["train", "--corpus", paths["corpus"],
                 "--model", paths["model"],
                 "--config", paths["config"]]) == 0
    assert main(["extract", "--root", str(E2E_SRC_DIR),
                 "--project", "e2e", "--out", paths["methods"]]) == 0
    assert main(["mine", "--repo", str(HISTORY_DIR),
                 "--project", "e2e", "--out", paths["lcc"]]) == 0
    assert main(["detect", "--in", paths["methods"],
                 "--model", paths["model"],
                 "--out", paths["detections"]]) == 0

    # A checkpoint whose head bias forces one label, whatever the input:
    # lets the repair commands run on statements that are defective by fiat.
    vocab = build_vocabulary([s.target.raw_text for s in clean], max_size=64)
    model = init_model(vocab, 16)
    head = init_head(16)
    head.bias[LABEL_INDEX[DefectLabel.STATEMENT_CODE]] = 5.0
    save_checkpoint(paths["rigged"], model, head,
                    TrainConfig(dim=16, vocab_size=64))
    return paths


class TestUsageErrors:
    def test_no_arguments(self):
        assert main([]) == 1

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flags(self):
        assert main(["extract"]) == 1
        assert main(["train", "--corpus", "x.jsonl"]) == 1

    def test_bad_choice_value(self, ws):
        assert main(["synthesize", "--in", ws["clean"], "--out", "o.jsonl",
                     "--per-type", "1", "--llm", "bogus"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["extract", "--help"]) == 0
        capsys.readouterr()


class TestConfigFile:
    def run_with_config(self, tmp_path, payload) -> int:
        path = tmp_path / "config.json"
        if isinstance(payload, str):
            path.write_text(payload, encoding="utf-8")
        else:
            path.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "out.jsonl"
        return main(["extract", "--root", str(E2E_SRC_DIR),
                     "--out", str(out), "--config", str(path)])

    def test_empty_config_is_fine(self, tmp_path):
        assert self.run_with_config(tmp_path, {}) == 0

    def test_unknown_top_level_key(self, tmp_path):
        assert self.run_with_config(tmp_path, {"oops": {}}) == 2

    def test_unknown_section_key(self, tmp_path):
        assert self.run_with_config(tmp_path, {"train": {"nope": 1}}) == 2
        assert self.run_with_config(tmp_path, {"parser": {"nope": 1}}) == 2

    def test_invalid_section_value(self, tmp_path):
        assert self.run_with_config(tmp_path, {"train": {"epochs": 0}}) == 2

    def test_malformed_json(self, tmp_path):
        assert self.run_with_config(tmp_path, "not json {") == 2

    def test_non_object_json(self, tmp_path):
        assert self.run_with_config(tmp_path, "[1, 2]") == 2

    def test_missing_config_file(self, tmp_path):
        out = tmp_path / "out.jsonl"
        assert main(["extract", "--root", str(E2E_SRC_DIR),
                     "--out", str(out),
                     "--config", str(tmp_path / "absent.json")]) == 2

    def test_custom_parser_section(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        (src / "Custom.java").write_text(
            "class Custom {\n"
            "    void go(int id) {\n"
            '        mylog.say("handling request {}", id);\n'
            "    }\n"
            "}\n",
            encoding="utf-8",
        )
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "parser": {
                "logger_receivers": ["mylog"],
                "level_methods": {"say": "INFO"},
            }
        }), encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert main(["extract", "--root", str(src), "--out", str(out),
                     "--config", str(config)]) == 0
        records = list(read_jsonl(str(out)))
        assert len(records) == 1
        assert records[0]["statements"][0]["level"] == "INFO"


class TestExtract:
    def test_extracts_the_sample_tree(self, ws):
        records = list(read_jsonl(ws["methods"]))
        assert len(records) == 20
        assert sum(len(r["statements"]) for r in records) == 20
        assert all(r["method"]["project_id"] == "e2e" for r in records)

    def test_bad_root(self, tmp_path):
        assert main(["extract", "--root", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "o.jsonl")]) == 2

    def test_no_matching_files(self, tmp_path):
        out = tmp_path / "o.jsonl"
        assert main(["extract", "--root", str(E2E_SRC_DIR),
                     "--glob", "*.scala", "--out", str(out)]) == 0
        assert list(read_jsonl(str(out))) == []


class TestMine:
    def test_mines_the_bundled_history(self, ws):
        records = list(read_jsonl(ws["lcc"]))
        assert len(records) == 2
        assert {r["commit_id"] for r in records} == {"typofix", "tensefix"}
        assert all(r["project_id"] == "e2e" for r in records)

    def test_since_is_ignored_for_snapshots(self, tmp_path, capsys):
        out = tmp_path / "o.jsonl"
        assert main(["mine", "--repo", str(HISTORY_DIR),
                     "--since", "2024-01-01", "--out", str(out)]) == 0
        assert "--since ignored" in capsys.readouterr().err

    def test_bad_repo(self, tmp_path):
        assert main(["mine", "--repo", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "o.jsonl")]) == 2


class TestSynthesize:
    def test_writes_clean_plus_mutants(self, ws, tmp_path):
        out = tmp_path / "corpus.jsonl"
        assert main(["synthesize", "--in", ws["clean"], "--out", str(out),
                     "--per-type", "2", "--seed", "7"]) == 0
        samples = read_samples(str(out))
        assert len(samples) == 15 + 8
        labels = [s.label for s in samples]
        assert labels[:15] == [DefectLabel.NON_DEFECT] * 15
        for label in (DefectLabel.STATEMENT_CODE, DefectLabel.STATIC_DYNAMIC,
                      DefectLabel.TEMPORAL, DefectLabel.READABILITY):
            assert labels.count(label) == 2

    def test_seeded_runs_are_byte_identical(self, ws, tmp_path):
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        for out in (out_a, out_b):
            assert main(["synthesize", "--in", ws["clean"],
                         "--out", str(out), "--per-type", "2",
                         "--seed", "9"]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_mock_llm_backend_is_accepted(self, ws, tmp_path):
        out = tmp_path / "c.jsonl"
        assert main(["synthesize", "--in", ws["clean"], "--out", str(out),
                     "--per-type", "1", "--llm", "mock"]) == 0
        assert len(read_samples(str(out))) == 15 + 4

    def test_empty_input(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        assert main(["synthesize", "--in", str(empty),
                     "--out", str(tmp_path / "o.jsonl"),
                     "--per-type", "1"]) == 2


class TestTrainAndDetect:
    def test_detection_record_shape(self, ws):
        records = list(read_jsonl(ws["detections"]))
        assert len(records) == 20
        label_values = {label.value for label in DefectLabel}
        for record in records:
            assert set(record) == {
                "method", "statement", "predicted_label", "confidence",
            }
            assert record["predicted_label"] in label_values
            assert 0.0 <= record["confidence"] <= 1.0

    def test_train_rejects_thin_corpus(self, ws, tmp_path):
        # Two samples per defect class cannot be split three ways.
        thin = tmp_path / "thin.jsonl"
        clean = load_clean_samples()[:15]
        write_samples(str(thin), clean + synthesize_corpus(clean, 2, seed=0))
        assert main(["train", "--corpus", str(thin),
                     "--model", str(tmp_path / "m.json"),
                     "--config", ws["config"]]) == 2

    def test_detect_rejects_bad_checkpoint(self, ws, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{\"format\": \"wrong\"}", encoding="utf-8")
        assert main(["detect", "--in", ws["methods"],
                     "--model", str(bogus),
                     "--out", str(tmp_path / "o.jsonl")]) == 2


class TestFix:
    def test_mock_backend_updates_forced_defects(self, ws, tmp_path):
        out = tmp_path / "results.jsonl"
        assert main(["fix", "--in", ws["methods"], "--model", ws["rigged"],
                     "--lcc", ws["lcc"], "--out", str(out)]) == 0
        rows = list(read_jsonl(str(out)))
        assert len(rows) == 20
        for row in rows:
            assert row["predicted_label"] == "STATEMENT_CODE"
            assert row["checker_confirmed"] is True
            assert row["updated_statement"] is not None
            assert row["diagnostics"][-1] == "backend-calls:2"

    def test_accepts_detection_records_too(self, ws, tmp_path):
        out = tmp_path / "results.jsonl"
        assert main(["fix", "--in", ws["detections"],
                     "--model", ws["rigged"], "--lcc", ws["lcc"],
                     "--out", str(out)]) == 0
        assert len(list(read_jsonl(str(out)))) == 20

    def test_exemplar_budget_flag(self, ws, tmp_path):
        out = tmp_path / "results.jsonl"
        assert main(["fix", "--in", ws["methods"], "--model", ws["rigged"],
                     "--lcc", ws["lcc"], "--exemplars", "1",
                     "--out", str(out)]) == 0
        rows = list(read_jsonl(str(out)))
        assert all(len(row["exemplars"]) == 1 for row in rows)

    def test_http_backend_needs_endpoint_config(self, ws, tmp_path):
        assert main(["fix", "--in", ws["methods"], "--model", ws["rigged"],
                     "--backend", "http",
                     "--out", str(tmp_path / "o.jsonl")]) == 2

    def test_http_backend_without_token_exits_backend_error(
            self, ws, tmp_path, monkeypatch):
        monkeypatch.delenv(TOKEN_ENV_VAR, raising=False)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"backend": {
            "kind": "http",
            "endpoint": "https://example.invalid/v1",
            "model": "m",
        }}), encoding="utf-8")
        ctx, stmts = single_method(
            "class One {\n    void go() {\n"
            '        log.info("only statement");\n    }\n}\n'
        )
        one = tmp_path / "one.jsonl"
        write_jsonl(str(one), [method_record_to_dict(ctx, stmts)])
        out = tmp_path / "results.jsonl"
        assert main(["fix", "--in", str(one), "--model", ws["rigged"],
                     "--config", str(config), "--out", str(out)]) == 3
        rows = list(read_jsonl(str(out)))
        assert len(rows) == 1
        assert any(d.startswith("backend-error:")
                   for d in rows[0]["diagnostics"])

    def test_scripted_transcript_config(self, ws, tmp_path):
        transcript = tmp_path / "transcript.json"
        transcript.write_text(json.dumps([{
            "pattern": "VERDICT",
            "reply": "VERDICT: NO\nRATIONALE: scripted rejection\n",
        }]), encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"backend": {
            "kind": "mock", "transcript": str(transcript),
        }}), encoding="utf-8")
        out = tmp_path / "results.jsonl"
        assert main(["fix", "--in", ws["methods"], "--model", ws["rigged"],
                     "--config", str(config), "--out", str(out)]) == 0
        rows = list(read_jsonl(str(out)))
        assert all(row["checker_confirmed"] is False for row in rows)
        assert all(row["updated_statement"] is None for row in rows)

    def test_detection_records_never_load_the_checkpoint(
            self, ws, tmp_path, monkeypatch):
        def refuse(path):
            raise AssertionError(f"fix loaded the checkpoint {path}")

        monkeypatch.setattr(cli, "load_checkpoint", refuse)
        out = tmp_path / "results.jsonl"
        # The rigged checkpoint would label every statement STATEMENT_CODE;
        # the detection records' own labels and confidences are used.
        assert main(["fix", "--in", ws["detections"], "--model", ws["rigged"],
                     "--lcc", ws["lcc"], "--out", str(out)]) == 0
        detections = list(read_jsonl(ws["detections"]))
        rows = list(read_jsonl(str(out)))
        assert ([(r["predicted_label"], r["confidence"]) for r in rows]
                == [(d["predicted_label"], d["confidence"])
                    for d in detections])

    def test_extract_records_need_a_model(self, ws, tmp_path):
        assert main(["fix", "--in", ws["methods"], "--lcc", ws["lcc"],
                     "--out", str(tmp_path / "o.jsonl")]) == 2

    @pytest.mark.parametrize("model", ["model", "rigged"])
    def test_results_do_not_depend_on_record_kind_or_jobs(
            self, ws, tmp_path, model):
        detections = tmp_path / "detections.jsonl"
        assert main(["detect", "--in", ws["methods"], "--model", ws[model],
                     "--out", str(detections)]) == 0
        outputs = []
        for records in (str(detections), ws["methods"]):
            for jobs in ("1", "2"):
                out = tmp_path / f"results-{len(outputs)}.jsonl"
                assert main(["fix", "--in", records, "--model", ws[model],
                             "--lcc", ws["lcc"], "--jobs", jobs,
                             "--out", str(out)]) == 0
                outputs.append(out.read_bytes())
        assert len(outputs[0].splitlines()) == 20
        assert all(output == outputs[0] for output in outputs[1:])

    def test_each_retrieval_scope_is_indexed_once_per_run(
            self, ws, tmp_path, monkeypatch):
        detections = tmp_path / "detections.jsonl"
        assert main(["detect", "--in", ws["methods"], "--model", ws["rigged"],
                     "--out", str(detections)]) == 0
        built = []
        real = retrieval.build_index

        def counting(lccs, *args, **kwargs):
            built.append(len(lccs))
            return real(lccs, *args, **kwargs)

        monkeypatch.setattr(retrieval, "build_index", counting)
        out = tmp_path / "results.jsonl"
        assert main(["fix", "--in", str(detections), "--lcc", ws["lcc"],
                     "--jobs", "2", "--out", str(out)]) == 0
        rows = list(read_jsonl(str(out)))
        assert sum(r["predicted_label"] != "NON_DEFECT" for r in rows) == 20
        # the mined changes all come from one project: one index over all
        # projects and one over "e2e"
        changes = len(list(read_jsonl(ws["lcc"])))
        assert built == [changes, changes]

    def test_retrieval_parameters_out_of_range_are_data_errors(
            self, ws, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"retrieval": {"b": 1.5}}),
                          encoding="utf-8")
        assert main(["fix", "--in", ws["detections"], "--lcc", ws["lcc"],
                     "--config", str(config),
                     "--out", str(tmp_path / "o.jsonl")]) == 2

    def test_retrieval_b_from_config_reaches_the_ranking(self, ws, tmp_path):
        # With b = 0 document length is ignored and the long change, which
        # holds "worker" twice, ranks first; the default b = 0.75 favours
        # the short one.
        changes = tmp_path / "changes.jsonl"
        write_changes(str(changes), [
            make_change("e2e", "c-short", 'log.info("worker");',
                        'log.info("worker up");'),
            make_change("e2e", "c-long",
                        'log.info("worker drained every pending job before '
                        'the worker shutdown");',
                        'log.info("worker shut down");'),
        ])
        ctx, stmts = single_method(
            "class Pool {\n    void stop() {\n"
            '        log.info("worker worker");\n    }\n}\n',
            project="e2e")
        detections = tmp_path / "detections.jsonl"
        write_jsonl(str(detections), [{
            "method": context_to_dict(ctx),
            "statement": statement_to_dict(stmts[0]),
            "predicted_label": "STATEMENT_CODE",
            "confidence": 0.9,
        }])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"retrieval": {"b": 0.0}}),
                          encoding="utf-8")
        firsts = {}
        for name, extra in (("default", []), ("b=0", ["--config", str(config)])):
            out = tmp_path / f"{name}.jsonl"
            assert main(["fix", "--in", str(detections), "--lcc",
                         str(changes), "--out", str(out), *extra]) == 0
            [row] = read_jsonl(str(out))
            firsts[name] = row["exemplars"][0]["commit_id"]
        assert firsts == {"default": "c-short", "b=0": "c-long"}


class TestEvaluate:
    @staticmethod
    def build_truth(ws, path, label="STATEMENT_CODE", drop_one=False):
        rows = []
        for record in read_jsonl(ws["methods"]):
            for stmt in record["statements"]:
                rows.append({
                    "statement_id": stmt["id"],
                    "label": label,
                    "statement": stmt,
                })
        if drop_one:
            rows = rows[:-1]
        write_jsonl(path, rows)

    def test_report_shape(self, ws, tmp_path):
        results = tmp_path / "results.jsonl"
        assert main(["fix", "--in", ws["methods"], "--model", ws["rigged"],
                     "--lcc", ws["lcc"], "--out", str(results)]) == 0
        truth = tmp_path / "truth.jsonl"
        self.build_truth(ws, str(truth))
        report_path = tmp_path / "report.json"
        assert main(["evaluate", "--results", str(results),
                     "--truth", str(truth), "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert set(report) == {"detection", "update"}
        detection = report["detection"]
        assert detection["samples"] == 20
        assert set(detection["per_class"]) == {
            label.value for label in DefectLabel
        }
        # Predictions and truth both say STATEMENT_CODE everywhere.
        assert detection["per_class"]["STATEMENT_CODE"]["f1"] == 1.0
        assert detection["f1_macro"] == pytest.approx(0.2)
        update = report["update"]
        assert set(update) == {
            "bleu-1", "bleu-2", "bleu-4", "rouge-1", "rouge-2", "rouge-l",
            "var-precision", "var-recall", "var-f1",
        }
        for row in update.values():
            assert row["samples"] == 20.0
            # The mock echoes the original, which equals the truth here.
            assert row["mean_updated"] == pytest.approx(1.0)

    def test_missing_truth_entry(self, ws, tmp_path):
        results = tmp_path / "results.jsonl"
        assert main(["fix", "--in", ws["methods"], "--model", ws["rigged"],
                     "--lcc", ws["lcc"], "--out", str(results)]) == 0
        truth = tmp_path / "truth.jsonl"
        self.build_truth(ws, str(truth), drop_one=True)
        assert main(["evaluate", "--results", str(results),
                     "--truth", str(truth),
                     "--out", str(tmp_path / "r.json")]) == 2

    def test_empty_results(self, ws, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        truth = tmp_path / "truth.jsonl"
        self.build_truth(ws, str(truth))
        assert main(["evaluate", "--results", str(empty),
                     "--truth", str(truth),
                     "--out", str(tmp_path / "r.json")]) == 2
