"""End-to-end tests of the command-line interface and its config handling."""
from __future__ import annotations

import copy
import json
import logging
import math
import os
import re
import subprocess
import sys
import tracemalloc

import pytest

from conftest import (
    CLEAN_DIR,
    CLEAN_PROJECT,
    E2E_SRC_DIR,
    E2E_TRUTH,
    HISTORY_DIR,
    load_clean_samples,
    make_change,
    single_method,
)
from logfix import cli, detector, retrieval
from logfix.backends import TOKEN_ENV_VAR
from logfix.cli import main
from logfix.detector import (
    TrainConfig,
    init_head,
    init_model,
    load_checkpoint,
    predict,
    predict_many,
    save_checkpoint,
)
from logfix.model import (
    DefectLabel,
    LABEL_INDEX,
    MethodRecord,
    from_dict,
    read_jsonl,
    read_samples,
    to_dict,
    write_changes,
    write_jsonl,
    write_samples,
)
from logfix.synthesis import synthesize_corpus
from logfix.tokenization import fit_vocabulary

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
    vocab, _ = fit_vocabulary([s.target.raw_text for s in clean],
                              max_size=64)
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

    def test_llm_is_a_switch_that_takes_no_value(self, ws, capsys):
        assert main(["synthesize", "--in", ws["clean"], "--out", "o.jsonl",
                     "--per-type", "1", "--llm", "mock"]) == 1
        assert "unrecognized arguments: mock" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["extract", "--help"]) == 0
        capsys.readouterr()

    REQUIRED = {
        "extract": ["--root", "r", "--out", "o"],
        "mine": ["--repo", "r", "--out", "o"],
        "synthesize": ["--in", "i", "--out", "o", "--per-type", "1"],
        "train": ["--corpus", "c", "--model", "m"],
        "detect": ["--in", "i", "--model", "m", "--out", "o"],
        "fix": ["--in", "i", "--out", "o"],
        "evaluate": ["--results", "r", "--truth", "t", "--out", "o"],
    }

    @pytest.mark.parametrize("command, flag", [
        *((c, "--seed") for c in ("extract", "mine", "detect", "fix",
                                  "evaluate")),
        *((c, "--jobs") for c in ("extract", "mine", "synthesize", "train",
                                  "detect", "evaluate")),
    ])
    def test_flags_are_rejected_where_unused(self, command, flag, tmp_path,
                                             monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv = [command, *self.REQUIRED[command]]
        # Complete otherwise: without the flag the command runs and fails
        # on its missing input files, a data error.
        assert main(argv) == 2
        capsys.readouterr()
        assert main([*argv, flag, "1"]) == 1
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    # each restated a setting that has one source: the source-file rule
    # (mining.SOURCE_SUFFIXES), backend.kind and retrieval.k
    @pytest.mark.parametrize("command, flag, value", [
        ("extract", "--glob", "*.java"),
        ("fix", "--backend", "mock"),
        ("fix", "--exemplars", "1"),
    ])
    def test_removed_flags_are_usage_errors(self, command, flag, value,
                                            tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([command, *self.REQUIRED[command], flag, value]) == 1
        assert (f"unrecognized arguments: {flag} {value}"
                in capsys.readouterr().err)


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

    def test_invalid_section_value(self, tmp_path, capsys):
        assert self.run_with_config(tmp_path, {"train": {"epochs": 0}}) == 2
        # a value of the wrong JSON type is a data error naming its section
        for section, value in (("parser", {"logger_receivers": 5}),
                               ("parser", {"level_methods": ["info"]}),
                               ("retrieval", {"k": "3"})):
            capsys.readouterr()
            assert self.run_with_config(tmp_path, {section: value}) == 2
            assert f"config section {section!r}" in capsys.readouterr().err
        # an integer is a valid number
        assert self.run_with_config(tmp_path, {"retrieval": {"k1": 1}}) == 0

    @pytest.mark.parametrize("backend, message", [
        ({"kind": "bogus"},
         "unknown backend.kind 'bogus' (expected mock or http)"),
        ({"kind": "http", "model": "m"},
         "http backend needs backend.endpoint and backend.model in the "
         "config file"),
        ({"kind": "http", "endpoint": "http://127.0.0.1:9/v1", "model": "m",
          "timeout_seconds": 0},
         "backend.timeout_seconds must be a finite number above 0, not 0.0"),
    ], ids=["kind", "endpoint", "timeout"])
    def test_backend_section_is_checked_when_the_config_loads(
            self, tmp_path, capsys, backend, message):
        # extract makes no backend, yet rejects a backend it could not make
        assert self.run_with_config(tmp_path, {"backend": backend}) == 2
        assert capsys.readouterr().err == (
            f"logfix: config section 'backend': {message}\n")
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize("retrieval, message", [
        ({"k": 0}, "retrieval.k must be >= 1, got 0"),
        ({"k1": -1}, "BM25 k1 must be finite and >= 0, got -1.0"),
        ({"b": 2}, "BM25 b must lie in [0, 1], got 2.0"),
    ], ids=["k", "k1", "b"])
    def test_retrieval_section_is_checked_when_the_config_loads(
            self, tmp_path, capsys, retrieval, message):
        # extract ranks nothing, yet rejects a ranking it could not run
        assert self.run_with_config(tmp_path, {"retrieval": retrieval}) == 2
        assert capsys.readouterr().err == (
            f"logfix: config section 'retrieval': {message}\n")
        assert not (tmp_path / "out.jsonl").exists()

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
        # only a name ending in a mining.SOURCE_SUFFIXES entry is read
        root = tmp_path / "tree"
        root.mkdir()
        for name in ("A.scala", "B.java.orig", "java"):
            (root / name).write_text(
                'class A { void f() { log.info("x"); } }\n', encoding="utf-8")
        out = tmp_path / "o.jsonl"
        assert main(["extract", "--root", str(root), "--out", str(out)]) == 0
        assert list(read_jsonl(str(out))) == []


    SERVICE = ('class S%d {\n    void a() {\n'
               '        log.info("%s");\n    }\n}\n')

    def test_non_utf8_file_is_skipped_with_a_note(self, tmp_path, capsys):
        root = tmp_path / "tree"
        root.mkdir()
        (root / "A.java").write_bytes(
            (self.SERVICE % (1, "caf\u00e9 opened")).encode("utf-8"))
        (root / "B.java").write_bytes(
            (self.SERVICE % (2, "caf\u00e9 closed")).encode("latin-1"))
        (root / "C.java").write_bytes((self.SERVICE % (3, "started"))
                                      .replace("\n", "\r\n").encode("utf-8"))
        out = tmp_path / "o.jsonl"
        assert main(["extract", "--root", str(root),
                     "--out", str(out)]) == 0
        records = list(read_jsonl(str(out)))
        assert [r["method"]["location"]["path"] for r in records] == [
            "A.java", "C.java"]
        assert [r["statements"][0]["raw_text"] for r in records] == [
            'log.info("caf\u00e9 opened");', 'log.info("started");']
        # newlines read as text mode reads them
        assert "\r" not in records[1]["method"]["source_text"]
        assert ("extract: B.java: not UTF-8 text, file skipped"
                in capsys.readouterr().err)

    def test_unreadable_file_is_skipped_with_a_note(self, tmp_path, capsys):
        root = tmp_path / "tree"
        root.mkdir()
        (root / "A.java").write_text(self.SERVICE % (1, "opened"),
                                     encoding="utf-8")
        (root / "Broken.java").symlink_to(tmp_path / "gone.java")
        out = tmp_path / "o.jsonl"
        assert main(["extract", "--root", str(root),
                     "--out", str(out)]) == 0
        assert [r["method"]["location"]["path"]
                for r in read_jsonl(str(out))] == ["A.java"]
        err = capsys.readouterr().err
        assert ("extract: Broken.java: cannot be read (No such file or "
                "directory), file skipped" in err)
        # the summary counts the files that were read
        assert f"extract: 1 files -> 1 methods, 1 statements -> {out}" in err

    @pytest.mark.parametrize("cap", [0, -3])
    def test_line_cap_below_one_is_rejected(self, tmp_path, capsys, cap):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"parser": {"max_method_lines": cap}}),
                          encoding="utf-8")
        out = tmp_path / "o.jsonl"
        assert main(["extract", "--root", str(E2E_SRC_DIR), "--out", str(out),
                     "--config", str(config)]) == 2
        assert ("logfix: config section 'parser': max_method_lines must be "
                f">= 1, got {cap}") in capsys.readouterr().err
        assert not out.exists()

    def test_file_with_a_non_utf8_name_is_skipped(self, tmp_path, capsys):
        root = tmp_path / "tree"
        root.mkdir()
        (root / "A.java").write_text(self.SERVICE % (1, "opened"),
                                     encoding="utf-8")
        (root / os.fsdecode(b"D\xe9.java")).write_text(
            self.SERVICE % (2, "closed"), encoding="utf-8")
        out = tmp_path / "o.jsonl"
        assert main(["extract", "--root", str(root),
                     "--out", str(out)]) == 0
        assert [r["method"]["location"]["path"]
                for r in read_jsonl(str(out))] == ["A.java"]
        assert ("extract: D\\xe9.java: not UTF-8 text, file skipped"
                in capsys.readouterr().err)


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

    def test_a_snapshot_adding_a_binary_asset_counts_without_a_warning(
            self, tmp_path, capsys, caplog):
        # a non-source commit is decided before any file is read, as from git
        service = 'class S {\n    void a() {\n        log.info("x");\n    }\n}\n'
        for dirname in ("1_a", "2_b"):
            (tmp_path / dirname).mkdir()
            (tmp_path / dirname / "S.java").write_text(service,
                                                       encoding="utf-8")
        (tmp_path / "2_b" / "logo.png").write_bytes(b"\x89PNG\r\n\x1a\n\xff")
        out = tmp_path / "o.jsonl"
        with caplog.at_level(logging.WARNING, logger="logfix.mining"):
            assert main(["mine", "--repo", str(tmp_path),
                         "--out", str(out)]) == 0
        assert caplog.records == []
        assert "mine: 1 commits -> 0 log-centric changes" in (
            capsys.readouterr().err)

    def test_a_log_edit_below_a_form_feed_is_mined(self, tmp_path, capsys):
        # the parser and the line diff both end lines at \n only
        method = ("class Runner {\n    void run(int n) {\n"
                  "        // next: the run\f\n        int k = n;\n"
                  '        log.info("%s run {}", n);\n    }\n}\n')
        for dirname, message in (("1_base", "starting"), ("2_fix", "started")):
            (tmp_path / dirname).mkdir()
            (tmp_path / dirname / "Runner.java").write_bytes(
                (method % message).encode("utf-8"))
        out = tmp_path / "o.jsonl"
        assert main(["mine", "--repo", str(tmp_path), "--out", str(out)]) == 0
        assert "mine: 1 commits -> 1 log-centric changes" in (
            capsys.readouterr().err)
        [record] = read_jsonl(str(out))
        assert record["after"]["raw_text"] == 'log.info("started run {}", n);'

    def test_a_snapshot_seq_that_is_not_an_integer_is_a_data_error(
            self, tmp_path, capsys):
        for dirname in ("1_base", "2_next", "v3_tagged"):
            (tmp_path / dirname).mkdir()
        assert main(["mine", "--repo", str(tmp_path),
                     "--out", str(tmp_path / "o.jsonl")]) == 2
        assert "'v3_tagged'" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["subdirectory", "bare"])
    def test_a_directory_with_no_history_is_a_data_error(
            self, tmp_path, capsys, where):
        # neither a git work tree's root nor a snapshot directory: a
        # subdirectory of a work tree, or a bare repository
        repo = tmp_path / "repo"
        git = ["git", "-C", str(repo), "-c", "user.name=t",
               "-c", "user.email=t@example.com", "-c", "commit.gpgsign=false"]
        repo.mkdir()
        if where == "bare":
            subprocess.run([*git, "init", "-q", "--bare"], check=True)
        else:
            subprocess.run([*git, "init", "-q"], check=True)
            (repo / "src").mkdir()
            (repo / "src" / "S.java").write_text(
                'class S {\n    void a() {\n        log.info("x");\n'
                "    }\n}\n", encoding="utf-8")
            subprocess.run([*git, "add", "-A"], check=True)
            subprocess.run([*git, "commit", "-q", "-m", "base"], check=True)
            repo = repo / "src"
        out = tmp_path / "o.jsonl"
        assert main(["mine", "--repo", str(repo), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{str(repo)!r} holds no .git and no <seq>_<id>" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_since_on_a_directory_with_no_history_is_only_a_data_error(
            self, tmp_path, capsys):
        # no note about snapshots that are not there
        out = tmp_path / "o.jsonl"
        assert main(["mine", "--repo", str(tmp_path), "--since", "2024-01-01",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"logfix: {str(tmp_path)!r} holds no .git and no <seq>_<id> "
            "snapshot directory\n")
        assert not out.exists()

    def test_one_snapshot_mines_no_commits(self, tmp_path, capsys):
        (tmp_path / "1_base").mkdir()
        out = tmp_path / "o.jsonl"
        assert main(["mine", "--repo", str(tmp_path), "--out", str(out)]) == 0
        assert "mine: 0 commits -> 0 log-centric changes" in (
            capsys.readouterr().err)
        assert list(read_jsonl(str(out))) == []

    def test_bad_repo(self, tmp_path):
        assert main(["mine", "--repo", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "o.jsonl")]) == 2

    def test_a_history_git_cannot_read_is_a_data_error(self, tmp_path,
                                                       capsys):
        # git runs only once mining asks for the first commit; its failure
        # there is still exit 2, not a traceback, and says what git said
        repo = tmp_path / "repo"
        repo.mkdir()
        (repo / ".git").write_text(f"gitdir: {tmp_path / 'gone'}\n",
                                   encoding="utf-8")
        out = tmp_path / "o.jsonl"
        assert main(["mine", "--repo", str(repo), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "cannot read history from" in err
        assert "not a git repository" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_a_checkout_whose_git_entry_is_a_file_is_mined_with_git(
            self, tmp_path):
        # as in a linked worktree or a submodule checkout
        repo = tmp_path / "repo"
        repo.mkdir()
        git = ["git", "-C", str(repo), "-c", "user.name=t",
               "-c", "user.email=t@example.com", "-c", "commit.gpgsign=false"]
        subprocess.run([*git, "init", "-q"], check=True)
        source = ("class S {\n    void a() {\n"
                  "        log.info(\"%s\");\n    }\n}\n")
        for message in ("starting", "started"):
            (repo / "S.java").write_text(source % message, encoding="utf-8")
            subprocess.run([*git, "add", "-A"], check=True)
            subprocess.run([*git, "commit", "-q", "-m", message], check=True)
        (repo / ".git").rename(tmp_path / "gitdir")
        (repo / ".git").write_text(f"gitdir: {tmp_path / 'gitdir'}\n",
                                   encoding="utf-8")
        out = tmp_path / "o.jsonl"
        assert main(["mine", "--repo", str(repo), "--out", str(out)]) == 0
        [change] = read_jsonl(str(out))
        assert change["after"]["raw_text"] == 'log.info("started");'

    def test_note_counts_the_commits(self, tmp_path, capsys):
        out = tmp_path / "o.jsonl"
        assert main(["mine", "--repo", str(HISTORY_DIR), "--out",
                     str(out)]) == 0
        assert "mine: 5 commits -> 2 log-centric changes" in (
            capsys.readouterr().err)

    def test_non_utf8_commit_is_skipped_with_a_warning(self, tmp_path,
                                                       caplog):
        repo = tmp_path / "repo"
        repo.mkdir()

        def git(*args: str) -> str:
            return subprocess.run(
                ["git", "-C", str(repo), "-c", "user.name=t",
                 "-c", "user.email=t@example.com", "-c", "commit.gpgsign=false",
                 *args],
                capture_output=True, text=True, check=True).stdout.strip()

        def commit(message: str) -> str:
            git("add", "-A")
            git("commit", "-q", "-m", message)
            return git("rev-parse", "HEAD")

        service = repo / "Service.java"
        git("init", "-q")
        service.write_text("class Service {\n    void act() {\n"
                           '        log.info("starting worker");\n'
                           "    }\n}\n", encoding="utf-8")
        commit("base")
        (repo / "Legacy.java").write_bytes(
            "class Legacy {\n    // Gr\u00f6\u00dfe\n}\n".encode("latin-1"))
        latin = commit("latin-1 file")
        service.write_text(service.read_text(encoding="utf-8").replace(
            "starting worker", "started worker"), encoding="utf-8")
        log_only = commit("log-only")

        out = tmp_path / "changes.jsonl"
        with caplog.at_level(logging.WARNING, logger="logfix.mining"):
            assert main(["mine", "--repo", str(repo), "--out", str(out)]) == 0
        [record] = read_jsonl(str(out))
        assert record["commit_id"] == log_only
        assert record["after"]["raw_text"] == 'log.info("started worker");'
        [warning] = caplog.records
        assert latin in warning.getMessage()
        assert "Legacy.java" in warning.getMessage()

    def test_non_utf8_snapshot_is_skipped_with_a_warning(self, tmp_path,
                                                         caplog):
        service = ("class Service {\n    void act() {\n"
                   '        log.info("%s worker");\n    }\n}\n')
        for dirname, message in (("1_base", "starting"), ("2_latin", "starting"),
                                 ("3_logonly", "started")):
            (tmp_path / dirname).mkdir()
            (tmp_path / dirname / "Service.java").write_text(
                service % message, encoding="utf-8")
        for dirname in ("2_latin", "3_logonly"):
            (tmp_path / dirname / "Legacy.java").write_bytes(
                "class Legacy {\n    // Größe\n}\n".encode("latin-1"))
        out = tmp_path / "changes.jsonl"
        with caplog.at_level(logging.WARNING, logger="logfix.mining"):
            assert main(["mine", "--repo", str(tmp_path),
                         "--out", str(out)]) == 0
        [record] = read_jsonl(str(out))
        assert record["commit_id"] == "logonly"
        assert record["after"]["raw_text"] == 'log.info("started worker");'
        assert [r.getMessage() for r in caplog.records] == [
            "commit latin: Legacy.java is not UTF-8 text, commit skipped"]

    def test_unreadable_snapshot_file_is_skipped_with_a_warning(
            self, tmp_path, caplog):
        service = ("class Service {\n    void act() {\n"
                   '        log.info("%s worker");\n    }\n}\n')
        history = tmp_path / "history"
        for dirname, message in (("1_base", "starting"), ("2_broken", "starting"),
                                 ("3_logonly", "started")):
            (history / dirname).mkdir(parents=True)
            (history / dirname / "Service.java").write_text(
                service % message, encoding="utf-8")
        # a link to nothing appears, and stays as it is in the next commit
        for dirname in ("2_broken", "3_logonly"):
            (history / dirname / "Broken.java").symlink_to(
                tmp_path / "gone.java")
        out = tmp_path / "changes.jsonl"
        with caplog.at_level(logging.WARNING, logger="logfix.mining"):
            assert main(["mine", "--repo", str(history),
                         "--out", str(out)]) == 0
        [record] = read_jsonl(str(out))
        assert record["commit_id"] == "logonly"
        assert [r.getMessage() for r in caplog.records] == [
            "commit broken: Broken.java cannot be read (No such file or "
            "directory), commit skipped"]


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
                     "--per-type", "1", "--llm"]) == 0
        assert len(read_samples(str(out))) == 15 + 4

    def test_http_llm_without_a_token_is_a_backend_error(
            self, ws, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv(TOKEN_ENV_VAR, raising=False)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"backend": {
            "kind": "http", "endpoint": "https://example.invalid/v1",
            "model": "m"}}), encoding="utf-8")
        out = tmp_path / "corpus.jsonl"
        assert main(["synthesize", "--in", ws["clean"], "--per-type", "1",
                     "--llm", "--config", str(config),
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "logfix: backend error: no API token: set the "
            f"{TOKEN_ENV_VAR} environment variable\n")
        assert not out.exists()

    def test_extract_records_are_read_as_clean_samples(self, tmp_path):
        # README's step 3: extract a clean tree, then synthesize from it
        methods = tmp_path / "methods.jsonl"
        assert main(["extract", "--root", str(CLEAN_DIR), "--project",
                     CLEAN_PROJECT, "--out", str(methods)]) == 0
        samples = tmp_path / "samples.jsonl"
        write_samples(str(samples), load_clean_samples())
        corpora = []
        for clean in (methods, samples):
            out = tmp_path / f"corpus-{clean.stem}.jsonl"
            assert main(["synthesize", "--in", str(clean), "--out", str(out),
                         "--per-type", "5", "--seed", "3"]) == 0
            corpora.append(out.read_bytes())
        assert corpora[0] == corpora[1]
        assert len(corpora[0].splitlines()) == 250 + 4 * 5

    def test_a_clean_sample_outside_its_method_is_a_data_error(
            self, tmp_path, capsys):
        clean = [to_dict(s) for s in load_clean_samples()[:3]]
        location = clean[1]["target"]["location"]
        location["start_line"] += 100
        location["end_line"] += 100
        path, out = tmp_path / "clean.jsonl", tmp_path / "corpus.jsonl"
        write_jsonl(str(path), clean)
        capsys.readouterr()
        assert main(["synthesize", "--in", str(path), "--out", str(out),
                     "--per-type", "1"]) == 2
        err = capsys.readouterr().err
        assert (f"clean sample {clean[1]['target']['id']}: target statement "
                "lines fall outside the method's line span") in err
        assert not out.exists()

    def test_negative_per_type_names_the_flag(self, ws, tmp_path, capsys):
        out = tmp_path / "corpus.jsonl"
        assert main(["synthesize", "--in", ws["clean"], "--out", str(out),
                     "--per-type", "-1"]) == 2
        assert ("logfix: --per-type must be >= 0, got -1"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_a_pool_too_small_for_per_type_is_a_data_error(self, tmp_path,
                                                           capsys):
        clean = tmp_path / "clean.jsonl"
        write_samples(str(clean), load_clean_samples()[:2])
        out = tmp_path / "corpus.jsonl"
        capsys.readouterr()
        assert main(["synthesize", "--in", str(clean), "--out", str(out),
                     "--per-type", "1000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("logfix: cannot synthesize --per-type 1000 "
                              "from 2 clean samples: ")
        assert "pool exhausted" in err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_empty_input(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        assert main(["synthesize", "--in", str(empty),
                     "--out", str(tmp_path / "o.jsonl"),
                     "--per-type", "1"]) == 2


class TestLexiconPaths:
    def synthesize(self, ws, out, *extra) -> int:
        return main(["synthesize", "--in", ws["clean"], "--out", str(out),
                     "--per-type", "3", "--seed", "1", *extra])

    def marked_mutants(self, ws, tmp_path, key: str, fields: int,
                       label: DefectLabel) -> dict[str, list[str]]:
        """The `label` mutants holding "qq", synthesized with the bundled
        lexicons ("default") and with `paths.<key>` set ("custom") to a
        file that gives every word of the clean statements `fields` - 1
        counterparts "<word>qq"."""
        words = {w.lower() for s in read_samples(ws["clean"])
                 for w in re.findall(r"[A-Za-z]{3,}", s.target.static_text)}
        lexicon = tmp_path / f"{key}.tsv"
        lexicon.write_text("".join("\t".join([w] + [f"{w}qq"] * (fields - 1))
                                   + "\n" for w in sorted(words)),
                           encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"paths": {key: str(lexicon)}}),
                          encoding="utf-8")
        marked = {}
        for name, extra in (("default", ()), ("custom", ("--config",
                                                         str(config)))):
            out = tmp_path / f"{name}.jsonl"
            assert self.synthesize(ws, out, *extra) == 0
            marked[name] = [s.target.raw_text for s in read_samples(str(out))
                            if s.label is label and "qq" in s.target.raw_text]
        return marked

    def test_typo_lexicon_from_config_reaches_synthesize(self, ws, tmp_path):
        # every word gets one misspelling
        typos = self.marked_mutants(ws, tmp_path, "typos", 2,
                                    DefectLabel.READABILITY)
        assert typos["default"] == [] and typos["custom"]

    @pytest.mark.parametrize("key, fields, label", [
        # every word is the base form of a verb whose other forms are marked
        ("verbs", 5, DefectLabel.TEMPORAL),
        # every word has a marked opposite
        ("antonyms", 2, DefectLabel.STATEMENT_CODE),
    ])
    def test_verb_and_antonym_lexicons_from_config_reach_synthesize(
            self, ws, tmp_path, key, fields, label):
        marked = self.marked_mutants(ws, tmp_path, key, fields, label)
        assert marked["default"] == [] and marked["custom"]

    @pytest.mark.parametrize("key", ["typos", "verbs", "antonyms"])
    def test_a_missing_lexicon_file_is_a_data_error(self, ws, tmp_path,
                                                    capsys, key):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"paths": {
            key: str(tmp_path / "absent.tsv")}}), encoding="utf-8")
        out = tmp_path / "out.jsonl"
        capsys.readouterr()
        assert self.synthesize(ws, out, "--config", str(config)) == 2
        assert "absent.tsv" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize("key, value", [
        ("batch_size", -4), ("batch_size", 0), ("dim", 0), ("max_tokens", 0),
        ("learning_rate", -1e-3), ("adam_epsilon", 0.0),
        ("vocab_size", 0), ("vocab_size", -5),
        ("alpha", math.nan), ("alpha", math.inf),
        ("learning_rate", math.nan), ("learning_rate", math.inf),
        ("adam_epsilon", math.nan), ("adam_epsilon", math.inf),
        ("seed", -3), ("--seed", -1),
    ])
    def test_train_rejects_settings_that_cannot_train(self, ws, tmp_path,
                                                      capsys, key, value):
        # a "--" key is given as a flag, any other in the config file
        flag = key.startswith("--")
        section = {**SMALL_TRAIN_SECTION, **({} if flag else {key: value})}
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"train": section}), encoding="utf-8")
        model = tmp_path / "m.json"
        capsys.readouterr()
        assert main(["train", "--corpus", ws["corpus"], "--model", str(model),
                     "--config", str(config),
                     *([key, str(value)] if flag else [])]) == 2
        err = capsys.readouterr().err
        assert key.lstrip("-") in err
        if key == "seed":
            assert ("logfix: config section 'train': seed must be >= 0, "
                    "got -3") in err
        assert not model.exists()

    @staticmethod
    def repeated_log_lines(tmp_path) -> tuple[str, list[MethodRecord]]:
        """The e2e sources with each log line written one to three times,
        so that methods hold several statements and span bags of 8,
        extracted: the methods file and its records."""
        tree = tmp_path / "tree"
        tree.mkdir()
        log_line = re.compile(r"\s*(log|logger)\.\w+\(")
        for i, path in enumerate(sorted(E2E_SRC_DIR.glob("*.java"))):
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            (tree / path.name).write_text("".join(
                line * (1 + i % 3 if log_line.match(line) else 1)
                for line in lines), encoding="utf-8")
        methods = tmp_path / "methods.jsonl"
        assert main(["extract", "--root", str(tree),
                     "--out", str(methods)]) == 0
        records = [from_dict(MethodRecord, d)
                   for d in read_jsonl(str(methods))]
        statements = sum(len(r.statements) for r in records)
        assert (len(records), statements) == (20, 39)
        return str(methods), records

    def test_a_method_is_tokenized_once_for_all_its_statements(
            self, ws, tmp_path, monkeypatch):
        methods, records = self.repeated_log_lines(tmp_path)
        statements = sum(len(r.statements) for r in records)

        texts = []
        real = detector.tokenize

        def counting(text, *args):
            texts.append(text)
            return real(text, *args)

        monkeypatch.setattr(detector, "tokenize", counting)
        out = tmp_path / "detections.jsonl"
        assert main(["detect", "--in", methods, "--model", ws["model"],
                     "--out", str(out)]) == 0
        assert len(texts) == statements + len(records)
        monkeypatch.undo()

        # the labels of one-pair predict, and its confidences up to the
        # last bits of a bag's sums
        model, head, config = load_checkpoint(ws["model"])
        rows = list(read_jsonl(str(out)))
        expected = [predict(r.method, stmt, model, head, config.max_tokens)
                    for r in records for stmt in r.statements]
        assert [row["predicted_label"] for row in rows] == [
            label.value for label, _ in expected]
        for row, (label, probs) in zip(rows, expected):
            assert row["confidence"] == pytest.approx(
                probs[LABEL_INDEX[label]], rel=0, abs=1e-12)

        # reruns write the same bytes; the rigged checkpoint sends every
        # statement through repair
        def run(command, path, model, *extra):
            assert main([command, "--in", methods, "--model", model,
                         *extra, "--out", str(path)]) == 0
            return path.read_bytes()

        assert (run("detect", tmp_path / "again.jsonl", ws["model"])
                == out.read_bytes())
        fixed = [run("fix", tmp_path / f"results-{k}.jsonl", ws["rigged"],
                     "--lcc", ws["lcc"]) for k in range(2)]
        assert fixed[0] == fixed[1]

    @pytest.mark.parametrize("batch_size", [1, 3, 32])
    def test_batching_never_changes_a_label(self, ws, tmp_path, batch_size):
        # bags of 1, 3 and 32 pairs cut the 39 statements at different
        # places, within methods and across them
        _, records = self.repeated_log_lines(tmp_path)
        model, head, config = load_checkpoint(ws["model"])
        batched = list(predict_many(((r.method, r.statements)
                                     for r in records),
                                    model, head, config.max_tokens,
                                    batch_size))
        single = [predict(r.method, stmt, model, head, config.max_tokens)
                  for r in records for stmt in r.statements]
        assert [label for label, _ in batched] == [
            label for label, _ in single]
        for (_, got), (_, want) in zip(batched, single):
            assert got == pytest.approx(want, rel=0, abs=1e-12)

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

    @pytest.mark.parametrize("k", [1, 2])
    def test_retrieval_k_sets_the_exemplars_per_prompt(self, ws, tmp_path,
                                                       k):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"retrieval": {"k": k}}),
                          encoding="utf-8")
        out = tmp_path / "results.jsonl"
        assert main(["fix", "--in", ws["methods"], "--model", ws["rigged"],
                     "--lcc", ws["lcc"], "--config", str(config),
                     "--out", str(out)]) == 0
        rows = list(read_jsonl(str(out)))
        assert rows and all(len(row["exemplars"]) == k for row in rows)

    def test_exemplar_budget_below_one_is_a_data_error(
            self, ws, tmp_path, monkeypatch, capsys):
        backends = []
        real = cli.make_backend

        def recording(*args):
            backends.append(real(*args))
            return backends[-1]

        monkeypatch.setattr(cli, "make_backend", recording)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"retrieval": {"k": 0}}),
                          encoding="utf-8")
        out = tmp_path / "o.jsonl"
        # The rigged checkpoint flags every statement, so each would reach
        # the backend.
        assert main(["fix", "--in", ws["methods"], "--model", ws["rigged"],
                     "--lcc", ws["lcc"], "--out", str(out),
                     "--config", str(config)]) == 2
        assert "retrieval.k must be >= 1, got 0" in capsys.readouterr().err
        assert sum(len(b.calls) for b in backends) == 0
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_a_data_error(self, ws, tmp_path, monkeypatch,
                                            jobs):
        backends = []
        real = cli.make_backend

        def recording(*args):
            backends.append(real(*args))
            return backends[-1]

        def no_read(path):
            raise AssertionError(f"input read: {path}")

        monkeypatch.setattr(cli, "make_backend", recording)
        monkeypatch.setattr(cli, "read_jsonl", no_read)
        out = tmp_path / "o.jsonl"
        assert main(["fix", "--in", ws["methods"], "--model", ws["rigged"],
                     "--lcc", ws["lcc"], "--out", str(out),
                     "--jobs", jobs]) == 2
        assert sum(len(b.calls) for b in backends) == 0
        assert not out.exists()

    def test_http_backend_needs_endpoint_config(self, ws, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"backend": {"kind": "http"}}),
                          encoding="utf-8")
        out = tmp_path / "o.jsonl"
        assert main(["fix", "--in", ws["methods"], "--model", ws["rigged"],
                     "--config", str(config), "--out", str(out)]) == 2
        assert "needs backend.endpoint" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fix", "synthesize"])
    def test_an_unknown_backend_kind_is_a_data_error_naming_it(
            self, ws, tmp_path, capsys, command):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"backend": {"kind": "bogus"}}),
                          encoding="utf-8")
        out = tmp_path / "o.jsonl"
        argv = (["fix", "--in", ws["detections"]] if command == "fix" else
                ["synthesize", "--in", ws["clean"], "--per-type", "1",
                 "--llm"])
        assert main([*argv, "--config", str(config), "--out", str(out)]) == 2
        assert ("unknown backend.kind 'bogus' (expected mock or http)"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("timeout", [0, -1.5, "NaN", "Infinity"])
    def test_http_timeout_must_be_finite_and_above_zero(
            self, ws, tmp_path, monkeypatch, capsys, timeout):
        import requests

        def no_request(*args, **kwargs):
            raise AssertionError("request made")

        monkeypatch.setenv(TOKEN_ENV_VAR, "t")
        monkeypatch.setattr(requests, "post", no_request)
        config = tmp_path / "config.json"
        # NaN and Infinity are what Python's json reads and writes for them
        config.write_text(
            '{"backend": {"kind": "http", "endpoint": "http://127.0.0.1:9/v1", '
            f'"model": "m", "timeout_seconds": {timeout}}}}}',
            encoding="utf-8")
        out = tmp_path / "results.jsonl"
        assert main(["fix", "--in", ws["detections"], "--config", str(config),
                     "--out", str(out)]) == 2
        assert "backend.timeout_seconds must be" in capsys.readouterr().err
        assert not out.exists()

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
        write_jsonl(str(one), [to_dict(MethodRecord(ctx, tuple(stmts)))])
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

    def test_summary_counts_only_changed_statements_as_updated(
            self, ws, tmp_path, capsys):
        # The rigged checkpoint flags both statements and the checker
        # confirms both; the updater rewrites the first and, unscripted,
        # echoes the second.
        transcript = tmp_path / "transcript.json"
        transcript.write_text(json.dumps([{
            "pattern": r'Target statement:\nlog\.info\("opening channel"\);'
                       r"\n\nRewrite",
            "reply": '<UPDATED>log.info("opened channel");</UPDATED>',
        }]), encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"backend": {
            "kind": "mock", "transcript": str(transcript),
        }}), encoding="utf-8")
        ctx, stmts = single_method(
            "class Two {\n    void go() {\n"
            '        log.info("opening channel");\n'
            '        log.info("closing channel");\n    }\n}\n')
        two = tmp_path / "two.jsonl"
        write_jsonl(str(two), [to_dict(MethodRecord(ctx, tuple(stmts)))])
        out = tmp_path / "results.jsonl"
        capsys.readouterr()
        assert main(["fix", "--in", str(two), "--model", ws["rigged"],
                     "--config", str(config), "--out", str(out)]) == 0
        rows = list(read_jsonl(str(out)))
        assert [row["updated_statement"]["raw_text"] for row in rows] == [
            'log.info("opened channel");', 'log.info("closing channel");']
        assert (f"fix: 2 statements, 1 updated, 1 returned unchanged -> {out}"
                in capsys.readouterr().err)

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

    @pytest.mark.parametrize("field, value, message", [
        ("confidence", "0.9", 'Detection.confidence must be a number, '
                              'got "0.9"'),
        ("confidence", True, "Detection.confidence must be a number, "
                             "got true"),
        ("predicted_label", 3, "Detection.predicted_label must be a string, "
                               "got 3"),
        # a record that is neither a detection nor an extract record
        ("predicted_label", None, "Detection.predicted_label is missing"),
    ])
    def test_a_detection_field_of_the_wrong_type_is_a_data_error(
            self, ws, tmp_path, capsys, field, value, message):
        rows = list(read_jsonl(ws["detections"]))
        rows[1][field] = value
        if value is None:
            del rows[1][field]
        detections = tmp_path / "detections.jsonl"
        write_jsonl(str(detections), rows)
        out = tmp_path / "results.jsonl"
        capsys.readouterr()
        assert main(["fix", "--in", str(detections), "--lcc", ws["lcc"],
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

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

    def test_mixed_records_give_the_results_of_their_detections(
            self, ws, tmp_path, monkeypatch):
        detections = tmp_path / "detections.jsonl"
        assert main(["detect", "--in", ws["methods"], "--model", ws["rigged"],
                     "--out", str(detections)]) == 0
        # the odd methods as extract records, the even ones as the detection
        # records of their statements
        labelled = iter(read_jsonl(str(detections)))
        mixed = []
        for i, record in enumerate(read_jsonl(ws["methods"])):
            own = [next(labelled) for _ in record["statements"]]
            mixed.extend([record] if i % 2 else own)
        kinds = ["statements" in row for row in mixed]
        assert kinds.count(True) >= 2 and kinds.count(False) >= 2
        mixed_path = tmp_path / "mixed.jsonl"
        write_jsonl(str(mixed_path), mixed)
        loads = []
        real = cli.load_checkpoint
        monkeypatch.setattr(cli, "load_checkpoint",
                            lambda path: loads.append(path) or real(path))
        outputs = []
        for records in (detections, mixed_path):
            out = tmp_path / f"results-{len(outputs)}.jsonl"
            assert main(["fix", "--in", str(records), "--model", ws["rigged"],
                         "--lcc", ws["lcc"], "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert len(outputs[0].splitlines()) == 20
        assert outputs[1] == outputs[0]
        # the detections file needs no checkpoint; the mixed one loads it once
        assert loads == [ws["rigged"]]

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

    @pytest.mark.parametrize("k1", [math.nan, math.inf])
    def test_retrieval_k1_that_is_not_finite_is_a_data_error(
            self, ws, tmp_path, capsys, k1):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"retrieval": {"k1": k1}}),
                          encoding="utf-8")
        capsys.readouterr()
        assert main(["fix", "--in", ws["detections"], "--lcc", ws["lcc"],
                     "--config", str(config),
                     "--out", str(tmp_path / "o.jsonl")]) == 2
        assert "BM25 k1 " in capsys.readouterr().err

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
            "method": to_dict(ctx),
            "statement": to_dict(stmts[0]),
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

    def test_record_without_a_required_key_is_a_data_error(
            self, ws, tmp_path, capsys):
        results = tmp_path / "results.jsonl"
        assert main(["fix", "--in", ws["methods"], "--model", ws["rigged"],
                     "--lcc", ws["lcc"], "--out", str(results)]) == 0
        truth = tmp_path / "truth.jsonl"
        self.build_truth(ws, str(truth))
        rows = list(read_jsonl(str(truth)))
        del rows[0]["statement"]["raw_text"]
        write_jsonl(str(truth), rows)
        assert main(["evaluate", "--results", str(results),
                     "--truth", str(truth),
                     "--out", str(tmp_path / "r.json")]) == 2
        assert ("TruthRecord.statement: LoggingStatement.raw_text is missing"
                in capsys.readouterr().err)

    def test_record_value_of_the_wrong_type_is_a_data_error(
            self, ws, tmp_path, capsys):
        results = tmp_path / "results.jsonl"
        assert main(["fix", "--in", ws["methods"], "--model", ws["rigged"],
                     "--lcc", ws["lcc"], "--out", str(results)]) == 0
        truth = tmp_path / "truth.jsonl"
        self.build_truth(ws, str(truth))
        rows = list(read_jsonl(str(truth)))
        rows[0]["statement"]["location"]["start_line"] = None
        write_jsonl(str(truth), rows)
        capsys.readouterr()
        assert main(["evaluate", "--results", str(results),
                     "--truth", str(truth),
                     "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert "SourceLocation.start_line must be an integer, got null" in err
        assert "Traceback" not in err

    def test_a_fractional_line_number_is_a_data_error(self, ws, tmp_path,
                                                      capsys):
        results = tmp_path / "results.jsonl"
        assert main(["fix", "--in", ws["methods"], "--model", ws["rigged"],
                     "--lcc", ws["lcc"], "--out", str(results)]) == 0
        truth = tmp_path / "truth.jsonl"
        self.build_truth(ws, str(truth))
        rows = list(read_jsonl(str(truth)))
        rows[0]["statement"]["location"]["end_line"] += 0.5
        write_jsonl(str(truth), rows)
        capsys.readouterr()
        assert main(["evaluate", "--results", str(results),
                     "--truth", str(truth),
                     "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert "SourceLocation.end_line must be an integer, got" in err
        assert "Traceback" not in err

    def test_empty_results(self, ws, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        truth = tmp_path / "truth.jsonl"
        self.build_truth(ws, str(truth))
        assert main(["evaluate", "--results", str(empty),
                     "--truth", str(truth),
                     "--out", str(tmp_path / "r.json")]) == 2

    def test_results_are_read_one_at_a_time(self, ws, tmp_path):
        results = tmp_path / "results.jsonl"
        assert main(["fix", "--in", ws["methods"], "--model", ws["rigged"],
                     "--lcc", ws["lcc"], "--out", str(results)]) == 0
        lines = results.read_text(encoding="utf-8")

        def peak(copies: int) -> int:
            repeated = tmp_path / f"results-{copies}.jsonl"
            repeated.write_text(lines * copies, encoding="utf-8")
            argv = ["evaluate", "--results", str(repeated),
                    "--truth", str(E2E_TRUTH),
                    "--out", str(tmp_path / f"r-{copies}.json")]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # first decodes fill the record codec's caches
        once, four = peak(1), peak(4)
        # Holding every decoded result makes the peak grow with the file;
        # one pass holds the truth index and nine score pairs per defect.
        assert four < 1.5 * once, (once, four)

    def test_truth_statements_are_kept_only_for_defects(self, ws, tmp_path):
        results = tmp_path / "results.jsonl"
        assert main(["fix", "--in", ws["methods"], "--model", ws["rigged"],
                     "--lcc", ws["lcc"], "--out", str(results)]) == 0
        rows = list(read_jsonl(str(E2E_TRUTH)))
        clean = [r for r in rows if r["label"] == "NON_DEFECT"]

        def peak(copies: int) -> int:
            # rows no result asks for, each with a statement of its own
            padded = tmp_path / f"truth-{copies}.jsonl"
            write_jsonl(str(padded), rows + [
                dict(clean[k % len(clean)], statement_id=f"pad-{k}")
                for k in range(250 * copies)])
            argv = ["evaluate", "--results", str(results),
                    "--truth", str(padded),
                    "--out", str(tmp_path / f"r-{copies}.json")]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # first decodes fill the record codec's caches
        once, four = peak(1), peak(4)
        # Every NON_DEFECT row is decoded, but only its id and label are
        # kept: well under the ~1.4 KB a kept statement costs.
        assert (four - once) / (250 * 3) < 500, (once, four)
        assert ((tmp_path / "r-1.json").read_bytes()
                == (tmp_path / "r-4.json").read_bytes())


def _with(*keys, value):
    """A change to a loaded JSON document: a copy with `value` at `keys`."""
    def change(doc):
        doc = copy.deepcopy(doc)
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        return doc
    return change


class TestMalformedInput:
    """Every file logfix reads is decoded by `from_dict`: a malformed one is
    a data error (exit 2) whose message names the class and the field."""

    @pytest.fixture(scope="class")
    def valid(self, ws, tmp_path_factory):
        """A valid document of each input kind, loaded, and the argv that
        reads a file of that kind."""
        results = str(tmp_path_factory.mktemp("malformed") / "results.jsonl")
        assert main(["fix", "--in", ws["detections"], "--lcc", ws["lcc"],
                     "--out", results]) == 0
        with open(ws["model"], encoding="utf-8") as fh:
            checkpoint = json.load(fh)
        methods = list(read_jsonl(ws["methods"]))
        truth = [{"statement_id": s["id"], "label": "NON_DEFECT",
                  "statement": s}
                 for record in methods for s in record["statements"]]
        return {
            "checkpoint": (checkpoint, lambda path: [
                "detect", "--in", ws["methods"], "--model", path]),
            "truth": (truth, lambda path: [
                "evaluate", "--results", results, "--truth", path]),
            "detect": (methods, lambda path: [
                "detect", "--in", path, "--model", ws["model"]]),
            "fix": (methods, lambda path: [
                "fix", "--in", path, "--model", ws["model"]]),
            "transcript": ([], lambda path: [
                "fix", "--in", ws["detections"], "--config",
                _write_json(os.path.dirname(path), "config.json",
                            {"backend": {"transcript": path}})]),
        }

    @pytest.mark.parametrize("kind, change, named", [
        ("checkpoint", _with("vocabulary", "tokens", value=5),
         "SavedVocabulary.tokens must be a list, got 5"),
        ("checkpoint", _with("tensors", "w1", "shape", value="x"),
         'Tensor.shape must be a list, got "x"'),
        ("checkpoint", _with("vocabulary", value=[1]),
         "Checkpoint.vocabulary must be an object, got [1]"),
        ("checkpoint", lambda doc: [1], "Checkpoint.format must be"),
        ("checkpoint", _with("config", "max_tokens", value="9"),
         'Checkpoint.config: TrainConfig.max_tokens must be an integer, '
         'got "9"'),
        ("checkpoint", _with("vocabulary", "oov_buckets", value=0),
         "Checkpoint.vocabulary: Vocabulary.oov_buckets must be >= 1, "
         "got 0"),
        ("checkpoint", _with("tensors", "b1", "dtype", value="float32"),
         "Tensor.dtype must be float64, got 'float32'"),
        ("truth", _with(0, "statement_id", value=["x"]),
         'TruthRecord.statement_id must be a string, got ["x"]'),
        ("truth", lambda rows: [[1, 2], *rows],
         "TruthRecord must be an object, got [1, 2]"),
        *((kind, change, named.format(record)) for kind, record in (
            ("detect", "MethodRecord"), ("fix", "Detection"))
          for change, named in (
            (_with(0, "statements", value=5),
             "MethodRecord.statements must be a list, got 5"),
            (lambda rows: [[1]], "{} must be an object, got [1]"),
            (lambda rows: [5], "{} must be an object, got 5"))),
        ("transcript", lambda entries: [1],
         "TranscriptEntry must be an object, got 1"),
        ("transcript", lambda entries: {},
         "must be a list of TranscriptEntry objects"),
        ("transcript", lambda entries: [{"pattern": "(", "reply": "x"}],
         "TranscriptEntry.pattern '(': missing ), unterminated subpattern"),
        # a checkpoint is checked as a whole: unique tokens, all seven
        # tensors, and the shapes the vocabulary and config.dim give
        ("checkpoint", lambda doc: _with("vocabulary", "tokens", 1,
                                         value=doc["vocabulary"]["tokens"][0]
                                         )(doc),
         "Checkpoint.vocabulary.tokens repeats"),
        ("checkpoint", _with("tensors", "b1", "shape", value=[-1]),
         "Checkpoint.tensors.b1.shape must be [16] for"),
        ("checkpoint", _with("tensors", "w1", "shape", value=[8, 32]),
         "Checkpoint.tensors.w1.shape must be [16, 16] for"),
        ("checkpoint", lambda doc: _with("vocabulary", "tokens",
                                         value=doc["vocabulary"]["tokens"][1:]
                                         )(doc),
         "Checkpoint.tensors.embedding.shape must be ["),
        ("checkpoint", lambda doc: {**doc, "tensors": {
            k: v for k, v in doc["tensors"].items() if k != "head_bias"}},
         "Checkpoint.tensors must be ['b1', 'b2', 'embedding', "
         "'head_bias', 'head_weight', 'w1', 'w2'], got ['b1', 'b2', "
         "'embedding', 'head_weight', 'w1', 'w2']"),
        ("checkpoint", _with("tensors", "b2", "data", value="AAAA"),
         "Checkpoint.tensors.b2.data: "),
        # a missing key names its class and field
        ("transcript", lambda entries: [{}],
         "TranscriptEntry.pattern is missing"),
    ], ids=[*(f"checkpoint-{name}" for name in (
        "tokens", "shape", "vocabulary", "top-level", "max_tokens",
        "oov_buckets", "dtype")), "truth-statement_id", "truth-row",
        *(f"{kind}-{name}" for kind in ("detect", "fix")
          for name in ("statements", "row-list", "row-int")),
        "transcript-entry", "transcript-object", "transcript-pattern",
        *(f"checkpoint-{name}" for name in (
            "repeated-token", "negative-shape", "w1-shape", "embedding-rows",
            "missing-tensor", "data-size")),
        "transcript-missing-key"])
    def test_is_a_data_error_naming_the_field(self, valid, tmp_path, capsys,
                                              kind, change, named):
        doc, argv = valid[kind]
        doc = change(doc)
        if kind in ("checkpoint", "transcript"):
            path = _write_json(str(tmp_path), "input.json", doc)
        else:
            path = str(tmp_path / "input.jsonl")
            write_jsonl(path, doc)
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([*argv(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["detect", "fix"])
    def test_a_line_that_is_not_json_names_its_file_and_line(
            self, valid, tmp_path, capsys, kind):
        rows, argv = valid[kind]
        lines = [json.dumps(row) for row in rows[:3]]
        # a blank line counts; the third record is cut off mid-string
        path = tmp_path / "input.jsonl"
        path.write_text(f"{lines[0]}\n\n{lines[1]}\n{lines[2][:60]}\n",
                        encoding="utf-8")
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([*argv(str(path)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert (f"{path}: line 4 is not JSON: Unterminated string starting "
                "at: column 60") in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("kind, text, where", [
        # a checkpoint cut off in the first key of its config
        ("checkpoint", None, "line 4 column 3"),
        ("transcript", '[\n {"pattern": "checker",\n  "reply": "con',
         "line 3 column 12"),
    ])
    def test_a_file_that_is_not_json_names_its_file_line_and_column(
            self, valid, tmp_path, capsys, kind, text, where):
        doc, argv = valid[kind]
        if text is None:
            text = "\n".join(json.dumps(doc, indent=1).splitlines()[:3]
                             + ['  "lear'])
        path = tmp_path / "input.json"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([*argv(str(path)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert (f"{path} is not JSON: Unterminated string starting at: "
                f"{where}") in err
        assert "Traceback" not in err
        assert not out.exists()


def _write_json(directory: str, name: str, doc) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


# Run in a fresh interpreter: this test session has imported `requests`.
_OFFLINE_COMMANDS = """
import json, sys
from logfix.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
print(json.dumps(sorted(m for m in sys.modules
                        if m.partition(".")[0] in ("requests", "urllib3"))))
"""


def _all_subcommands(ws, tmp_path) -> tuple[dict[str, str], list[list[str]]]:
    """Each subcommand once, in pipeline order, writing into `tmp_path`:
    the output paths by file name, and the argument lists."""
    out = {name: str(tmp_path / name) for name in (
        "methods.jsonl", "changes.jsonl", "corpus.jsonl", "model.json",
        "detections.jsonl", "results.jsonl", "report.json")}
    return out, [
        ["extract", "--root", str(E2E_SRC_DIR), "--project", "e2e",
         "--out", out["methods.jsonl"]],
        ["mine", "--repo", str(HISTORY_DIR), "--project", "e2e",
         "--out", out["changes.jsonl"]],
        ["synthesize", "--in", out["methods.jsonl"], "--per-type", "2",
         "--out", out["corpus.jsonl"]],
        ["train", "--corpus", ws["corpus"], "--config", ws["config"],
         "--model", out["model.json"]],
        ["detect", "--in", out["methods.jsonl"], "--model", out["model.json"],
         "--out", out["detections.jsonl"]],
        ["fix", "--in", out["detections.jsonl"], "--lcc", out["changes.jsonl"],
         "--jobs", "2", "--out", out["results.jsonl"]],
        ["evaluate", "--results", out["results.jsonl"],
         "--truth", str(E2E_TRUTH), "--out", out["report.json"]],
    ]


def test_offline_commands_never_load_the_http_stack(ws, tmp_path):
    _, commands = _all_subcommands(ws, tmp_path)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run(
        [sys.executable, "-c", _OFFLINE_COMMANDS, json.dumps(commands)],
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


class TestOutputFiles:
    """An output that exists is overwritten in its own file; see
    `model.open_output`."""

    @staticmethod
    def command(name, ws, out):
        if name == "extract":
            return ["extract", "--root", str(E2E_SRC_DIR),
                    "--project", "e2e", "--out", out]
        return ["fix", "--in", ws["detections"], "--lcc", ws["lcc"],
                "--out", out]

    @pytest.mark.parametrize("name", ["extract", "fix"])
    def test_a_rerun_keeps_the_file_and_writes_the_same_bytes(
            self, ws, tmp_path, name):
        out, fresh = tmp_path / "out.jsonl", tmp_path / "new.jsonl"
        assert main(self.command(name, ws, str(out))) == 0
        inode = out.stat().st_ino
        for path in (out, fresh):
            assert main(self.command(name, ws, str(path))) == 0
        assert out.stat().st_ino == inode
        assert out.read_bytes() == fresh.read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["new.jsonl", "out.jsonl"]

    @pytest.mark.parametrize("with_out", [False, True])
    def test_a_longer_or_stale_file_leaves_no_tail_and_no_tmp(
            self, tmp_path, with_out):
        # with_out: a longer earlier output; without: a killed run's tmp
        out, fresh = tmp_path / "out.jsonl", tmp_path / "new.jsonl"
        stale = out if with_out else tmp_path / "out.jsonl.tmp"
        stale.write_text("x" * 1_000_000, encoding="utf-8")
        for path in (out, fresh):
            assert main(self.command("extract", None, str(path))) == 0
        assert out.read_bytes() == fresh.read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["new.jsonl", "out.jsonl"]

    def test_a_link_out_stays_a_link(self, tmp_path):
        target, link = tmp_path / "target.jsonl", tmp_path / "out.jsonl"
        fresh = tmp_path / "new.jsonl"
        target.write_text("an older output\n", encoding="utf-8")
        link.symlink_to(target)
        for path in (link, fresh):
            assert main(self.command("extract", None, str(path))) == 0
        assert link.is_symlink()
        assert target.read_bytes() == fresh.read_bytes()
        assert sorted(os.listdir(tmp_path)) == [
            "new.jsonl", "out.jsonl", "target.jsonl"]

    def test_out_in_a_missing_directory_is_a_data_error(self, tmp_path,
                                                        capsys):
        out = str(tmp_path / "absent" / "out.jsonl")
        assert main(self.command("extract", None, out)) == 2
        assert capsys.readouterr().err == (
            "logfix: FileNotFoundError: [Errno 2] No such file or "
            f"directory: {out!r}\n")

    def test_no_subcommand_leaves_a_tmp(self, ws, tmp_path):
        out, commands = _all_subcommands(ws, tmp_path)
        files = []
        for _ in range(2):
            for argv in commands:
                assert main(argv) == 0, argv[0]
            files.append({name: (os.stat(path).st_ino,
                                 (tmp_path / name).read_bytes())
                          for name, path in out.items()})
        assert files[1] == files[0]
        assert sorted(os.listdir(tmp_path)) == sorted(out)
