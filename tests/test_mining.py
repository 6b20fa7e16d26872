"""Line diffing, history providers, and the extraction of pure
logging-text changes from commit history."""

import io
import logging
import os
import subprocess
import tarfile
import tracemalloc

import pytest

from logfix.mining import (
    CommitSnapshotPair,
    FixtureHistoryProvider,
    GitHistoryProvider,
    diff_lines,
    extract_lccs,
)
from logfix.parser import ParserConfig, extract_file

from conftest import HISTORY_DIR


# ---------------------------------------------------------------------------
# Line diffs
# ---------------------------------------------------------------------------
def test_diff_lines_modify_from_replace():
    assert diff_lines("a\nb\nc\n", "a\nB\nc\n") == ({2}, {2})


def test_diff_lines_pure_delete_and_add():
    assert diff_lines("a\nb\n", "a\n") == ({2}, set())
    assert diff_lines("a\n", "a\nb\n") == (set(), {2})


def test_diff_lines_replace_with_surplus():
    assert diff_lines("a\nx\ny\n", "a\nz\n") == ({2, 3}, {2})
    assert diff_lines("a\nz\n", "a\nx\ny\n") == ({2}, {2, 3})


def test_diff_lines_identical_inputs():
    assert diff_lines("a\nb\n", "a\nb\n") == (set(), set())


# ---------------------------------------------------------------------------
# Fixture history provider
# ---------------------------------------------------------------------------
def test_fixture_history_pairs_are_ordered_and_named():
    pairs = list(FixtureHistoryProvider(str(HISTORY_DIR)).commit_pairs())
    assert [p.commit_id for p in pairs] == [
        "typofix", "mixedfix", "logdrop", "logadd", "tensefix"]
    for pair in pairs:
        assert pair.changed_files, pair.commit_id
        for path, before, after in pair.changed_files:
            assert before != after


def test_fixture_history_reads_each_file_once(monkeypatch):
    from logfix import mining

    opened = []

    def counting_open(path, *args, **kwargs):
        opened.append(os.path.relpath(path, HISTORY_DIR))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(mining, "open", counting_open, raising=False)
    pairs = list(FixtureHistoryProvider(str(HISTORY_DIR)).commit_pairs())
    assert len(pairs) == 5
    files = [os.path.relpath(os.path.join(base, name), HISTORY_DIR)
             for base, _, names in os.walk(HISTORY_DIR) for name in names]
    assert sorted(opened) == sorted(files)


def test_fixture_history_skips_a_commit_with_non_utf8_text(tmp_path, caplog):
    service = 'class S {\n    void a() {\n        log.info("%s");\n    }\n}\n'
    snapshots = {
        "1_base": {"S.java": service % "starting"},
        "2_latin": {"S.java": service % "starting",
                    "Legacy.java": "// Gr\u00f6\u00dfe\n".encode("latin-1")},
        "3_crlf": {"S.java": (service % "started").replace("\n", "\r\n"),
                   "Legacy.java": "// Gr\u00f6\u00dfe\n".encode("latin-1")},
    }
    for dirname, files in snapshots.items():
        for name, content in files.items():
            path = tmp_path / dirname / name
            path.parent.mkdir(exist_ok=True)
            if isinstance(content, bytes):
                path.write_bytes(content)
            else:
                path.write_bytes(content.encode("utf-8"))
    with caplog.at_level(logging.WARNING, logger="logfix.mining"):
        pairs = list(FixtureHistoryProvider(str(tmp_path)).commit_pairs())
    assert [p.commit_id for p in pairs] == ["crlf"]
    # An unchanged undecodable file is no reason to skip; newlines read as \n.
    assert pairs[0].changed_files == (
        ("S.java", service % "starting", service % "started"),)
    [warning] = caplog.records
    assert "commit latin: Legacy.java is not UTF-8 text" in warning.getMessage()


def test_fixture_history_skips_a_commit_with_a_non_utf8_name(tmp_path,
                                                             caplog):
    service = 'class S {\n    void a() {\n        log.info("%s");\n    }\n}\n'
    for dirname, message, odd in (("1_base", "starting", False),
                                  ("2_latin", "starting", True),
                                  ("3_logonly", "started", True)):
        (tmp_path / dirname).mkdir()
        (tmp_path / dirname / "S.java").write_text(service % message,
                                                   encoding="utf-8")
        if odd:
            with open(os.path.join(os.fsencode(tmp_path), dirname.encode(),
                                   b"Caf\xe9.java"), "wb") as fh:
                fh.write((service % "opening lease").encode("utf-8"))
    with caplog.at_level(logging.WARNING, logger="logfix.mining"):
        pairs = list(FixtureHistoryProvider(str(tmp_path)).commit_pairs())
    assert [p.commit_id for p in pairs] == ["logonly"]
    [warning] = caplog.records
    assert "commit latin: Caf\\xe9.java is not UTF-8 text" in (
        warning.getMessage())


def test_fixture_history_orders_snapshots_by_their_seq(tmp_path):
    # unpadded: by name, 10_c10 and 11_c11 would come before 2_c2
    for n in range(1, 12):
        (tmp_path / f"{n}_c{n}").mkdir()
        (tmp_path / f"{n}_c{n}" / "Service.java").write_text(
            service_source(f"step {n}"), encoding="utf-8")
    pairs = FixtureHistoryProvider(str(tmp_path)).commit_pairs()
    assert [(c.commit_id, c.before.raw_text, c.after.raw_text)
            for c in extract_lccs(pairs, None, "proj")] == [
        (f"c{n}", f'log.info("step {n - 1}");', f'log.info("step {n}");')
        for n in range(2, 12)]


class GitRepo:
    """A scratch git repository built one commit at a time."""

    def __init__(self, root):
        self.root = root
        self.git("init", "-q")

    def git(self, *args: str, committer_date: str | None = None) -> str:
        env = None
        if committer_date is not None:  # what `log --since` compares
            env = {**os.environ, "GIT_COMMITTER_DATE": committer_date}
        return subprocess.run(
            ["git", "-C", str(self.root), "-c", "user.name=t",
             "-c", "user.email=t@example.com", "-c", "commit.gpgsign=false",
             *args],
            capture_output=True, text=True, check=True, env=env).stdout.strip()

    def commit(self, files: dict[bytes, str | bytes],
               date: str | None = None) -> str:
        for name, text in files.items():
            with open(os.path.join(os.fsencode(self.root), name), "wb") as fh:
                fh.write(text.encode("utf-8") if isinstance(text, str)
                         else text)
        self.git("add", "-A")
        self.git("commit", "-q", "--allow-empty", "-m", "change",
                 committer_date=date)
        return self.git("rev-parse", "HEAD")


def service_source(message: str, code: str = "n += 1;") -> str:
    return java(code, f'log.info("{message}");')


@pytest.mark.parametrize("odd", ["Caf\u00e9.java", "Tab\tName.java",
                                 'Quote"Name.java'])
def test_git_history_reads_paths_verbatim(tmp_path, odd):
    repo = GitRepo(tmp_path)
    name = odd.encode("utf-8")
    repo.commit({name: service_source("opening lease"),
                 b"Other.java": service_source("starting worker")})
    mixed = repo.commit({name: service_source("opening lease", "n += 2;"),
                         b"Other.java": service_source("started worker")})
    log_only = repo.commit({name: service_source("opened lease", "n += 2;")})
    pairs = list(GitHistoryProvider(str(tmp_path)).commit_pairs())
    assert [p.commit_id for p in pairs] == [mixed, log_only]
    assert dict((path, (before, after))
                for path, before, after in pairs[0].changed_files)[odd] == (
        service_source("opening lease"),
        service_source("opening lease", "n += 2;"))
    # The code edit in the odd path keeps the mixed commit out.
    changes = extract_lccs(pairs, None, "proj")
    assert [(c.commit_id, c.after.location.path, c.after.raw_text)
            for c in changes] == [
        (log_only, odd, 'log.info("opened lease");')]


def test_git_history_skips_a_non_utf8_path(tmp_path, caplog):
    repo = GitRepo(tmp_path)
    repo.commit({b"Other.java": service_source("starting worker")})
    latin = repo.commit({b"Caf\xe9.java": service_source("opening lease")})
    log_only = repo.commit({b"Other.java": service_source("started worker")})
    with caplog.at_level(logging.WARNING, logger="logfix.mining"):
        pairs = list(GitHistoryProvider(str(tmp_path)).commit_pairs())
    assert [p.commit_id for p in pairs] == [log_only]
    [warning] = caplog.records
    assert f"commit {latin}: Caf\\xe9.java is not UTF-8" in (
        warning.getMessage())


def test_git_history_skips_a_file_git_cannot_show(tmp_path, caplog):
    repo = GitRepo(tmp_path)
    repo.commit({b"Other.java": service_source("starting worker")})
    # A submodule entry whose commit is not in the repository, at a source
    # path: `cat-file` has no content for it, which must not read as an
    # unchanged empty file.
    (tmp_path / "Other.java").write_text(service_source("started worker"),
                                         encoding="utf-8")
    repo.git("add", "-A")
    repo.git("update-index", "--add", "--cacheinfo",
             "160000,1111111111111111111111111111111111111111,vendor/Lib.java")
    repo.git("commit", "-q", "-m", "bump")
    bump = repo.git("rev-parse", "HEAD")
    with caplog.at_level(logging.WARNING, logger="logfix.mining"):
        pairs = list(GitHistoryProvider(str(tmp_path)).commit_pairs())
    assert pairs == []
    [warning] = caplog.records
    assert f"commit {bump}: git cannot show vendor/Lib.java" in (
        warning.getMessage())


def test_git_history_decides_a_non_source_commit_before_reading_it(
        tmp_path, monkeypatch, caplog):
    from logfix import mining

    repo = GitRepo(tmp_path)
    repo.commit({b"Service.java": service_source("starting worker"),
                 b"run.sh": "echo run\n"})
    # a submodule bump whose commits are not in the repository, and a
    # binary asset: neither is read, so neither can fail to be read
    sub = "160000,{},vendor/lib"
    repo.git("update-index", "--add", "--cacheinfo", sub.format("1" * 40))
    repo.git("commit", "-q", "-m", "add submodule")
    repo.git("update-index", "--cacheinfo", sub.format("2" * 40))
    repo.git("commit", "-q", "-m", "bump submodule")
    bump = repo.git("rev-parse", "HEAD")
    (tmp_path / "logo.png").write_bytes(b"\x89PNG\r\n\x1a\n\xff")
    repo.git("add", "logo.png")
    repo.git("commit", "-q", "-m", "asset")
    asset = repo.git("rev-parse", "HEAD")
    # a mode change alone changes no text: the log edit beside it is mined
    os.chmod(tmp_path / "run.sh", 0o755)
    (tmp_path / "Service.java").write_text(service_source("started worker"),
                                           encoding="utf-8")
    repo.git("add", "run.sh", "Service.java")  # `add -A` drops the gitlink
    repo.git("commit", "-q", "-m", "log edit")
    log_edit = repo.git("rev-parse", "HEAD")
    reads = []

    def counting_read_blob(cat_file, oid):
        reads.append(oid)
        return read_blob(cat_file, oid)

    read_blob = mining._read_blob
    monkeypatch.setattr(mining, "_read_blob", counting_read_blob)
    with caplog.at_level(logging.DEBUG, logger="logfix.mining"):
        pairs = list(GitHistoryProvider(str(tmp_path)).commit_pairs())
    assert [(p.commit_id, len(p.changed_files)) for p in pairs][1:] == [
        (bump, 0), (asset, 0), (log_edit, 2)]
    assert len(reads) == 4  # both sides of run.sh and Service.java
    assert [r.levelno for r in caplog.records] == [logging.DEBUG] * 3
    assert f"commit {bump}: non-source change vendor/lib" in (
        caplog.records[1].getMessage())
    assert [c.commit_id for c in extract_lccs(pairs, None, "proj")] == [
        log_edit]


def test_git_history_keeps_a_commit_with_an_empty_diff(tmp_path):
    # `log --raw` prints only the heading of a commit with an empty diff;
    # the commit must still count as a pair, with no files.
    repo = GitRepo(tmp_path)
    repo.commit({b"Service.java": service_source("starting worker")})
    empty = repo.commit({})
    log_only = repo.commit({b"Service.java": service_source("started worker")})
    pairs = list(GitHistoryProvider(str(tmp_path)).commit_pairs())
    assert [(p.commit_id, p.changed_files) for p in pairs] == [
        (empty, ()),
        (log_only, (("Service.java", service_source("starting worker"),
                     service_source("started worker")),))]


def test_git_history_reads_a_mode_only_change(tmp_path):
    repo = GitRepo(tmp_path)
    repo.commit({b"Service.java": service_source("starting worker")})
    os.chmod(tmp_path / "Service.java", 0o755)
    chmod = repo.commit({})
    [pair] = GitHistoryProvider(str(tmp_path)).commit_pairs()
    text = service_source("starting worker")
    assert (pair.commit_id, pair.changed_files) == (
        chmod, (("Service.java", text, text),))
    assert extract_lccs([pair], None, "proj") == []


def test_git_history_reads_an_added_and_a_deleted_file(tmp_path):
    repo = GitRepo(tmp_path)
    repo.commit({b"Old.java": service_source("starting worker")})
    (tmp_path / "Old.java").unlink()
    swap = repo.commit({b"New.java": service_source("opening lease")})
    [pair] = GitHistoryProvider(str(tmp_path)).commit_pairs()
    assert pair.commit_id == swap
    assert sorted(pair.changed_files) == [
        ("New.java", "", service_source("opening lease")),
        ("Old.java", service_source("starting worker"), "")]


class CountingSubprocess:
    """Stand-in for `logfix.mining.subprocess` that records the git
    subcommand of every process it starts."""

    def __init__(self):
        self.started: list[str] = []
        self.processes: list[subprocess.Popen] = []

    def run(self, args, **kwargs):
        self.started.append(args[3])  # git -C <repo> <subcommand>
        return subprocess.run(args, **kwargs)

    def Popen(self, args, **kwargs):
        self.started.append(args[3])
        self.process = subprocess.Popen(args, **kwargs)
        self.processes.append(self.process)
        return self.process

    def __getattr__(self, name):
        return getattr(subprocess, name)


@pytest.mark.parametrize("commits", [4, 20])
def test_git_process_count_does_not_grow_with_history(tmp_path, monkeypatch,
                                                      commits):
    from logfix import mining

    repo = GitRepo(tmp_path)
    for n in range(commits):
        repo.commit({b"Service.java": service_source(f"step {n}"),
                     b"Notes.java": service_source(f"note {n}")})
    counter = CountingSubprocess()
    monkeypatch.setattr(mining, "subprocess", counter)
    pairs = list(GitHistoryProvider(str(tmp_path)).commit_pairs())
    assert len(pairs) == commits - 1
    assert all(len(p.changed_files) == 2 for p in pairs)
    assert counter.started == ["log", "cat-file"]


def test_cat_file_is_waited_on_when_reading_fails(tmp_path, monkeypatch):
    from logfix import mining

    repo = GitRepo(tmp_path)
    repo.commit({b"Service.java": service_source("starting worker")})
    repo.commit({b"Service.java": service_source("started worker")})
    counter = CountingSubprocess()
    monkeypatch.setattr(mining, "subprocess", counter)

    def broken_decode(data):
        raise RuntimeError("decoder broke")

    monkeypatch.setattr(mining, "decode_source", broken_decode)
    with pytest.raises(RuntimeError, match="decoder broke"):
        list(GitHistoryProvider(str(tmp_path)).commit_pairs())
    assert all(p.returncode is not None for p in counter.processes)
    assert all(p.stdout.closed for p in counter.processes)
    assert counter.process.stdin.closed


def test_commit_pairs_are_read_as_they_are_consumed(tmp_path, monkeypatch):
    from logfix import mining

    repo = GitRepo(tmp_path)
    for message in ("starting worker", "started worker", "worker started"):
        repo.commit({b"Service.java": service_source(message)})
    counter = CountingSubprocess()
    monkeypatch.setattr(mining, "subprocess", counter)
    pairs = GitHistoryProvider(str(tmp_path)).commit_pairs()
    assert counter.started == []  # nothing runs before the first pair
    first = next(pairs)
    assert first.changed_files[0][2] == service_source("started worker")
    assert counter.process.returncode is None  # cat-file serves the rest
    # A consumer that stops early: closing the generator closes both
    # processes' pipes and waits for them.
    pairs.close()
    assert all(p.returncode is not None for p in counter.processes)
    assert all(p.stdout.closed for p in counter.processes)
    assert counter.process.stdin.closed
    assert counter.started == ["log", "cat-file"]


def test_fixture_history_reads_snapshots_as_they_are_consumed(monkeypatch):
    from logfix import mining

    read = []
    snapshot = FixtureHistoryProvider._snapshot

    def recording_snapshot(self, dirname):
        read.append(dirname)
        return snapshot(self, dirname)

    monkeypatch.setattr(mining.FixtureHistoryProvider, "_snapshot",
                        recording_snapshot)
    pairs = FixtureHistoryProvider(str(HISTORY_DIR)).commit_pairs()
    assert next(pairs).commit_id == "typofix"
    assert len(read) == 2  # the base snapshot and the first commit's


def test_git_history_since_limits_the_pairs(tmp_path):
    repo = GitRepo(tmp_path)
    shas = [repo.commit({b"Service.java": service_source(f"step {year}")},
                        date=f"{year}-01-01T00:00:00+00:00")
            for year in (2020, 2021, 2022, 2023)]
    pairs = GitHistoryProvider(str(tmp_path), since="2021-06-01").commit_pairs()
    # the first commit after the cut is mined, diffed against its parent;
    # only the root commit is a bare parent
    assert [(p.commit_id, p.changed_files) for p in pairs] == [
        (shas[2], (("Service.java", service_source("step 2021"),
                    service_source("step 2022")),)),
        (shas[3], (("Service.java", service_source("step 2022"),
                    service_source("step 2023")),))]
    every = GitHistoryProvider(str(tmp_path)).commit_pairs()
    assert [p.commit_id for p in every] == shas[1:]


def test_git_history_since_stops_at_an_old_dated_commit(tmp_path):
    # git's walk stops at the first commit older than the cut, so the
    # commits after it are listed and the ones before it are not, however
    # new their dates
    repo = GitRepo(tmp_path)
    shas = [repo.commit({b"Service.java": service_source(f"step {year}")},
                        date=f"{year}-01-01T00:00:00+00:00")
            for year in (2020, 2021, 2000, 2022, 2023)]
    pairs = GitHistoryProvider(str(tmp_path), since="2010-01-01").commit_pairs()
    assert [(p.commit_id, p.changed_files) for p in pairs] == [
        (shas[3], (("Service.java", service_source("step 2000"),
                    service_source("step 2022")),)),
        (shas[4], (("Service.java", service_source("step 2022"),
                    service_source("step 2023")),))]
    pairs = GitHistoryProvider(str(tmp_path), since="1990-01-01").commit_pairs()
    assert [(p.commit_id, p.changed_files[0][1:]) for p in pairs] == [
        (sha, (service_source(f"step {old}"), service_source(f"step {new}")))
        for sha, old, new in zip(shas[1:], (2020, 2021, 2000, 2022),
                                 (2021, 2000, 2022, 2023))]


def fast_import_history(root, commits: int, files: int = 3) -> None:
    """A repository of `commits` first-parent commits, each rewriting
    `files` Java files, written by one `git fast-import`."""
    stream = []
    for n in range(commits):
        stream.append("commit refs/heads/main\n"
                      f"committer t <t@example.com> {1_600_000_000 + n} +0000\n"
                      "data 0\n")
        for f in range(files):
            text = service_source(f"step {n}", f"n += {f};")  # ASCII
            stream.append(f"M 100644 inline F{f}.java\n"
                          f"data {len(text)}\n{text}\n")
    subprocess.run(["git", "init", "-q", "-b", "main", str(root)], check=True)
    subprocess.run(["git", "-C", str(root), "fast-import", "--quiet"],
                   input="".join(stream).encode("ascii"), check=True)


def test_git_history_memory_does_not_grow_with_history(tmp_path):
    # The provider reads git's output one commit at a time: draining 10
    # times the history must not hold 10 times the memory.
    peaks = []
    for commits in (200, 2000):
        root = tmp_path / str(commits)
        root.mkdir()
        fast_import_history(root, commits)
        tracemalloc.start()
        try:
            drained = sum(1 for _ in GitHistoryProvider(
                str(root)).commit_pairs())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert drained == commits - 1
    small, large = peaks
    assert large < 1.5 * small, peaks


def test_each_file_version_is_parsed_once(tmp_path, monkeypatch):
    from logfix import mining

    repo = GitRepo(tmp_path)
    for message in ("starting worker", "started worker", "worker started",
                    "worker is up"):
        repo.commit({b"Service.java": service_source(message)})
    pairs = GitHistoryProvider(str(tmp_path)).commit_pairs()
    parsed = []

    def counting_extract_file(source, path, *args):
        parsed.append(source)
        return extract_file(source, path, *args)

    monkeypatch.setattr(mining, "extract_file", counting_extract_file)
    changes = extract_lccs(pairs, None, "proj")
    assert [c.after.raw_text for c in changes] == [
        'log.info("started worker");', 'log.info("worker started");',
        'log.info("worker is up");']
    # Each commit's "before" side is the previous commit's "after" side.
    assert len(parsed) == 4
    assert len(set(parsed)) == 4


def code_edits(touches):
    """One commit per (path, k) of `touches`: the k-th edit of that file,
    which changes a code line and no logging statement, so nothing is
    mined."""
    for n, (path, k) in enumerate(touches):
        yield CommitSnapshotPair(f"c{n}", ((
            path, service_source("tick", f"n += {k};"),
            service_source("tick", f"n += {k + 1};")),))


def test_the_parse_cache_keeps_the_recently_touched_paths(monkeypatch):
    from logfix import mining

    parsed = []

    def counting_extract_file(source, path, *args):
        parsed.append(path)
        return extract_file(source, path, *args)

    monkeypatch.setattr(mining, "extract_file", counting_extract_file)
    cap = mining.PARSE_CACHE_PATHS
    others = [f"F{i}.java" for i in range(1, cap + 1)]
    # F0 is touched again while the cache is full, so F{cap} evicts F1
    # and the last F0 still starts from its parse
    paths = ["F0.java", *others[:-1], "F0.java", others[-1], "F0.java",
             "F1.java"]
    touches = [(path, paths[:i].count(path)) for i, path in enumerate(paths)]
    assert extract_lccs(code_edits(touches), None, "proj") == []
    assert parsed.count("F0.java") == 4  # both sides once, then "after"s
    assert parsed.count("F1.java") == 4  # evicted: both sides twice
    assert len(parsed) == 2 * (cap + 2) + 2


def test_the_parse_cache_does_not_grow_with_the_files_touched():
    # each commit edits a file no earlier commit touched
    peaks = []
    for files in (250, 1000):
        touches = ((f"pkg{n}/Service.java", 0) for n in range(files))
        tracemalloc.start()
        try:
            assert extract_lccs(code_edits(touches), None, "proj") == []
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # without the cap the peak grows about fourfold (0.45 -> 1.7 MB);
    # with it, only the garbage awaiting collection moves it
    small, large = peaks
    assert large < 2 * small, peaks


def test_a_git_history_and_its_snapshot_export_mine_the_same_way(tmp_path,
                                                                 caplog):
    # Each commit is exported with `git archive` into an unpadded
    # <n>_<sha> directory. Symlinks and gitlinks (submodules) have no
    # snapshot equivalent, so the history holds neither.
    root = tmp_path / "git"
    root.mkdir()
    repo = GitRepo(root)

    def commit(files: dict[bytes, str | bytes], drop: str = "") -> str:
        if drop:
            (root / drop).unlink()
        return repo.commit(files)

    def src(message: str, code: str = "n += 1;", newline: str = "\n") -> str:
        return service_source(message, code).replace("\n", newline)

    shas = [
        commit({b"Service.java": src("starting worker"),
                b"Worker.java": src("opening lease"), b"notes.txt": "a\n"}),
        commit({b"Service.java": src("started worker")}),  # log only
        commit({b"Service.java": src("started worker", "n += 2;")}),  # code
        commit({b"notes.txt": "b\n"}),  # non-source text
        commit({b"logo.png": b"\x89PNG\r\n\x1a\n\xff\x00"}),  # binary asset
        commit({b"Legacy.java": "// Gr\u00f6\u00dfe\n".encode("latin-1")}),
        commit({b"Caf\xe9.java": src("opening cafe")}),  # non-UTF-8 name
        commit({b"Worker.java": src("opened lease", newline="\r\n")}),
        commit({b"notes.txt": "b\r\n",
                b"Service.java": src("worker started", "n += 2;")}),
        commit({b"Lease.java": src("granting lease")}, drop="Worker.java"),
        commit({}),  # empty
    ]
    os.chmod(root / "Service.java", 0o755)  # a mode change beside a log edit
    shas.append(commit({b"Lease.java": src("granted lease")}))
    shas.append(commit({b"Lease.java": src("lease granted")}))
    snapshots = tmp_path / "snapshots"
    for n, sha in enumerate(shas):
        archive = subprocess.run(
            ["git", "-C", str(root), "-c", "core.autocrlf=false", "archive",
             sha], capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(snapshots / f"{n}_{sha}", filter="data")

    def mined(provider):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="logfix.mining"):
            pairs = list(provider.commit_pairs())
        # git lists a mode change, which a snapshot cannot show
        changed = [(p.commit_id, tuple(f for f in p.changed_files
                                       if f[1] != f[2])) for p in pairs]
        return (changed, [r.getMessage() for r in caplog.records],
                extract_lccs(pairs, None, "proj"))

    git_pairs, git_warnings, git_changes = mined(
        GitHistoryProvider(str(root)))
    assert mined(FixtureHistoryProvider(str(snapshots))) == (
        git_pairs, git_warnings, git_changes)
    assert git_warnings == [
        f"commit {shas[5]}: Legacy.java is not UTF-8 text, commit skipped",
        f"commit {shas[6]}: Caf\\xe9.java is not UTF-8 text, commit skipped"]
    assert [c.commit_id for c in git_changes] == [
        shas[1], shas[7], shas[11], shas[12]]


# ---------------------------------------------------------------------------
# LCC extraction
# ---------------------------------------------------------------------------
def java(*body_lines: str) -> str:
    body = "\n".join(f"        {line}" for line in body_lines)
    return (
        "class Service {\n"
        "    void act(int n) {\n"
        f"{body}\n"
        "    }\n"
        "}\n"
    )


def pair_of(commit: str, before: str, after: str,
            path: str = "Service.java") -> CommitSnapshotPair:
    return CommitSnapshotPair(commit_id=commit,
                              changed_files=((path, before, after),))


def test_extract_lccs_accepts_pure_log_text_change():
    before = java('log.info("starting worker");')
    after = java('log.info("started worker");')
    changes = extract_lccs([pair_of("c1", before, after)], None, "proj")
    assert len(changes) == 1
    change = changes[0]
    assert change.project_id == "proj"
    assert change.commit_id == "c1"
    assert change.before.raw_text == 'log.info("starting worker");'
    assert change.after.raw_text == 'log.info("started worker");'
    # the stored context is the after-version method
    assert 'log.info("started worker");' in change.context.source_text


def test_extract_lccs_rejects_non_source_files():
    before = java('log.info("starting worker");')
    after = java('log.info("started worker");')
    pair = CommitSnapshotPair(
        commit_id="c2",
        changed_files=(("Service.java", before, after),
                       ("notes.txt", "a\n", "b\n")))
    assert extract_lccs([pair], None, "proj") == []


@pytest.mark.parametrize("order", [1, -1])
def test_a_non_source_change_rejects_the_commit_before_parsing(monkeypatch,
                                                               order):
    from logfix import mining

    first = java('log.info("starting worker");')
    second = java('log.info("started worker");')
    third = java('log.info("worker started");')
    mixed = CommitSnapshotPair(
        commit_id="c2",
        changed_files=(("Service.java", first, second),
                       ("notes.txt", "a\n", "b\n"))[::order])
    parsed = []

    def counting_extract_file(source, path, *args):
        parsed.append(path)
        return extract_file(source, path, *args)

    monkeypatch.setattr(mining, "extract_file", counting_extract_file)
    assert extract_lccs([mixed], None, "proj") == []
    assert parsed == []
    # The next commit to the file is mined as it was when the mixed commit
    # was parsed before its rejection.
    changes = extract_lccs([mixed, pair_of("c3", second, third)], None, "proj")
    assert [(c.commit_id, c.before.raw_text, c.after.raw_text)
            for c in changes] == [
        ("c3", 'log.info("started worker");', 'log.info("worker started");')]
    assert parsed == ["Service.java", "Service.java"]


def test_a_method_over_the_line_cap_rejects_the_commit():
    before = java('log.info("starting worker");')
    after = java('log.info("started worker");')
    # the method spans three lines
    assert len(extract_lccs([pair_of("c1", before, after)],
                            ParserConfig(max_method_lines=3), "proj")) == 1
    assert extract_lccs([pair_of("c1", before, after)],
                        ParserConfig(max_method_lines=2), "proj") == []


def test_extract_lccs_rejects_code_line_changes():
    before = java("int x = 1;", 'log.info("starting worker");')
    after = java("int x = 2;", 'log.info("started worker");')
    assert extract_lccs([pair_of("c3", before, after)], None, "proj") == []


def test_extract_lccs_rejects_a_code_line_inserted_by_a_log_edit():
    # The statements still match one to one, and the only replaced line of
    # the old version is a logging line: only the new version's inserted
    # code line rejects the commit.
    before = java('log.info("starting worker");')
    after = java("n += 1;", 'log.info("started worker");')
    assert extract_lccs([pair_of("c3", before, after)], None, "proj") == []
    # the same log edit without the code line is mined
    assert len(extract_lccs([pair_of("c3", before,
                                     java('log.info("started worker");'))],
                            None, "proj")) == 1


def test_extract_lccs_rejects_statement_deletion():
    before = java('log.info("one");', 'log.info("two");')
    after = java('log.info("one");')
    assert extract_lccs([pair_of("c4", before, after)], None, "proj") == []


def test_extract_lccs_rejects_statement_addition():
    before = java('log.info("one");')
    after = java('log.info("one");', 'log.info("two");')
    assert extract_lccs([pair_of("c5", before, after)], None, "proj") == []


def test_extract_lccs_ignores_whitespace_only_restyling():
    before = java('log.info("msg {}",  n);')
    after = java('log.info("msg {}", n);')
    assert extract_lccs([pair_of("c6", before, after)], None, "proj") == []


def test_extract_lccs_multiple_statement_edits_in_one_commit():
    before = java('log.info("opening lease");', 'log.warn("lease busy");')
    after = java('log.info("opened lease");', 'log.warn("lease blocked");')
    changes = extract_lccs([pair_of("c7", before, after)], None, "proj")
    assert len(changes) == 2
    texts = {(c.before.raw_text, c.after.raw_text) for c in changes}
    assert texts == {
        ('log.info("opening lease");', 'log.info("opened lease");'),
        ('log.warn("lease busy");', 'log.warn("lease blocked");'),
    }


def test_extract_lccs_change_ids_are_distinct():
    before = java('log.info("opening lease");', 'log.warn("lease busy");')
    after = java('log.info("opened lease");', 'log.warn("lease blocked");')
    changes = extract_lccs([pair_of("c8", before, after)], None, "proj")
    assert len({c.change_id for c in changes}) == len(changes)


def test_extract_lccs_on_bundled_history():
    pairs = FixtureHistoryProvider(str(HISTORY_DIR)).commit_pairs()
    changes = extract_lccs(pairs, None, "binding")
    assert [(c.commit_id, c.before.raw_text, c.after.raw_text)
            for c in changes] == [
        ("typofix",
         'logger.debug("Intellflo received refresh command");',
         'logger.debug("IntelliFlo received refresh command");'),
        ("tensefix",
         'logger.debug("Receiver thread started");',
         'logger.debug("Starting receiver thread");'),
    ]


def run_method(message: str, comment: str = "", literal: str = "") -> str:
    """A method whose log call sits on line 5, two lines below a comment."""
    return ("class Runner {\n"
            "    void run(int n) {\n"
            f"        // next: the run{comment}\n"
            f'        String tag = "run{literal}";\n'
            f'        log.info("{message} run {{}}", n);\n'
            "    }\n"
            "}\n")


@pytest.mark.parametrize("where, odd", [
    ("comment", "\f"), ("literal", "\v"), ("literal", "\x85"),
    ("comment", "\u2028"), ("literal", "\u2028"),
], ids=["form-feed", "vertical-tab", "nel", "ls-comment", "ls-literal"])
def test_diff_lines_counts_lines_as_the_parser_does(where, odd):
    # Java ends lines at \n (and \r, which decoding already turned into
    # \n); str.splitlines also ends them at \f, \v, \x85 and U+2028, which
    # put the log edit one line below where the parser found the call
    kwargs = {where: odd}
    before = run_method("starting", **kwargs)
    after = run_method("started", **kwargs)
    assert diff_lines(before, after) == ({5}, {5})
    [change] = extract_lccs([pair_of("c1", before, after, "Runner.java")],
                            None, "proj")
    assert change.after.raw_text == 'log.info("started run {}", n);'
