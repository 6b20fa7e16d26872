"""Mining log-centric changes (LCCs) from project history.

A log-centric change is a commit whose every changed line falls inside a
recognized logging statement, with no statements added or removed: the
before/after statements match one-to-one by (method qualified name, method
occurrence, statement ordinal). Each differing matched pair becomes one
LogCentricChange carrying the after-version method context.

Two history providers feed the extractor: a git adapter that shells out to
the git CLI, and a fixture provider reading a directory layout of full
snapshots (history/<seq>_<commitid>/<files...>), which is what tests use.

The paper mines established, active, popular repositories: 1,000 to 100,000
commits, more than 1,000 stars, created by 2019-12-31, committed to since
2023-01-01, and not forks. Company-initiated repositories with an issue
tracker and a license count as well maintained, and their logging
statements are trusted as clean (NON_DEFECT) corpus material. Choosing the
repositories happens before mining; nothing here filters them.
"""

from __future__ import annotations

import difflib
import logging
import os
import subprocess
import tempfile
from dataclasses import dataclass
from typing import Iterable, Iterator

from logfix.model import LogCentricChange, MethodContext
from logfix.parser import (
    ExtractionResult,
    ParserConfig,
    decode_source,
    extract_file,
)

log = logging.getLogger(__name__)

SOURCE_SUFFIXES = (".java",)


# ---------------------------------------------------------------------------
# Line diffing
# ---------------------------------------------------------------------------

def _lines(text: str) -> list[str]:
    """`text` split at "\\n", less the empty piece after a final newline."""
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def diff_lines(before: str, after: str) -> tuple[set[int], set[int]]:
    """The 1-based numbers of the lines of `before` that are deleted or
    replaced, and of the lines of `after` that are inserted or replacing.
    Lines end at "\\n" only, as the parser counts them (a form feed or
    U+2028 does not end a Java line)."""
    sm = difflib.SequenceMatcher(None, _lines(before), _lines(after),
                                 autojunk=False)
    deleted: set[int] = set()
    inserted: set[int] = set()
    for tag, i1, i2, j1, j2 in sm.get_opcodes():
        if tag != "equal":
            deleted.update(range(i1 + 1, i2 + 1))
            inserted.update(range(j1 + 1, j2 + 1))
    return deleted, inserted


# ---------------------------------------------------------------------------
# History providers
# ---------------------------------------------------------------------------

ChangedFile = tuple[str, str, str]  # path, before_text, after_text


@dataclass(frozen=True)
class CommitSnapshotPair:
    commit_id: str
    changed_files: tuple[ChangedFile, ...]


def _has_non_source(commit: str, paths: Iterable[str]) -> bool:
    """Whether a changed path is not a source file: such a commit changes
    more than logging text. The first such path is logged."""
    path = next((p for p in paths if not p.endswith(SOURCE_SUFFIXES)), None)
    if path is not None:
        log.debug("commit %s: non-source change %s", commit, path)
    return path is not None


class _Unavailable(Exception):
    """A changed file's content cannot be had. Its two args are what the
    skip warning says before the file's path and after it."""


def _commit_pairs(commits, read) -> Iterator[CommitSnapshotPair]:
    """Admits commits from their ids and (status, before, after, raw path)
    records. A commit that changes a path outside SOURCE_SUFFIXES is decided
    before anything is read and comes with no files; a record whose sides
    are equal changes only a mode and does not count. Other sides are read
    by `read` (bytes, or _Unavailable) and decoded by `decode_source`; a
    changed file whose name or content is not UTF-8 text, or that cannot be
    had, leaves its commit out with a warning naming commit and path."""
    for commit, records in commits:
        if _has_non_source(commit, (
                raw_path.decode("utf-8", "backslashreplace")
                for _, before, after, raw_path in records if before != after)):
            yield CommitSnapshotPair(commit, ())
            continue
        files: list[ChangedFile] = []
        for status, before, after, raw_path in records:
            try:
                files.append((
                    raw_path.decode("utf-8"),
                    decode_source(read(before)) if status != b"A" else "",
                    decode_source(read(after)) if status != b"D" else ""))
            except (UnicodeDecodeError, _Unavailable) as exc:
                lead, why = (exc.args if isinstance(exc, _Unavailable)
                             else ("", "is not UTF-8 text"))
                log.warning("commit %s: %s%s %s, commit skipped", commit, lead,
                            raw_path.decode("utf-8", "backslashreplace"), why)
                break
        else:
            yield CommitSnapshotPair(commit, tuple(files))


def _raw_commits(stream) -> Iterator[tuple[str, list[tuple[bytes, ...]]]]:
    """Each commit's id and its (status, old id, new id, path) records, one
    commit at a time, from the `log -z --raw --pretty=%H %P` output on
    `stream`: a commit id and its parents' ids head its records, each a
    `:<modes> <old> <new> <status>` field (the first after a newline) and a
    path, all NUL-separated. The root commit, only a parent, is left out."""
    def nul_fields():
        rest = b""
        for block in iter(lambda: stream.read(1 << 13), b""):
            *fields, rest = (rest + block).split(b"\0")
            yield from fields

    fields = nul_fields()
    commit, parents, records = "", "", []
    for field in fields:
        if field.lstrip(b"\n").startswith(b":"):
            _, _, old, new, status = field.split(b" ")
            records.append((status, old, new, next(fields)))
        elif field:
            if parents:
                yield commit, records
            commit, _, parents = field.decode("ascii").partition(" ")
            records = []
    if parents:
        yield commit, records


def _read_blob(cat_file: subprocess.Popen, oid: bytes) -> bytes:
    """One object's content through a running `cat-file --batch`."""
    cat_file.stdin.write(oid + b"\n")
    cat_file.stdin.flush()
    header = cat_file.stdout.readline()  # "<oid> <type> <size>\n"
    if not header:
        raise OSError("git cat-file --batch ended early")
    if header.endswith(b" missing\n"):
        raise _Unavailable("git cannot show ", "(missing)")
    size = int(header.split()[2])
    return cat_file.stdout.read(size + 1)[:size]


class GitHistoryProvider:
    """Walks the first-parent chain of a local git repository via the git CLI.

    Two git processes serve the whole history, however long: one `log`
    lists the first-parent commits with each one's `--raw` diff against its
    first parent, read through a pipe one commit at a time, and one
    `cat-file --batch` reads the changed files by object id. The root
    commit is only a parent; with `since`, git stops its walk at the first
    commit older than the cut. Paths are read verbatim (`-z`). A failing
    `log` raises OSError with git's last line of error.
    """

    def __init__(self, repo_path: str, since: str | None = None):
        self.repo_path = repo_path
        self.since = since

    def commit_pairs(self) -> Iterator[CommitSnapshotPair]:
        """The first-parent commits oldest first, each with its changed files,
        one at a time: only the pair being read holds file texts. git runs
        when the first pair is asked for."""
        git = ["git", "-C", self.repo_path]
        log_cmd = [*git, "log", "--reverse", "--first-parent", "-z", "-r",
                   "--no-renames", "--raw", "--no-abbrev", "--pretty=%H %P"]
        if self.since:
            log_cmd.append(f"--since={self.since}")
        pipe = subprocess.PIPE
        # leaving the block closes the pipes and waits for both processes,
        # also when reading fails or the consumer stops early; git log's
        # errors go to a file, as a pipe left unread could fill and stall git
        with tempfile.TemporaryFile() as log_errors, \
                subprocess.Popen(log_cmd, stdout=pipe,
                                 stderr=log_errors) as git_log, \
                subprocess.Popen([*git, "cat-file", "--batch"], stdin=pipe,
                                 stdout=pipe,
                                 stderr=subprocess.DEVNULL) as cat_file:
            yield from _commit_pairs(_raw_commits(git_log.stdout),
                                     lambda oid: _read_blob(cat_file, oid))
            if git_log.wait():  # git's last line of error says why
                log_errors.seek(0)
                reason = log_errors.read().decode("utf-8", "replace").strip()
                raise OSError(reason.rpartition("\n")[2] or
                              f"git log exited with {git_log.returncode}")


def _snapshot_bytes(side: bytes | str) -> bytes:
    """A snapshot file's bytes, or _Unavailable with why it has none."""
    if isinstance(side, str):
        raise _Unavailable("", side)
    return side


class FixtureHistoryProvider:
    """Reads history/<seq>_<commitid>/<files...> snapshot directories.

    Each directory is a full tree; consecutive directories, ordered by
    their integer <seq> (ValueError if it is not one) and then by name,
    form the commit pairs. The part after the first underscore is the
    commit id. A file counts as changed when its bytes changed.
    """

    def __init__(self, history_dir: str):
        self.history_dir = history_dir

    def _snapshot(self, dirname: str) -> dict[bytes, bytes | str]:
        """Raw path -> the file's bytes, or why it cannot be read."""
        root = os.path.join(self.history_dir, dirname)
        tree: dict[bytes, bytes | str] = {}
        for base, _, names in os.walk(root):
            for name in names:
                full = os.path.join(base, name)
                raw = os.fsencode(
                    os.path.relpath(full, root).replace(os.sep, "/"))
                try:
                    with open(full, "rb") as fh:
                        tree[raw] = fh.read()
                except OSError as exc:
                    tree[raw] = f"cannot be read ({exc.strerror})"
        return tree

    def _commits(self) -> Iterator[tuple[str, list[tuple]]]:
        """Each snapshot after the first, with its records against the last."""
        home = self.history_dir
        dirs = [d for d in os.listdir(home)
                if os.path.isdir(os.path.join(home, d)) and "_" in d]
        for d in dirs:
            if not d.split("_")[0].isdecimal():
                raise ValueError(f"snapshot directory {d!r}: its <seq> is "
                                 "not an integer")
        dirs.sort(key=lambda d: (int(d.split("_")[0]), d))
        # each tree is read once: the newer side of one pair is the older
        # side of the next
        trees = map(self._snapshot, dirs)
        before = next(trees, {})
        for cur, after in zip(dirs[1:], trees):
            yield cur.split("_", 1)[1], [
                (b"A" if old is None else b"D" if new is None else b"M",
                 old, new, raw)
                for raw in sorted(before.keys() | after.keys())
                for old, new in [(before.get(raw), after.get(raw))]
                if old != new]
            before = after

    def commit_pairs(self) -> Iterator[CommitSnapshotPair]:
        """Consecutive snapshots as commit pairs, one at a time."""
        return _commit_pairs(self._commits(), _snapshot_bytes)


# ---------------------------------------------------------------------------
# LCC extraction
# ---------------------------------------------------------------------------

def _normalize_ws(text: str) -> str:
    return " ".join(text.split())


def _statement_index(records) -> dict[tuple[str, int, int], object]:
    """Key statements by (qualified_name, method occurrence, ordinal)."""
    seen: dict[str, int] = {}
    index: dict[tuple[str, int, int], object] = {}
    for ctx, parsed in records:
        occurrence = seen.get(ctx.qualified_name, 0)
        seen[ctx.qualified_name] = occurrence + 1
        for ordinal, ps in enumerate(parsed):
            index[(ctx.qualified_name, occurrence, ordinal)] = (ctx, ps.statement)
    return index


def _covered_lines(records) -> set[int]:
    lines: set[int] = set()
    for _, parsed in records:
        for ps in parsed:
            loc = ps.statement.location
            lines.update(range(loc.start_line, loc.end_line + 1))
    return lines


def extract_lccs(history: Iterable[CommitSnapshotPair],
                 parser_config: ParserConfig | None = None,
                 project_id: str = "") -> list[LogCentricChange]:
    """Filter commits down to pure logging-text modifications.

    A commit qualifies only if every changed line in every changed file lies
    within a recognized logging statement, statements match one-to-one
    between versions, and at least one matched pair differs beyond
    whitespace. Unparseable files disqualify the whole commit, and so does
    a changed file that is not a source file, before any file is parsed.
    """
    parser_config = parser_config or ParserConfig()
    changes: list[LogCentricChange] = []
    # path -> the last "after" version parsed there: usually the next
    # commit that touches the path starts from it (parses are never mutated)
    last_after: dict[str, tuple[str, ExtractionResult]] = {}
    for pair in history:
        changed = [(path, before, after)
                   for path, before, after in pair.changed_files
                   if before != after]
        if _has_non_source(pair.commit_id, (path for path, _, _ in changed)):
            continue
        eligible = True
        pending: list[tuple[MethodContext, object, object]] = []
        for path, before, after in changed:
            text, rb = last_after.get(path, (None, None))
            if text != before:
                rb = extract_file(before, path, parser_config, project_id)
            ra = extract_file(after, path, parser_config, project_id)
            last_after[path] = (after, ra)
            if rb.errors or ra.errors:
                log.debug("commit %s: parse trouble in %s, skipped",
                          pair.commit_id, path)
                eligible = False
                break
            deleted, inserted = diff_lines(before, after)
            if not (deleted <= _covered_lines(rb.records)
                    and inserted <= _covered_lines(ra.records)):
                eligible = False
                break
            b_index = _statement_index(rb.records)
            a_index = _statement_index(ra.records)
            if set(b_index) != set(a_index):
                log.debug("commit %s: statement added or deleted in %s",
                          pair.commit_id, path)
                eligible = False
                break
            for key in sorted(b_index):
                _, b_stmt = b_index[key]
                a_ctx, a_stmt = a_index[key]
                if _normalize_ws(b_stmt.raw_text) != _normalize_ws(a_stmt.raw_text):
                    pending.append((a_ctx, b_stmt, a_stmt))
        if eligible:
            for ctx, b_stmt, a_stmt in pending:
                changes.append(LogCentricChange(
                    project_id=project_id,
                    commit_id=pair.commit_id,
                    before=b_stmt,
                    after=a_stmt,
                    context=ctx,
                ))
    return changes
