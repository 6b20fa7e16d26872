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

def diff_lines(before: str, after: str) -> tuple[set[int], set[int]]:
    """The 1-based numbers of the lines of `before` that are deleted or
    replaced, and of the lines of `after` that are inserted or replacing."""
    sm = difflib.SequenceMatcher(None, before.splitlines(), after.splitlines(),
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


def _skip_warning(commit: str, path: str, reason: str) -> None:
    log.warning("commit %s: %s %s, commit skipped", commit, path, reason)


def _has_non_source(commit: str, paths: Iterable[str]) -> bool:
    """Whether a changed path is not a source file: such a commit changes
    more than logging text. The first such path is logged."""
    path = next((p for p in paths if not p.endswith(SOURCE_SUFFIXES)), None)
    if path is not None:
        log.debug("commit %s: non-source change %s", commit, path)
    return path is not None


class _MissingBlob(Exception):
    """`git cat-file --batch` has no content for a requested object."""


def _raw_commits(stream) -> Iterator[tuple[str, list[tuple[bytes, ...]]]]:
    """Each commit's id and its (status, old id, new id, path) records, one
    commit at a time, from the `log -z --raw --pretty=%H` output on `stream`:
    a commit id heads its records, each a `:<modes> <old> <new> <status>`
    field (the first after a newline) and a path, all NUL-separated."""
    def nul_fields():
        rest = b""
        for block in iter(lambda: stream.read(1 << 13), b""):
            *fields, rest = (rest + block).split(b"\0")
            yield from fields

    fields = nul_fields()
    commit, records = None, []
    for field in fields:
        if field.lstrip(b"\n").startswith(b":"):
            _, _, old, new, status = field.split(b" ")
            records.append((status, old, new, next(fields)))
        elif field:
            if commit is not None:
                yield commit, records
            commit, records = field.decode("ascii"), []
    if commit is not None:
        yield commit, records


def _read_blob(cat_file: subprocess.Popen, oid: bytes) -> str:
    """One object's decoded content through a running `cat-file --batch`."""
    cat_file.stdin.write(oid + b"\n")
    cat_file.stdin.flush()
    header = cat_file.stdout.readline()  # "<oid> <type> <size>\n"
    if not header:
        raise OSError("git cat-file --batch ended early")
    if header.endswith(b" missing\n"):
        raise _MissingBlob
    size = int(header.split()[2])
    return decode_source(cat_file.stdout.read(size + 1)[:size])


class GitHistoryProvider:
    """Walks the first-parent chain of a local git repository via the git CLI.

    Two git processes serve the whole history, however long: one `log`
    lists the first-parent commits with each one's `--raw` diff against its
    first parent, read through a pipe one commit at a time, and one
    `cat-file --batch` reads the changed files by object id. The oldest
    listed commit is only a parent. With `since`, git stops its walk at the
    first commit older than the cut, so the listed commits are an unbroken
    run. Paths are read verbatim (`-z`), file contents are decoded by
    `decode_source`. A commit that changes a file outside SOURCE_SUFFIXES
    is decided from git's records, before any file is read: it comes with
    no files. A commit with a changed file whose name or content is not
    UTF-8 text, or whose content git cannot show, is left out of the pairs
    with a warning that names the commit and the path. A failing `log`
    raises OSError with git's last line of error.
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
                   "--no-renames", "--raw", "--no-abbrev", "--pretty=%H"]
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
            commits = _raw_commits(git_log.stdout)
            next(commits, None)  # the oldest listed commit is only a parent
            for child, records in commits:
                # decided before any file is read: a record whose ids are
                # equal changes only a mode
                if _has_non_source(child, (
                        raw_path.decode("utf-8", "backslashreplace")
                        for _, old, new, raw_path in records if old != new)):
                    yield CommitSnapshotPair(child, ())
                    continue
                files: list[ChangedFile] = []
                for status, old, new, raw_path in records:
                    shown = raw_path.decode("utf-8", "backslashreplace")
                    try:
                        path = raw_path.decode("utf-8")
                        before = (_read_blob(cat_file, old)
                                  if status != b"A" else "")
                        after = (_read_blob(cat_file, new)
                                 if status != b"D" else "")
                    except UnicodeDecodeError:
                        _skip_warning(child, shown, "is not UTF-8 text")
                        break
                    except _MissingBlob:
                        log.warning("commit %s: git cannot show %s (missing), "
                                    "commit skipped", child, shown)
                        break
                    files.append((path, before, after))
                else:
                    yield CommitSnapshotPair(child, tuple(files))
            if git_log.wait():  # git's last line of error says why
                log_errors.seek(0)
                reason = log_errors.read().decode("utf-8", "replace").strip()
                raise OSError(reason.rpartition("\n")[2] or
                              f"git log exited with {git_log.returncode}")


class FixtureHistoryProvider:
    """Reads history/<seq>_<commitid>/<files...> snapshot directories.

    Each directory is a full tree; consecutive directories (sorted by name)
    form the commit pairs. The part after the first underscore is the commit
    id. Files are decoded by `decode_source`; a commit that changes a file
    whose name or content is not UTF-8 text, or that cannot be read (a
    dangling link, say), is left out of the pairs with a warning that names
    the commit and the path.
    """

    def __init__(self, history_dir: str):
        self.history_dir = history_dir

    def _snapshot(self, dirname: str) -> dict[str, str | tuple[str, bytes]]:
        """Path -> decoded text, or, for a file that is not text, why (as a
        warning ends) and its bytes, so that two versions of it compare as
        their bytes do."""
        root = os.path.join(self.history_dir, dirname)
        tree: dict[str, str | tuple[str, bytes]] = {}
        for base, _, names in os.walk(root):
            for name in names:
                full = os.path.join(base, name)
                rel = os.path.relpath(full, root).replace(os.sep, "/")
                try:
                    with open(full, "rb") as fh:
                        data = fh.read()
                    rel.encode("utf-8")  # fails on an undecodable name
                    tree[rel] = decode_source(data)
                except OSError as exc:
                    tree[rel] = (f"cannot be read ({exc.strerror})", b"")
                except UnicodeError:
                    tree[rel] = ("is not UTF-8 text", data)
        return tree

    def commit_pairs(self) -> Iterator[CommitSnapshotPair]:
        """Consecutive snapshots as commit pairs, one at a time."""
        dirs = sorted(
            d for d in os.listdir(self.history_dir)
            if os.path.isdir(os.path.join(self.history_dir, d)) and "_" in d)
        # each tree is read once: the newer side of one pair is the older
        # side of the next
        trees = map(self._snapshot, dirs)
        before_tree = next(trees, {})
        for cur, after_tree in zip(dirs[1:], trees):
            commit_id = cur.split("_", 1)[1]
            changed: list[ChangedFile] = []
            for path in sorted(set(before_tree) | set(after_tree)):
                b = before_tree.get(path, "")
                a = after_tree.get(path, "")
                if b == a:
                    continue
                unusable = next((v for v in (a, b) if isinstance(v, tuple)),
                                None)
                if unusable is not None:
                    _skip_warning(commit_id, os.fsencode(path).decode(
                        "utf-8", "backslashreplace"), unusable[0])
                    break
                changed.append((path, b, a))
            else:
                yield CommitSnapshotPair(commit_id, tuple(changed))
            before_tree = after_tree


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
