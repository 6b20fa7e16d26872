"""A hostile Java source tree, written at test time from a seed.

The tree holds what real checkouts hold and a parser trips on: a byte
order mark, CRLF and lone-CR line ends, a form feed in a comment, U+2028
inside a string literal, non-ASCII, tab and quote file names, an empty
file, a binary file, a dangling symlink, a file name that is not UTF-8,
and a method longer than a line cap. Nothing binary is committed.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass, field
from pathlib import Path

LEVELS = ("trace", "debug", "info", "warn", "error")
VERBS = ("opening", "closing", "granting", "renewing", "flushing", "loading",
         "parsing", "sending", "polling", "draining", "sealing", "pruning")
NOUNS = ("lease", "cache", "socket", "ledger", "queue", "snapshot", "batch",
         "journal", "token", "segment", "index", "shard")


@dataclass
class HostileTree:
    root: Path
    line_cap: int
    # every log message the tree holds where `extract` should find it
    messages: set[str] = field(default_factory=set)
    # the notes `extract` prints for what it skips, in walk order
    notes: list[str] = field(default_factory=list)


class _Writer:
    def __init__(self, root: Path, seed: int, line_cap: int) -> None:
        self.rng = random.Random(seed)
        pairs = list(itertools.product(VERBS, NOUNS))
        self.rng.shuffle(pairs)
        self.messages = (f"{verb} {noun}" for verb, noun in pairs)
        self.tree = HostileTree(root, line_cap)

    def method(self, name: str, lines: int = 0, before_log: str = "",
               message: str = "", kept: bool = True) -> str:
        """A method of `lines` lines (at least 4) with one log call, which
        `before_log` precedes."""
        message = message or next(self.messages)
        if kept:
            self.tree.messages.add(message)
        filler = [f"        n += {self.rng.randrange(1, 100)};"
                  for _ in range(max(0, lines - 4))]
        level = self.rng.choice(LEVELS)
        return "\n".join([
            f"    void {name}(int n) {{",
            *filler,
            f"        {before_log}" if before_log else "        n -= 1;",
            f'        log.{level}("{message} {{}}", n);',
            "    }"]) + "\n"

    def source(self, cls: str, *methods: str) -> str:
        return f"class {cls} {{\n" + "\n".join(methods) + "}\n"

    def write(self, name: str | bytes, data: bytes) -> None:
        path = os.path.join(os.fsencode(self.tree.root), os.fsencode(name))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(data)


def write_hostile_tree(root: Path, seed: int = 0,
                       line_cap: int = 12) -> HostileTree:
    w = _Writer(root, seed, line_cap)
    w.write("Bom.java", b"\xef\xbb\xbf" + w.source(
        "Bom", w.method("open"), w.method("close")).encode())
    w.write("Crlf.java", w.source(
        "Crlf", w.method("open", 6), w.method("close")
    ).replace("\n", "\r\n").encode())
    w.write("LoneCr.java", w.source(
        "LoneCr", w.method("open"), w.method("close", 7)
    ).replace("\n", "\r").encode())
    w.write("FormFeed.java", w.source(
        "FormFeed", w.method("open", 5, "// page one\f ends here"),
        w.method("close")).encode())
    w.write("LineSep.java", w.source(
        "LineSep", w.method("open", 5, 'String tag = "a\u2028b";'),
        w.method("close", message="line\u2028separated")).encode())
    for name, cls in (("Café.java", "Cafe"), ("pkg/Tab\tName.java", "TabName"),
                      ("pkg/Quote\"d'.java", "Quoted")):
        w.write(name, w.source(cls, w.method("act")).encode())
    w.write("Empty.java", b"")
    w.write("Binary.java", bytes(w.rng.randrange(128, 256) for _ in range(64))
            + b"\x00\xff")
    w.tree.notes.append("extract: Binary.java: not UTF-8 text, file skipped")
    os.symlink("gone/Nowhere.java", root / "Dangling.java")
    w.tree.notes.append("extract: Dangling.java: cannot be read "
                        "(No such file or directory), file skipped")
    w.write(b"Latin\xe9.java",
            w.source("Latin", w.method("old", kept=False)).encode())
    w.tree.notes.append("extract: Latin\\xe9.java: not UTF-8 text, "
                        "file skipped")
    w.write("Long.java", w.source(
        "Long", w.method("brief", line_cap),
        w.method("sprawl", line_cap + 1, kept=False)).encode())
    w.tree.notes.append(
        f"extract: Long.java:{line_cap + 3}: method sprawl has "
        f"{line_cap + 1} lines, over the line cap of {line_cap}; skipped")
    return w.tree
