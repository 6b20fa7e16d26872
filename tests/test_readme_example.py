"""README's library example runs as written, and every flag README shows
with a subcommand is one that subcommand accepts."""
from __future__ import annotations

import argparse
import re
from pathlib import Path

from conftest import E2E_SRC_DIR, SMALL_CONFIG
from logfix.cli import build_parser
from logfix.detector import save_checkpoint, train
from logfix.model import DefectLabel
from logfix.parser import extract_file

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_one_label_per_statement(
        small_corpus, tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library use\n")[1]
    example = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    model, head, _ = train(small_corpus, SMALL_CONFIG)
    monkeypatch.chdir(tmp_path)
    save_checkpoint("model.json", model, head, SMALL_CONFIG)
    source = (E2E_SRC_DIR / "PipelineCase01.java").read_text(encoding="utf-8")
    exec(example, {"source_text": source})
    statements = [p.statement.raw_text for _, parsed in
                  extract_file(source, "Worker.java").records for p in parsed]
    assert statements
    printed = [line.split(" ", 1)
               for line in capsys.readouterr().out.splitlines()]
    assert [raw for _, raw in printed] == statements
    assert {label for label, _ in printed} <= {str(lb) for lb in DefectLabel}


_FENCE_RE = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)
_INLINE_RE = re.compile(r"`([^`]+)`")
_FLAG_RE = re.compile(r"--[A-Za-z][\w-]*")


def _readme_flag_uses(subcommands) -> list[tuple[str, str, str]]:
    """(subcommand, flag, the word after it) for each flag README's code
    shows with a subcommand. A fenced line `logfix <subcommand> ...` owns
    its flags and those of the comment lines just above it; inline code
    owns its flags when it starts with a subcommand."""
    text = README.read_text(encoding="utf-8")

    def uses(command: str, words: list[str]):
        return [(command, word, (words[i + 1:] or [""])[0])
                for i, word in enumerate(words) if _FLAG_RE.fullmatch(word)]

    found = []
    for block in _FENCE_RE.finditer(text):
        comments: list[str] = []
        for line in block.group(1).splitlines():
            words = line.split()
            if line.lstrip().startswith("#"):
                comments += words
            elif words[:1] == ["logfix"] and len(words) > 1:
                found += uses(words[1], comments + words)
                comments = []
    for span in _INLINE_RE.finditer(_FENCE_RE.sub("", text)):
        words = span.group(1).split()
        if words and words[0] in subcommands:
            found += uses(words[0], words)
    return found


def test_readme_shows_only_flags_its_subcommands_accept():
    [subparsers] = [a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)]
    actions = {name: {flag: action for action in p._actions
                      for flag in action.option_strings}
               for name, p in subparsers.choices.items()}
    found = _readme_flag_uses(actions)
    # the walkthrough alone shows every subcommand
    assert {command for command, _, _ in found} == set(actions)
    wrong = []
    for command, flag, after in found:
        action = actions[command].get(flag)
        if action is None:
            wrong.append(f"{command} {flag}: no such flag")
        elif action.nargs == 0 and after and not after.startswith("-"):
            wrong.append(f"{command} {flag} {after}: takes no value")
    assert wrong == []
