"""README's library example runs as written."""
from __future__ import annotations

import re
from pathlib import Path

from conftest import E2E_SRC_DIR, SMALL_CONFIG
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
