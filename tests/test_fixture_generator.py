"""The committed fixtures are exactly what tools/generate_clean_fixtures.py
writes today, so a parser or lexicon edit that would shift them fails here
rather than through the detector's F1 gates."""
from __future__ import annotations

import importlib.util
from pathlib import Path

from conftest import CLEAN_DIR, E2E_DIR, HISTORY_DIR

TOOL = Path(__file__).resolve().parents[1] / "tools" / "generate_clean_fixtures.py"


def tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_generator_reproduces_the_committed_fixtures(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("generate_clean_fixtures",
                                                  TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    committed = {"clean": CLEAN_DIR, "e2e": E2E_DIR, "history": HISTORY_DIR}
    for name in committed:
        monkeypatch.setattr(tool, f"{name.upper()}_DIR", str(tmp_path / name))
    tool.main()
    for name, root in committed.items():
        assert tree(tmp_path / name) == tree(root), name
