"""Line diffing, history providers, and the extraction of pure
logging-text changes from commit history."""

from logfix.mining import (
    ChangeKind,
    CommitSnapshotPair,
    FixtureHistoryProvider,
    diff_lines,
    extract_lccs,
)

from conftest import HISTORY_DIR


# ---------------------------------------------------------------------------
# Line diffs
# ---------------------------------------------------------------------------
def test_diff_lines_modify_from_replace():
    assert diff_lines("a\nb\nc\n", "a\nB\nc\n") == [(ChangeKind.MODIFY, 2, 2)]


def test_diff_lines_pure_delete_and_add():
    assert diff_lines("a\nb\n", "a\n") == [(ChangeKind.DELETE, 2, None)]
    assert diff_lines("a\n", "a\nb\n") == [(ChangeKind.ADD, None, 2)]


def test_diff_lines_replace_with_surplus():
    edits = diff_lines("a\nx\ny\n", "a\nz\n")
    assert edits == [(ChangeKind.MODIFY, 2, 2), (ChangeKind.DELETE, 3, None)]


def test_diff_lines_identical_inputs():
    assert diff_lines("a\nb\n", "a\nb\n") == []


# ---------------------------------------------------------------------------
# Fixture history provider
# ---------------------------------------------------------------------------
def test_fixture_history_pairs_are_ordered_and_named():
    pairs = FixtureHistoryProvider(str(HISTORY_DIR)).commit_pairs()
    assert [p.commit_id for p in pairs] == [
        "typofix", "mixedfix", "logdrop", "logadd", "tensefix"]
    assert [p.parent_id for p in pairs] == [
        "base", "typofix", "mixedfix", "logdrop", "logadd"]
    for pair in pairs:
        assert pair.changed_files, pair.commit_id
        for path, before, after in pair.changed_files:
            assert before != after


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
    return CommitSnapshotPair(commit_id=commit, parent_id=f"{commit}^",
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
        commit_id="c2", parent_id="c2^",
        changed_files=(("Service.java", before, after),
                       ("notes.txt", "a\n", "b\n")))
    assert extract_lccs([pair], None, "proj") == []


def test_extract_lccs_rejects_code_line_changes():
    before = java("int x = 1;", 'log.info("starting worker");')
    after = java("int x = 2;", 'log.info("started worker");')
    assert extract_lccs([pair_of("c3", before, after)], None, "proj") == []


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
