import pytest

import spans
from spans import SpanRecorder, self_times


def test_self_time_of_nested_tree():
    # root(0..10) -> a(1..4) -> b(2..3); root -> c(5..9); a(11..12)
    # alone.  Listed in the order the spans end, children first.
    tree = [
        (3, 2, "b", 2.0, 3.0),
        (2, 1, "a", 1.0, 4.0),
        (4, 1, "c", 5.0, 9.0),
        (1, 0, "root", 0.0, 10.0),
        (5, 0, "a", 11.0, 12.0),
    ]
    assert self_times(tree) == {"root": 3.0, "a": 3.0, "b": 1.0, "c": 4.0}


def test_recorder_parents_calls_and_scan_records():
    rec = SpanRecorder()

    def inner():
        return list(rec.iterate("scan", (c for c in "xy")))

    assert rec.call("outer", inner, (), {}) == ["x", "y"]
    names = {sid: (parent, name) for sid, parent, name, _, _ in rec.spans()}
    outer = next(sid for sid, (_, name) in names.items() if name == "outer")
    assert names[outer][0] == 0
    # Two records plus the exhausting next(), all children of outer.
    assert [p for p, name in names.values() if name == "scan"] == [outer] * 3
    assert rec.scan_records == 2


def test_install_wraps_and_uninstall_restores():
    from repro.recovery import aries
    from repro.storage.disk import SharedDisk

    before = (SharedDisk.read_page, aries.restart_recovery)
    rec = SpanRecorder()
    done = spans.install(rec)
    try:
        assert SharedDisk.read_page is not before[0]
        assert aries.restart_recovery is not before[1]
    finally:
        spans.uninstall(done)
    assert (SharedDisk.read_page, aries.restart_recovery) == before


def test_renamed_entry_point_fails_loudly(monkeypatch):
    monkeypatch.setattr(spans, "ENTRY_POINTS", spans.ENTRY_POINTS + (
        ("wal", "repro.wal.log_manager", "LogManager", ("no_such_op",)),))
    with pytest.raises(spans.CoverageError, match="no_such_op"):
        spans.install(SpanRecorder())


def test_coverage_guard_names_the_silent_layer():
    counts = {"LogManager.append": 3, "BufferPool.fix": 1}
    with pytest.raises(spans.CoverageError, match="locking"):
        spans.check_coverage("oltp-sd", counts)
