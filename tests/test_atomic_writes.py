"""Every artifact writer replaces its file atomically.

Each writer lands its bytes in a temp file and makes them visible with
one ``os.replace``.  With that replace failing — the moment a process
killed mid-write would stop at — the previous file must survive
byte-identical, with no temp file left beside it.
"""

import os

import pytest

from repro.cli import main
from repro.integrity.snapshot import SimSnapshot
from repro.obs import EventTrace
from repro.obs import report as obs_report
from repro.perf import bench

_PREVIOUS = b'{"previous": "complete file"}\n'


def _metrics_out(path):
    main(["run", "health", "--instructions", "2000", "--metrics",
          "--metrics-out", path])


def _event_trace(path):
    trace = EventTrace()
    trace.emit(3, "demand", "miss", addr=0x1000)
    trace.write_jsonl(path)


def _snapshot(path):
    SimSnapshot(b"payload", cycle=10, records_consumed=5, label="x").save(path)


_WRITERS = {
    # `run --metrics-out`
    "metrics-out": ("metrics.json", _metrics_out),
    # EventTrace.write_jsonl
    "event-trace": ("events.jsonl", _event_trace),
    # obs.report.write_report, both renderings
    "report-markdown": (
        "report.md", lambda path: obs_report.write_report("# Run", path)
    ),
    "report-html": (
        "report.html", lambda path: obs_report.write_report("# Run", path)
    ),
    # perf.bench.write_report
    "bench-report": (
        "BENCH.json", lambda path: bench.write_report({"version": 1}, path)
    ),
    # SimSnapshot.save
    "snapshot": ("point.snap", _snapshot),
}


@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_failed_replace_keeps_previous_file(writer, tmp_path, monkeypatch):
    filename, write = _WRITERS[writer]
    path = tmp_path / filename
    path.write_bytes(_PREVIOUS)

    def refuse(src, dst):
        raise OSError("injected: replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="injected"):
        write(str(path))
    assert path.read_bytes() == _PREVIOUS
    assert sorted(p.name for p in tmp_path.iterdir()) == [filename]
