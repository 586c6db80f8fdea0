"""Tests for trace serialization."""

import io
import itertools

import pytest

from repro.trace.io import (
    TraceFormatError,
    load_trace,
    save_trace,
)
from repro.trace.record import InstrKind, TraceRecord
from repro.workloads import get_workload


def _sample_records():
    return [
        TraceRecord(InstrKind.LOAD, 0x1000, addr=0xDEADBEEF, dep1=3),
        TraceRecord(InstrKind.STORE, 0x1004, addr=0x8000, dep2=1),
        TraceRecord(InstrKind.BRANCH, 0x1008, taken=True, dep1=2),
        TraceRecord(InstrKind.BRANCH, 0x100C, taken=False),
        TraceRecord(InstrKind.IALU, 0x1010),
        TraceRecord(InstrKind.IMUL, 0x1014, dep1=1, dep2=2),
        TraceRecord(InstrKind.IDIV, 0x1018),
        TraceRecord(InstrKind.FADD, 0x101C),
        TraceRecord(InstrKind.FMUL, 0x1020),
        TraceRecord(InstrKind.FDIV, 0x1024),
        TraceRecord(InstrKind.NOP, 0x1028),
    ]


class TestRoundTrip:
    def test_stream_round_trip(self):
        buffer = io.StringIO()
        written = save_trace(buffer, _sample_records())
        assert written == len(_sample_records())
        buffer.seek(0)
        assert list(load_trace(buffer)) == _sample_records()

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.txt")
        save_trace(path, _sample_records())
        assert list(load_trace(path)) == _sample_records()

    def test_limit(self):
        buffer = io.StringIO()
        written = save_trace(buffer, _sample_records(), limit=3)
        assert written == 3
        buffer.seek(0)
        assert len(list(load_trace(buffer))) == 3

    def test_workload_round_trip(self, tmp_path):
        path = str(tmp_path / "health.trace")
        original = list(itertools.islice(get_workload("health"), 2000))
        save_trace(path, iter(original))
        assert list(load_trace(path)) == original


class TestErrors:
    def test_bad_header(self):
        buffer = io.StringIO("not a trace\nL 1000 2000 0 0\n")
        with pytest.raises(TraceFormatError):
            list(load_trace(buffer))

    def test_bad_record(self):
        buffer = io.StringIO("# repro-trace v1\nZ 1000\n")
        with pytest.raises(TraceFormatError) as excinfo:
            list(load_trace(buffer))
        assert "line 2" in str(excinfo.value)

    def test_truncated_record(self):
        buffer = io.StringIO("# repro-trace v1\nL 1000\n")
        with pytest.raises(TraceFormatError):
            list(load_trace(buffer))

    def test_blank_lines_and_comments_ignored(self):
        buffer = io.StringIO(
            "# repro-trace v1\n\n# comment\nA 1000 0 0\n"
        )
        records = list(load_trace(buffer))
        assert len(records) == 1
        assert records[0].kind == InstrKind.IALU

    def test_error_carries_line_number_and_text(self):
        buffer = io.StringIO("# repro-trace v1\nA 1000 0 0\nZ zz zz\n")
        with pytest.raises(TraceFormatError) as excinfo:
            list(load_trace(buffer))
        assert excinfo.value.line_number == 3
        assert excinfo.value.line == "Z zz zz"

    def test_error_is_part_of_the_taxonomy(self):
        from repro.errors import ReproError, TraceFormatError as canonical

        assert TraceFormatError is canonical
        assert issubclass(TraceFormatError, ReproError)
        assert issubclass(TraceFormatError, ValueError)

    def test_missing_file_raises_trace_format_error(self):
        with pytest.raises(TraceFormatError):
            list(load_trace("/nonexistent/path.trace"))


class TestNonStrictMode:
    _TEXT = (
        "# repro-trace v1\n"
        "A 1000 0 0\n"
        "Z broken one\n"
        "\n"
        "# a comment\n"
        "L 1004 8000 0 0\n"
        "L nothex 8000 0 0\n"
        "B 1008 1 0 0\n"
    )

    def test_skips_and_counts_bad_records(self):
        errors = []
        records = list(load_trace(
            io.StringIO(self._TEXT), strict=False, errors=errors
        ))
        assert len(records) == 3
        assert len(errors) == 2
        assert [e.line_number for e in errors] == [3, 7]
        assert errors[0].line == "Z broken one"

    def test_skipping_without_collecting_errors(self):
        records = list(load_trace(io.StringIO(self._TEXT), strict=False))
        assert len(records) == 3

    def test_strict_default_still_raises(self):
        with pytest.raises(TraceFormatError):
            list(load_trace(io.StringIO(self._TEXT)))

    def test_bad_header_raises_even_when_lenient(self):
        with pytest.raises(TraceFormatError):
            list(load_trace(io.StringIO("garbage\nA 1000 0 0\n"),
                            strict=False))


class TestSimulationOnLoadedTrace:
    def test_loaded_trace_simulates_identically(self, tmp_path):
        from repro.sim import baseline_config, simulate

        path = str(tmp_path / "t.trace")
        original = list(itertools.islice(get_workload("burg"), 6000))
        save_trace(path, iter(original))
        direct = simulate(
            baseline_config(), iter(original),
            max_instructions=6000, warmup_instructions=1000,
        )
        reloaded = simulate(
            baseline_config(), load_trace(path),
            max_instructions=6000, warmup_instructions=1000,
        )
        assert direct.ipc == reloaded.ipc
        assert direct.cycles == reloaded.cycles
