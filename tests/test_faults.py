"""Tests for the deterministic fault-injection harness itself."""

import itertools

import pytest

from repro.errors import TraceFormatError
from repro.runner.faults import (
    FaultSpec,
    InjectedCrash,
    corrupt_trace_file,
    inject_faults,
)
from repro.trace.io import load_trace, save_trace
from repro.workloads import get_workload


def _records(n=50):
    return list(itertools.islice(get_workload("health", seed=1), n))


class TestFaultSpec:
    def test_noop_by_default(self):
        assert FaultSpec().is_noop

    def test_rejects_negative_indices(self):
        with pytest.raises(ValueError):
            FaultSpec(crash_at=-1)

    def test_picklable(self):
        import pickle

        spec = FaultSpec(crash_at=5, crash_attempts=1, corrupt_at=9)
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestInjection:
    def test_passthrough_without_faults(self):
        records = _records()
        assert list(inject_faults(iter(records), FaultSpec())) == records

    def test_crash_at_exact_index(self):
        records = _records()
        spec = FaultSpec(crash_at=10)
        out = []
        with pytest.raises(InjectedCrash):
            for record in inject_faults(iter(records), spec):
                out.append(record)
        assert out == records[:10]  # records before the fault pass through

    def test_crash_is_deterministic_across_replays(self):
        spec = FaultSpec(crash_at=7)
        for _ in range(3):
            with pytest.raises(InjectedCrash):
                list(inject_faults(iter(_records()), spec))

    def test_crash_heals_after_crash_attempts(self):
        records = _records()
        spec = FaultSpec(crash_at=10, crash_attempts=2)
        for attempt in (0, 1):
            with pytest.raises(InjectedCrash):
                list(inject_faults(iter(records), spec, attempt=attempt))
        healed = list(inject_faults(iter(records), spec, attempt=2))
        assert healed == records

    def test_corrupt_raises_trace_format_error(self):
        spec = FaultSpec(corrupt_at=4)
        with pytest.raises(TraceFormatError) as excinfo:
            list(inject_faults(iter(_records()), spec))
        assert excinfo.value.line_number == 6  # header + 1-based offset
        assert not excinfo.value.retryable

    def test_corrupt_wins_over_crash_at_same_index(self):
        spec = FaultSpec(crash_at=4, corrupt_at=4)
        with pytest.raises(TraceFormatError):
            list(inject_faults(iter(_records()), spec))


class TestCorruptTraceFile:
    def test_clobbers_one_line(self, tmp_path):
        path = str(tmp_path / "t.trace")
        save_trace(path, iter(_records(20)))
        original = corrupt_trace_file(path, line_number=5)
        assert original  # the displaced record text is returned
        with pytest.raises(TraceFormatError) as excinfo:
            list(load_trace(path))
        assert excinfo.value.line_number == 5
        assert "corrupt" in excinfo.value.line

    def test_non_strict_load_skips_the_corruption(self, tmp_path):
        path = str(tmp_path / "t.trace")
        save_trace(path, iter(_records(20)))
        corrupt_trace_file(path, line_number=5)
        errors = []
        records = list(load_trace(path, strict=False, errors=errors))
        assert len(records) == 19
        assert len(errors) == 1

    def test_rejects_out_of_range_line(self, tmp_path):
        path = str(tmp_path / "t.trace")
        save_trace(path, iter(_records(3)))
        with pytest.raises(ValueError):
            corrupt_trace_file(path, line_number=99)
