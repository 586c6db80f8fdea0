"""Event tracing: ring buffer, category filters, and JSONL IO."""

import dataclasses

import pytest

from repro.cli import MACHINES
from repro.errors import ConfigError
from repro.obs import EventTrace, parse_categories, read_jsonl
from repro.obs.tracing import CATEGORIES
from repro.sim.simulator import Simulator
from repro.workloads import get_workload


class TestEventTrace:
    def test_emit_and_read_back(self):
        trace = EventTrace()
        trace.emit(10, "alloc", "allocate", buffer=3)
        events = trace.events()
        assert events == [
            {"cycle": 10, "category": "alloc", "event": "allocate",
             "buffer": 3}
        ]

    def test_ring_overflow_drops_oldest(self):
        trace = EventTrace(capacity=3)
        for cycle in range(5):
            trace.emit(cycle, "demand", "miss")
        assert len(trace) == 3
        assert trace.emitted == 5
        assert trace.dropped == 2
        assert [e["cycle"] for e in trace.events()] == [2, 3, 4]

    def test_category_filter_drops_silently(self):
        trace = EventTrace(categories=["alloc"])
        assert trace.wants("alloc")
        assert not trace.wants("demand")
        trace.emit(1, "demand", "miss")
        trace.emit(2, "alloc", "allocate")
        assert len(trace) == 1
        assert trace.emitted == 1  # filtered events never count

    def test_events_by_category(self):
        trace = EventTrace()
        trace.emit(1, "alloc", "allocate")
        trace.emit(2, "demand", "miss")
        assert [e["cycle"] for e in trace.events("demand")] == [2]

    def test_counts(self):
        trace = EventTrace()
        trace.emit(1, "prefetch", "issue")
        trace.emit(2, "prefetch", "issue")
        trace.emit(3, "prefetch", "hit")
        assert trace.counts() == {"prefetch/hit": 1, "prefetch/issue": 2}

    def test_clear(self):
        trace = EventTrace()
        trace.emit(1, "demand", "miss")
        trace.clear()
        assert len(trace) == 0
        assert trace.emitted == 0

    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigError):
            EventTrace(capacity=0)

    def test_rejects_unknown_category(self):
        with pytest.raises(ConfigError) as excinfo:
            EventTrace(categories=["alloc", "nonsense"])
        assert "nonsense" in str(excinfo.value)


class TestJsonl:
    def test_round_trip(self, tmp_path):
        trace = EventTrace()
        trace.emit(5, "alloc", "deny", pc=0x40, reason="filter")
        trace.emit(9, "demand", "miss", latency=120)
        path = str(tmp_path / "events.jsonl")
        assert trace.write_jsonl(path) == 2
        assert read_jsonl(path) == trace.events()

    def test_read_skips_blank_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"cycle": 1}\n\n{"cycle": 2}\n')
        assert [e["cycle"] for e in read_jsonl(str(path))] == [1, 2]


class TestParseCategories:
    def test_none_and_all_select_everything(self):
        assert parse_categories(None) is None
        assert parse_categories("all") is None
        assert parse_categories("  ") is None

    def test_comma_split(self):
        assert parse_categories("alloc, prefetch") == ["alloc", "prefetch"]


class TestSimulatorTracing:
    def test_psb_run_emits_expected_categories(self):
        trace = EventTrace()
        simulator = Simulator(MACHINES["psb"](), event_trace=trace)
        simulator.run(get_workload("health", seed=1), max_instructions=6_000)
        counts = trace.counts()
        assert counts.get("demand/miss", 0) > 0
        assert counts.get("alloc/allocate", 0) > 0
        assert counts.get("prefetch/issue", 0) > 0
        emitted = {key.split("/")[0] for key in counts}
        assert emitted <= set(CATEGORIES)

    def test_filter_restricts_emissions(self):
        trace = EventTrace(categories=["prefetch"])
        simulator = Simulator(MACHINES["psb"](), event_trace=trace)
        simulator.run(get_workload("health", seed=1), max_instructions=6_000)
        categories = {e["category"] for e in trace.events()}
        assert categories == {"prefetch"}

    def test_tracing_does_not_change_results(self):
        config = MACHINES["psb"]()
        plain = Simulator(config).run(
            get_workload("health", seed=1), max_instructions=6_000
        )
        traced_sim = Simulator(config, event_trace=EventTrace())
        traced = traced_sim.run(
            get_workload("health", seed=1), max_instructions=6_000
        )
        assert plain.cycles == traced.cycles
        assert plain.ipc == traced.ipc
        assert plain.extra == traced.extra

    def test_drop_events_count_duplicate_predictions(self):
        config = MACHINES["psb"]()
        plain = Simulator(config).run(
            get_workload("sis", seed=1), max_instructions=6_000
        )
        trace = EventTrace(categories=["prefetch"])
        traced_sim = Simulator(config, event_trace=trace)
        traced = traced_sim.run(
            get_workload("sis", seed=1), max_instructions=6_000
        )
        assert trace.dropped == 0
        drops = trace.counts().get("prefetch/drop", 0)
        assert drops > 0
        assert drops == traced_sim.controller.duplicate_predictions
        assert dataclasses.asdict(traced) == dataclasses.asdict(plain)

    def test_integrity_sweeps_traced_with_invariants(self):
        from repro.config import InvariantLevel

        trace = EventTrace(categories=["integrity"])
        config = MACHINES["base"]().with_invariants(InvariantLevel.CHEAP)
        simulator = Simulator(config, event_trace=trace)
        simulator.run(get_workload("health", seed=1), max_instructions=4_000)
        assert len(trace) > 0
        assert all(e["event"] == "sweep" for e in trace.events())
