"""Unit tests for the trace substrate."""

from repro.trace import InstrKind, TraceRecord
from repro.trace.record import OP_LATENCY, UNPIPELINED_KINDS
from repro.trace.stream import profile


def _toy_trace():
    return [
        TraceRecord(InstrKind.LOAD, 0x100, addr=0x1000),
        TraceRecord(InstrKind.IALU, 0x104, dep1=1),
        TraceRecord(InstrKind.STORE, 0x108, addr=0x2000),
        TraceRecord(InstrKind.BRANCH, 0x10C, taken=True),
    ]


class TestTraceRecord:
    def test_kind_predicates(self):
        load, alu, store, branch = _toy_trace()
        assert load.is_load and load.is_memory and not load.is_store
        assert store.is_store and store.is_memory
        assert branch.is_branch and not branch.is_memory
        assert not alu.is_memory

    def test_equality_and_hash(self):
        a = TraceRecord(InstrKind.LOAD, 0x100, addr=0x1000)
        b = TraceRecord(InstrKind.LOAD, 0x100, addr=0x1000)
        c = TraceRecord(InstrKind.LOAD, 0x100, addr=0x1004)
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_repr_mentions_fields(self):
        text = repr(TraceRecord(InstrKind.LOAD, 0x100, addr=0x1000, dep1=2))
        assert "LOAD" in text
        assert "0x1000" in text

    def test_latencies_match_paper(self):
        assert OP_LATENCY[InstrKind.IALU] == 1
        assert OP_LATENCY[InstrKind.IMUL] == 3
        assert OP_LATENCY[InstrKind.IDIV] == 12
        assert OP_LATENCY[InstrKind.FADD] == 2
        assert OP_LATENCY[InstrKind.FMUL] == 4
        assert OP_LATENCY[InstrKind.FDIV] == 12

    def test_only_dividers_unpipelined(self):
        assert UNPIPELINED_KINDS == {InstrKind.IDIV, InstrKind.FDIV}


class TestStreamHelpers:
    def test_profile_fractions(self):
        stats = profile(_toy_trace())
        assert stats["total"] == 4
        assert stats["load_fraction"] == 0.25
        assert stats["store_fraction"] == 0.25
        assert stats["branch_fraction"] == 0.25
