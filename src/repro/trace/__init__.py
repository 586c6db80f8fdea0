"""Instruction-trace substrate: records, profiling, and serialization."""

from repro.trace.binfmt import (
    compile_trace,
    load_binary_trace,
    load_binary_trace_list,
    sniff_binary,
)
from repro.trace.record import InstrKind, TraceRecord, OP_LATENCY

__all__ = [
    "InstrKind",
    "TraceRecord",
    "OP_LATENCY",
    "compile_trace",
    "load_binary_trace",
    "load_binary_trace_list",
    "sniff_binary",
]
