"""Offline analyses and report rendering for the benchmark harness."""

from repro.analysis.markov_bits import MarkovBitsAnalysis, markov_delta_bits
from repro.analysis.report import ascii_bar_chart, ascii_table

__all__ = [
    "MarkovBitsAnalysis",
    "markov_delta_bits",
    "ascii_bar_chart",
    "ascii_table",
]
