"""Streaming matcher for patterns with variable-length gaps.

A pattern is a sequence of literal strings separated by gaps with lower
and upper length bounds, e.g. ``A.{6,7}CC.{2,6}GT``.  The package scans a
text once, decides which positions end a match, and can enumerate the
exact occurrence combinations behind every match in output-proportional
time with bounded working memory.
"""

from .automaton import build_automaton
from .gapgraph import GraphBuilder, build_implicit_gap_graph
from .matcher import MatcherState, find_endpoints
from .pattern import GapBounds, PatternSyntaxError, VlgPattern, parse_pattern
from .reporter import (count_combinations, expand_combinations,
                       report_chunked, report_on_the_fly)

__version__ = "0.1.0"

__all__ = [
    # documented in the README
    "find_endpoints", "parse_pattern", "report_on_the_fly", "report_chunked",
    "build_automaton", "MatcherState", "build_implicit_gap_graph",
    "GraphBuilder", "expand_combinations", "count_combinations",
    # types in their signatures
    "VlgPattern", "GapBounds", "PatternSyntaxError",
]
