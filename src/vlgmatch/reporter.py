"""Enumerate full match combinations from the predecessor graph.

A combination is the tuple of end positions (e1, ..., ek), one per layer,
of occurrences that chain together into a match.  ``gapgraph.expand``
walks from final-layer nodes through contiguous predecessor runs, so the
work is proportional to the output.

Two drivers are provided, each a wrapper with a sink per combination
over a core that hands ``expand``'s runs ``(suffix, firsts)`` to a run
sink.  ``report_chunked`` (core ``chunked_runs``) scans once into
per-layer end lists trimmed to the last match span, and builds a graph
for each scan block's matches, from at most a span of their last ends at
a time, so memory is bounded by the span plus one scan block per layer.
``report_on_the_fly`` (``on_the_fly_runs``) streams the text once and
emits every combination the moment its final occurrence appears, pruning
nodes that can no longer contribute.  Both give the same combinations in
the same order, both require bounded gaps, and each returns a
``RunReport``.  ``StreamPlan`` puts the paper's engines behind
``bitvec.BitPlan``'s methods ``ends``, ``runs(text, sink)`` and
``count``, which sums β over the chunked graphs.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple

from . import automaton
from .automaton import RunReport
from .gapgraph import (Counts, Graph, GraphBuilder, Run, RunSink, count_paths,
                       expand, window_graph)
from .matcher import MatcherState
from .pattern import VlgPattern, ensure_bytes

Combination = tuple[int, ...]
Sink = Callable[[Combination], None]


def _flatten(sink: Sink, runs: Iterable[Run]) -> int:
    """Hand each combination of ``runs`` to ``sink``; returns the count."""
    emitted = 0
    for suffix, firsts in runs:
        combo = [0, *suffix]  # one list per run, one tuple per combination
        for first in firsts:
            combo[0] = first
            sink(tuple(combo))
        emitted += len(firsts)
    return emitted


def expand_combinations(graph: GraphBuilder, sink: Sink) -> int:
    """Emit every combination encoded in ``graph``; returns the count."""
    return _flatten(sink, expand(graph._layers, base=graph._base))


def count_combinations(graph: GraphBuilder) -> int:
    """Number of combinations in a finished graph, without enumerating."""
    return count_paths(graph._layers, graph._base)


def _block_graphs(pattern: VlgPattern,
                  blocks: Iterable[tuple[int, list, list]]) -> Iterator[Graph | None]:
    """``window_graph`` of the final-layer ends of each ``Automaton.scan``
    block, in text order and ``span`` ends at a time, so that a graph does
    not grow with the block.  After each block, every layer's end list
    drops the ends no later match can reach, those at or before
    ``stop + 1 - span``, so it holds one span and one block of ends."""
    span, windows = pattern.max_match_span, pattern.windows
    *layers, finals = lists = [[] for _ in range(pattern.num_subpatterns)]
    # per emitting state, the appends of its layers' lists
    table = {state: tuple(lists[layer - 1].append for layer in emitted)
             for state, emitted in pattern.automaton._emits.items()}
    for stop, positions, states in blocks:
        for pos, state in zip(positions, states):
            for append in table[state]:
                append(pos)
        for at in range(0, len(finals), span):
            graph = window_graph(layers, finals[at:at + span], windows)
            yield graph
            del graph  # before the next one is built
        finals.clear()
        for ends in layers:
            del ends[:bisect_right(ends, stop + 1 - span)]


def chunked_runs(pattern: VlgPattern, text: bytes | str, sink: RunSink) -> RunReport:
    """Hand ``sink`` the runs of each ``_block_graphs`` graph, in ``on_the_fly_runs``' order."""
    data = ensure_bytes(text)
    if not pattern.bounded:
        raise ValueError("combination reporting requires bounded gaps")
    report = RunReport()
    report.chunks = -(-len(data) // automaton._BLOCK)
    for graph in _block_graphs(pattern, pattern.automaton.scan(data)):
        report.peak_graphs = 1
        if graph and graph[-1][0]:
            report.emitted += count_paths(graph)
            sink(expand(graph))
        del graph  # before the next one is built
    return report


def report_chunked(pattern: VlgPattern, text: bytes | str, sink: Sink) -> RunReport:
    """``chunked_runs``, one combination at a time."""
    return chunked_runs(pattern, text, partial(_flatten, sink))


def on_the_fly_runs(pattern: VlgPattern, text: bytes | str,
                    sink: RunSink) -> RunReport:
    """Stream once; hand ``sink`` each match's runs as its last end arrives.

    Combinations arrive in nondecreasing order of their last end position.
    Returns the graph builder's report, whose peak_live_nodes field
    witnesses the bounded working set.
    """
    below = pattern.num_subpatterns - 1

    def on_match(node: tuple[int, int | None, int | None]) -> None:
        end, first, last = node
        if first is None:
            sink((((), [end]),))
        else:
            sink(expand(layers, (below, first, last, (end,)), base))

    builder = GraphBuilder(pattern, prune=True, on_match=on_match)
    layers, base = builder._layers, builder._base
    pattern.automaton.stream(text, builder.feed)
    return builder.counters


def report_on_the_fly(pattern: VlgPattern, text: bytes | str,
                      sink: Sink) -> RunReport:
    """``on_the_fly_runs``, one combination at a time."""
    return on_the_fly_runs(pattern, text, partial(_flatten, sink))


class StreamPlan(NamedTuple):
    """The paper's engines with ``bitvec.BitPlan``'s methods; ``runs`` is
    ``chunked_runs`` for engine ``"chunked"``, else ``on_the_fly_runs``."""

    pattern: VlgPattern
    engine: str | None = None

    def ends(self, text: bytes | str) -> Iterator[int]:
        return MatcherState(self.pattern).ends(text)

    def runs(self, text: bytes | str, sink: RunSink) -> object:
        if self.engine == "chunked":
            return chunked_runs(self.pattern, text, sink)
        return on_the_fly_runs(self.pattern, text, sink)

    def count(self, text: bytes | str) -> Counts:
        """``BitPlan.count``'s counts: one scan feeds the matcher, then the chunked graphs."""
        pattern, state = self.pattern, MatcherState(self.pattern)
        blocks, beta = state.blocks(text, deque(maxlen=0).append), None
        if pattern.bounded:
            graphs = _block_graphs(pattern, blocks)
            beta = sum(count_paths(graph) for graph in graphs if graph)
        deque(blocks, maxlen=0)  # an unbounded pattern's scan, for the matcher alone
        counters = state.counters
        return Counts(counters.layer_occurrences, counters.reported, beta,
                      counters.peak_ranges)
