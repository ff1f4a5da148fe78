"""Enumerate full match combinations from the predecessor graph.

A combination is the tuple of end positions (e1, ..., ek), one per layer,
of occurrences that chain together into a match.  ``gapgraph.expand``
walks from final-layer nodes through contiguous predecessor runs, so the
work is proportional to the output.

Two drivers are provided, each a wrapper with a sink per combination
over a core that hands ``expand``'s runs ``(suffix, firsts)`` to a run
sink.  ``report_chunked`` (core ``chunked_runs``) scans once into
per-layer end lists and builds one graph per overlapping text window
from them, so memory is bounded by the window size.
``report_on_the_fly`` (``on_the_fly_runs``) streams the text once and
emits every combination the moment its final occurrence appears, pruning
nodes that can no longer contribute.  Both give the same combinations in
the same order, and both require bounded gaps.  ``StreamPlan`` puts the
paper's engines behind ``bitvec.BitPlan``'s methods ``ends``,
``runs(text, sink)`` and ``count``.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple

from .automaton import OccEvent
from .gapgraph import (Counts, GraphBuilder, GraphCounters, Run, RunSink,
                       count_paths, expand, gap_windows, window_graph)
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
    return _flatten(sink, expand(graph._layers, graph._base))


def count_combinations(graph: GraphBuilder) -> int:
    """Number of combinations in a finished graph, without enumerating."""
    return count_paths(graph._layers, graph._base)


class ChunkPlan(NamedTuple):
    """Overlapping window layout over a text of ``text_len`` characters.

    Window i (0-based) covers positions [i*stride + 1, i*stride + length],
    clipped to the text.  Windows overlap in length - stride positions, at
    least the longest match span less one, so every match fits in one.
    """

    length: int
    stride: int
    count: int


def plan_chunks(span: int, text_len: int, length: int | None = None) -> ChunkPlan:
    """Window layout for a maximum match span; length defaults to 2*span."""
    if span < 1:
        raise ValueError("span must be positive")
    if length is None:
        length = 2 * span
    if length < span:
        raise ValueError(
            f"chunk length {length} is shorter than the match span bound {span}")
    stride = max(1, length - span)
    # windows up to the one claiming the text's last position
    return ChunkPlan(length, stride, 1 + max(0, -((length - text_len) // stride)))


@dataclass
class ChunkCounters:
    chunks: int = 0  # windows planned, built or not
    peak_graphs: int = 0  # window graphs alive at once; 0 if none was built
    emitted: int = 0


def chunked_runs(pattern: VlgPattern, text: bytes | str, sink: RunSink, *,
                 chunk_len: int | None = None) -> ChunkCounters:
    """Hand ``sink`` each window's claimed runs, in text positions.

    A window claims the matches whose last end falls in its trailing
    stride positions (the first window's claim starts at position 1), so
    the claims partition the text and a claimed match fits in its window.
    The scan appends each block's occurrences to one end list per layer.
    Once it passes the end of a window whose claim holds final-layer ends,
    ``window_graph`` builds their matches' graph from the lists, and the
    lists keep only what a later claim can reach.  The runs come in
    ``on_the_fly_runs``' order, one window graph alive at most.
    """
    data = ensure_bytes(text)
    span = pattern.max_match_span
    if span is None:
        raise ValueError("combination reporting requires bounded gaps")
    length, stride, count = plan_chunks(span, len(data), chunk_len)
    counters = ChunkCounters(chunks=count)
    *layers, finals = lists = [[] for _ in range(pattern.num_subpatterns)]
    # per emitting state, the appends of its layers' lists
    table = {state: tuple(lists[layer - 1].append for layer in emitted)
             for state, emitted in pattern.automaton._emits.items()}
    windows, base = gap_windows(pattern), [0] * (len(lists) + 1)
    for stop, positions, states in pattern.automaton.scan(data):
        for pos, state in zip(positions, states):
            for append in table[state]:
                append(pos)
        while finals:
            # the window claiming the earliest final, as in plan_chunks' count
            end = length + max(0, -((length - finals[0]) // stride) * stride)
            if min(end, len(data)) > stop:
                break
            claim = bisect_right(finals, end)
            graph = window_graph(layers, finals[:claim], windows)
            del finals[:claim]
            counters.peak_graphs = 1
            if graph and graph[-1][0]:
                counters.emitted += count_paths(graph, base)
                sink(expand(graph, base))
            del graph  # before the next window's is built
        cut = (finals[0] if finals else stop + 1) - span
        for ends in layers:
            del ends[:bisect_right(ends, cut)]
    return counters


def report_chunked(pattern: VlgPattern, text: bytes | str, sink: Sink, *,
                   chunk_len: int | None = None) -> ChunkCounters:
    """``chunked_runs``, one combination at a time."""
    return chunked_runs(pattern, text, partial(_flatten, sink), chunk_len=chunk_len)


def on_the_fly_runs(pattern: VlgPattern, text: bytes | str,
                    sink: RunSink) -> GraphCounters:
    """Stream once; hand ``sink`` each match's runs as its last end arrives.

    Combinations arrive in nondecreasing order of their last end position.
    Returns the graph builder's counters, whose peak_live_nodes field
    witnesses the bounded working set.
    """
    below = pattern.num_subpatterns - 1

    def on_match(node: tuple[int, int | None, int | None]) -> None:
        end, first, last = node
        if first is None:
            sink((((), [end]),))
        else:
            sink(expand(layers, base, (below, first, last, (end,))))

    builder = GraphBuilder(pattern, prune=True, on_match=on_match)
    layers, base = builder._layers, builder._base
    pattern.automaton.stream(text, builder.feed)
    return builder.counters


def report_on_the_fly(pattern: VlgPattern, text: bytes | str,
                      sink: Sink) -> GraphCounters:
    """``on_the_fly_runs``, one combination at a time."""
    return on_the_fly_runs(pattern, text, partial(_flatten, sink))


class StreamPlan(NamedTuple):
    """The paper's engines with ``bitvec.BitPlan``'s methods; ``runs`` is
    ``chunked_runs`` for engine ``"chunked"``, else ``on_the_fly_runs``."""

    pattern: VlgPattern
    engine: str | None = None
    chunk_len: int | None = None

    def ends(self, text: bytes | str) -> Iterator[int]:
        return MatcherState(self.pattern).ends(text)

    def runs(self, text: bytes | str, sink: RunSink) -> object:
        if self.engine == "chunked":
            return chunked_runs(self.pattern, text, sink, chunk_len=self.chunk_len)
        return on_the_fly_runs(self.pattern, text, sink)

    def count(self, text: bytes | str) -> Counts:
        """``BitPlan.count``'s counts; β from an unpruned graph of the text."""
        pattern = self.pattern
        state = MatcherState(pattern)
        process, ignore = state.process_event, deque(maxlen=0).append
        builder = GraphBuilder(pattern) if pattern.bounded else None

        def on_event(event: OccEvent) -> None:
            process(event, ignore)
            if builder is not None:
                builder.feed(event)

        pattern.automaton.stream(text, on_event)
        counters = state.counters
        return Counts(counters.layer_occurrences, counters.reported,
                      None if builder is None else count_combinations(builder),
                      counters.peak_ranges)
