"""Enumerate full match combinations from the predecessor graph.

A combination is the tuple of end positions (e1, ..., ek), one per layer,
of occurrences that chain together into a match.  ``gapgraph.expand``
walks from final-layer nodes through contiguous predecessor runs, so the
work is proportional to the output.

Two drivers are provided.  ``report_chunked`` rebuilds the graph over
overlapping text windows and keeps memory bounded by the window size
regardless of text length; ``report_on_the_fly`` streams the text once and
emits every combination the moment its final occurrence appears, pruning
nodes that can no longer contribute.  Both require bounded gaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterable, NamedTuple

from .gapgraph import GraphBuilder, GraphCounters, Run, build_implicit_gap_graph, expand
from .pattern import VlgPattern, ensure_bytes

Combination = tuple[int, ...]
Sink = Callable[[Combination], None]


def _flatten(runs: Iterable[Run], sink: Sink) -> int:
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
    return _flatten(expand(graph._layers, graph._base), sink)


def count_combinations(graph: GraphBuilder) -> int:
    """Number of combinations in a finished graph, without enumerating.

    Path counting with prefix sums; exact (Python integers do not
    overflow), linear in the number of nodes.
    """
    counts = [1] * len(graph.layer(1))
    # each later layer's links index into the layer before, from its base
    for at, (_, firsts, lasts) in zip(graph._base[1:], graph._layers[2:]):
        prefix = [0, *accumulate(counts)]
        counts = [prefix[last - at + 1] - prefix[first - at]
                  for first, last in zip(firsts, lasts)]
    return sum(counts)


class ChunkPlan(NamedTuple):
    """Overlapping window layout over a text of ``text_len`` characters.

    Window i (0-based) covers positions [i*stride + 1, i*stride + length],
    clipped to the text.  Consecutive windows overlap in length - stride
    positions, which is at least the longest possible match span, so every
    match lies wholly inside some window.
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
    if text_len <= length:
        count = 1
    else:
        count = 1 + -(-(text_len - length) // stride)
    return ChunkPlan(length, stride, count)


@dataclass
class ChunkCounters:
    chunks: int = 0
    peak_graphs: int = 0
    emitted: int = 0


def report_chunked(pattern: VlgPattern, text: bytes | str, sink: Sink, *,
                   chunk_len: int | None = None) -> ChunkCounters:
    """Emit all combinations window by window, each exactly once.

    A window claims a combination iff the match start falls inside the
    window's leading stride positions (the final window claims through the
    end of the text); the claim windows partition the text, and a claimed
    match always fits inside its window.  At most two window graphs are
    alive at once: the previous one is released only when the next is built.
    """
    data = ensure_bytes(text)
    span = pattern.max_match_span
    if span is None:
        raise ValueError("combination reporting requires bounded gaps")
    counters = ChunkCounters()
    text_len = len(data)
    plan = plan_chunks(span, text_len, chunk_len)
    head_len = len(pattern.subpatterns[0])
    for index in range(plan.count):
        offset = index * plan.stride
        graph = build_implicit_gap_graph(pattern, data[offset:offset + plan.length])
        counters.chunks += 1
        # ``graph`` still held the previous window's graph while this one was built
        counters.peak_graphs = min(counters.chunks, 2)
        if not graph.layer(pattern.num_subpatterns):
            continue  # most windows of sparse text hold no match
        claim_lo = offset + 1
        claim_hi = text_len if index == plan.count - 1 else offset + plan.stride

        def claim(local: Combination, _offset: int = offset) -> None:
            start = local[0] + _offset - head_len + 1
            if claim_lo <= start <= claim_hi:
                sink(tuple(end + _offset for end in local))
                counters.emitted += 1

        expand_combinations(graph, claim)
    return counters


def report_on_the_fly(pattern: VlgPattern, text: bytes | str,
                      sink: Sink) -> GraphCounters:
    """Stream once; emit each combination as its final occurrence arrives.

    Combinations arrive in nondecreasing order of their last end position.
    Returns the graph builder's counters, whose peak_live_nodes field
    witnesses the bounded working set.
    """
    below = pattern.num_subpatterns - 1

    def on_match(node: tuple[int, int | None, int | None]) -> None:
        end, first, last = node
        if first is None:
            sink((end,))
        else:
            _flatten(expand(layers, base, (below, first, last, (end,))), sink)

    builder = GraphBuilder(pattern, prune=True, on_match=on_match)
    layers, base = builder._layers, builder._base
    pattern.automaton.stream(text, builder.feed)
    return builder.counters
