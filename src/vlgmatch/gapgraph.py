"""Implicit predecessor graph over relevant subpattern occurrences.

Every relevant occurrence becomes a node.  Instead of materialising every
compatible predecessor edge, a node stores only two links: the earliest
and the most recent compatible predecessor.  The predecessors in between
form a contiguous run of the previous layer's nodes, so the full edge set
is recoverable on demand and the stored graph stays linear in the number
of occurrences with out-degree at most 2.

A node's compatible predecessors are the previous layer's nodes that end
inside the gap window before its start.  Each layer keeps its nodes in
ascending end order, so two binary searches over the previous layer find
that run; the occurrence is relevant iff the run is nonempty, and the
run's first and last nodes are the two links.

Gap upper bounds must be bounded here; the decision matcher handles the
unbounded case.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Iterator

from .automaton import OccEvent
from .pattern import GapBounds, VlgPattern


class GraphNode:
    """A relevant occurrence: (layer, end position) plus predecessor links."""

    __slots__ = ("layer", "endpos", "seq", "first", "last")

    def __init__(self, layer: int, endpos: int, seq: int,
                 first: "GraphNode | None" = None,
                 last: "GraphNode | None" = None) -> None:
        self.layer = layer
        self.endpos = endpos
        self.seq = seq  # creation index within the layer
        self.first = first
        self.last = last

    @property
    def out_degree(self) -> int:
        if self.first is None:
            return 0
        return 1 if self.first is self.last else 2

    def __repr__(self) -> str:
        return f"GraphNode(layer={self.layer}, endpos={self.endpos})"


_endpos = attrgetter("endpos")


def tail_span_bounds(pattern: VlgPattern) -> tuple[int, ...]:
    """Per layer, how far past an occurrence a match through it can end.

    Entry i-1 is the maximum distance between the end of a layer-i
    occurrence and the end of any full match using it; 0 for the last
    layer.  Requires bounded gaps.
    """
    count = pattern.num_subpatterns
    spans = [0] * count
    for i in range(count - 2, -1, -1):
        gap = pattern.gaps[i]
        if gap.upper is None:
            raise ValueError("tail spans require bounded gaps")
        spans[i] = spans[i + 1] + gap.upper + len(pattern.subpatterns[i + 1])
    return tuple(spans)


def max_dual_ranges(gap: GapBounds, next_sublen: int) -> int:
    """Most previous-layer nodes at or after one window's start.

    A node of the layer after ``gap`` that ends at ``pos`` searches for
    predecessors ending at ``pos - next_sublen - gap.upper`` or later.
    Retained nodes of one layer have distinct ends, none past ``pos``.
    """
    if gap.upper is None:
        raise ValueError("bound requires a bounded gap")
    return next_sublen + gap.upper + 1


@dataclass
class GraphCounters:
    occurrences: int = 0
    nodes_created: int = 0
    nodes_purged: int = 0
    peak_live_nodes: int = 0
    # index i-2 = most layer-(i-1) nodes at or after the window start of
    # one layer-i lookup
    peak_dual_ranges: list[int] = field(default_factory=list)


class GraphBuilder:
    """Streaming construction of the predecessor graph, and the graph itself.

    Feed occurrence events in position order.  With ``prune=True`` nodes
    that can no longer take part in any match ending at or after the
    current position are dropped as the scan advances, and final-layer
    nodes are handed to ``on_match`` at creation instead of being
    retained.  The read methods (``layer``, ``nodes``, ``edges``,
    ``run_between``, ...) see the nodes retained so far.
    """

    def __init__(self, pattern: VlgPattern, *, prune: bool = False,
                 on_match: Callable[[GraphNode], None] | None = None) -> None:
        if not pattern.bounded:
            raise ValueError("gap graph requires bounded gap upper bounds")
        self.pattern = pattern
        self._k = pattern.num_subpatterns
        self._sublen = [len(piece) for piece in pattern.subpatterns]
        # index 0 unused; layer lists hold retained nodes, ascending endpos
        self._nodes: list[list[GraphNode]] = [[] for _ in range(self._k + 1)]
        # per layer, the seq of the first retained node
        self._seq_base = [0] * (self._k + 1)
        self._next_seq = [0] * (self._k + 1)
        self._live = 0
        self.prune = prune
        self.on_match = on_match
        self.tail_spans = tail_span_bounds(pattern)
        self.counters = GraphCounters(peak_dual_ranges=[0] * (self._k - 1))

    def feed(self, event: OccEvent) -> None:
        if self.prune:
            self.purge_dead_nodes(event.position)
        for layer in event.layers:
            self._step(layer, event.position)

    def _step(self, layer: int, pos: int) -> None:
        counters = self.counters
        counters.occurrences += 1
        if layer == 1:
            first = last = None
        else:
            # pruning keeps every node searched here: a previous-layer node
            # goes only once pos passes its end by its tail span, which is
            # at least this gap's upper bound plus this piece's length
            prev = self._nodes[layer - 1]
            gap = self.pattern.gaps[layer - 2]
            start = pos - self._sublen[layer - 1] + 1
            lo = bisect_left(prev, start - gap.upper - 1, key=_endpos)
            hi = bisect_right(prev, start - gap.lower - 1, lo, key=_endpos)
            if len(prev) - lo > counters.peak_dual_ranges[layer - 2]:
                counters.peak_dual_ranges[layer - 2] = len(prev) - lo
            if lo == hi:
                return
            first, last = prev[lo], prev[hi - 1]
        node = GraphNode(layer, pos, self._next_seq[layer], first, last)
        self._next_seq[layer] += 1
        counters.nodes_created += 1
        terminal = layer == self._k
        if terminal and self.on_match is not None:
            self.on_match(node)
        if terminal and self.prune:
            live_now = self._live + 1  # the node existed transiently
        else:
            self._nodes[layer].append(node)
            self._live += 1
            live_now = self._live
        if live_now > counters.peak_live_nodes:
            counters.peak_live_nodes = live_now

    def purge_dead_nodes(self, pos: int) -> int:
        """Drop nodes that cannot belong to any match ending at or after ``pos``."""
        removed = 0
        for layer in range(1, self._k + 1):
            nodes = self._nodes[layer]
            horizon = self.tail_spans[layer - 1]
            j = 0
            while j < len(nodes) and pos > nodes[j].endpos + horizon:
                j += 1
            if j:
                del nodes[:j]
                self._seq_base[layer] += j
                removed += j
        if removed:
            self._live -= removed
            self.counters.nodes_purged += removed
        return removed

    def finish(self) -> "GraphBuilder":
        """The graph as built so far; the builder itself answers graph queries."""
        return self

    @property
    def num_layers(self) -> int:
        return self._k

    def layer(self, index: int) -> list[GraphNode]:
        """Retained nodes of one layer (1-based), ascending by end position."""
        return self._nodes[index]

    def index(self, node: GraphNode) -> int:
        """Position of a retained node within ``layer(node.layer)``."""
        return node.seq - self._seq_base[node.layer]

    def run_between(self, first: GraphNode, last: GraphNode) -> list[GraphNode]:
        """Retained nodes of first's layer from ``first`` to ``last`` inclusive."""
        start = self.index(first)
        return self._nodes[first.layer][start:start + last.seq - first.seq + 1]

    def nodes(self) -> Iterator[GraphNode]:
        for layer in range(1, self._k + 1):
            yield from self._nodes[layer]

    def edges(self) -> Iterator[tuple[GraphNode, GraphNode]]:
        """(node, predecessor) pairs; a single pair when the links coincide."""
        for layer in range(2, self._k + 1):
            for node in self._nodes[layer]:
                yield node, node.first
                if node.last is not node.first:
                    yield node, node.last

    def end_positions(self, layer: int) -> list[int]:
        return [node.endpos for node in self._nodes[layer]]


def build_implicit_gap_graph(pattern: VlgPattern,
                             text: bytes | str) -> GraphBuilder:
    """Graph of all relevant occurrences of ``pattern`` in ``text``.

    Relevance only looks backwards, so the graph can be nonempty even
    when the text is too short to hold a complete match.
    """
    builder = GraphBuilder(pattern)
    pattern.automaton.stream(text, builder.feed)
    return builder.finish()
