"""Implicit predecessor graph over relevant subpattern occurrences.

Every relevant occurrence becomes a node.  Instead of materialising every
compatible predecessor edge, a node stores only two links: the earliest
and the most recent compatible predecessor.  The predecessors in between
form a contiguous run of the previous layer's nodes, so the full edge set
is recoverable on demand and the stored graph stays linear in the number
of occurrences with out-degree at most 2.

The two links come from a pair of interval lists per layer covering the
same start positions: in one the covering range is the earliest ever to
cover a position, in the other the most recent.

Gap upper bounds must be bounded here; the decision matcher handles the
unbounded case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


# (start, end, origin) entries; ends are always bounded here
TaggedRange = tuple[int, int, GraphNode]


class DualLists:
    """Paired coverage lists for one layer's admissible start positions.

    Both lists cover exactly the same positions.  In ``first`` the range
    covering a position is the earliest one ever to cover it; in ``last``
    it is the most recent.  Entries stay sorted and disjoint, with both
    starts and ends increasing.
    """

    __slots__ = ("first", "last", "sublen")

    def __init__(self, sublen: int) -> None:
        self.first: list[TaggedRange] = []
        self.last: list[TaggedRange] = []
        self.sublen = sublen

    def purge_dead(self, pos: int) -> int:
        """Drop leading ranges no occurrence ending at or after ``pos`` can start in."""
        cutoff = pos - self.sublen + 1
        removed = 0
        for entries in (self.first, self.last):
            j = 0
            while j < len(entries) and entries[j][1] < cutoff:
                j += 1
            if j:
                del entries[:j]
                removed += j
        return removed

    def append(self, start: int, end: int, origin: GraphNode) -> None:
        """Add [start, end] tagged with its creating node.

        Both starts and ends arrive nondecreasing (each layer appends
        windows of one fixed width at increasing positions).  The new
        range is clipped against existing coverage in ``first`` (and
        dropped there if fully covered); in ``last`` it overrides the
        tail of the previous range instead.
        """
        first = self.first
        clipped = start
        if first:
            prev_end = first[-1][1]
            if prev_end + 1 > clipped:
                clipped = prev_end + 1
        if clipped <= end:
            first.append((clipped, end, origin))
        last = self.last
        if last:
            prev_start, prev_end, prev_origin = last[-1]
            if prev_end >= start:
                if start - 1 >= prev_start:
                    last[-1] = (prev_start, start - 1, prev_origin)
                else:
                    last.pop()
        last.append((start, end, origin))

    def relevant_origins(self, pos: int) -> tuple[GraphNode, GraphNode] | None:
        """(earliest, most recent) creators covering ``pos``, or None.

        Assumes dead ranges were purged, so coverage of ``pos`` implies the
        leading range of ``first`` contains it; the matching ``last`` range
        is then the first one not ending before ``pos``.
        """
        if not self.first:
            return None
        start, end, earliest = self.first[0]
        if not (start <= pos <= end):
            return None
        for start2, end2, recent in self.last:
            if start2 > pos:
                break
            if pos <= end2:
                return earliest, recent
        raise AssertionError("paired lists disagree on coverage")


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
    """Worst-case entries in either coverage list of the layer after ``gap``."""
    if gap.upper is None:
        raise ValueError("bound requires a bounded gap")
    return next_sublen + gap.upper + 1


@dataclass
class GraphCounters:
    occurrences: int = 0
    nodes_created: int = 0
    nodes_purged: int = 0
    peak_live_nodes: int = 0
    # index i-2 = peak of max(|first|, |last|) for layer i's lists
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
        self._duals: dict[int, DualLists] = {
            layer: DualLists(self._sublen[layer - 1])
            for layer in range(2, self._k + 1)
        }
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
        here = self._duals.get(layer)
        ahead = self._duals.get(layer + 1)
        if here is not None:
            here.purge_dead(pos)
        if ahead is not None:
            ahead.purge_dead(pos)
        if layer == 1:
            first = last = None
        else:
            found = here.relevant_origins(pos - self._sublen[layer - 1] + 1)
            if found is None:
                return
            first, last = found
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
        if not terminal:
            gap = self.pattern.gaps[layer - 1]
            ahead.append(pos + gap.lower + 1, pos + gap.upper + 1, node)
            size = max(len(ahead.first), len(ahead.last))
            if size > counters.peak_dual_ranges[layer - 1]:
                counters.peak_dual_ranges[layer - 1] = size

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


def iter_graph_lines(graph: GraphBuilder) -> Iterator[str]:
    """Plain-text dump: all node lines, then all edge lines.

    Nodes print as ``N <layer> <endpos>`` and edges as
    ``E <layer> <endpos> <pred_layer> <pred_endpos>``, each section ordered
    by (layer, endpos).
    """
    for node in graph.nodes():
        yield f"N {node.layer} {node.endpos}"
    for node, pred in graph.edges():
        yield f"E {node.layer} {node.endpos} {pred.layer} {pred.endpos}"
