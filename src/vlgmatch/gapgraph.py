"""Implicit predecessor graph over relevant subpattern occurrences.

Every relevant occurrence becomes a node.  Instead of materialising every
compatible predecessor edge, a node stores only two links: the earliest
and the most recent compatible predecessor.  The predecessors in between
form a contiguous run of the previous layer's nodes, so the full edge set
is recoverable on demand and the stored graph stays linear in the number
of occurrences with out-degree at most 2.

A node's compatible predecessors are the previous layer's nodes that end
inside its gap's window, ``VlgPattern.windows``.  Each layer keeps its
nodes' ends in one ascending list of ints, so two binary searches find
that run; the occurrence is relevant iff the run is nonempty.  Two
parallel lists hold the links as absolute indices, which count every
node a layer has ever retained; a layer's base is the absolute index of
its first retained node, so dropping a prefix, as only the pruning
``GraphBuilder`` does, leaves every link valid.  ``expand`` reads the
combinations out of these lists.  ``link`` builds them from per-layer
end lists for the bit engine's blocks and, after ``window_graph``'s
backward filter, for the chunked reporter's scan blocks.

Gap upper bounds must be bounded here; the decision matcher handles the
unbounded case.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

if TYPE_CHECKING:
    from .automaton import OccEvent
    from .pattern import GapBounds, VlgPattern

# A run ``(suffix, firsts)`` stands for the combinations ``(e1, *suffix)``
# for ``e1`` in ``firsts``, ascending.
Run = tuple[tuple[int, ...], list[int]]
# every engine hands it the runs of one scan block or match, to consume
RunSink = Callable[[Iterable[Run]], object]
# per layer from 1 (entry 0 unused): its nodes' ends, firsts and lasts
Graph = list[tuple[list[int], list[int], list[int]]]


def expand(layers: Graph, frame: tuple[int, int, int, tuple] | None = None,
           base: list[int] | None = None) -> Iterator[Run]:
    """Runs, depth first, of the combinations through a frame ``(layer, lo,
    hi, suffix)``: nodes ``lo..hi`` (absolute indices) of ``layer``, followed
    by the later ends ``suffix``; by default, of every combination.

    ``layers`` holds each layer's ends, firsts and lasts, and ``base`` its
    base (all 0 if not given), both indexed by layer from 1.  Runs come by
    the later ends from the last to the first, each ascending.  An explicit
    stack replaces recursion, so the depth is not limited by the interpreter.
    """
    if base is None:
        base = [0] * len(layers)
    if frame is None:
        k = len(layers) - 1
        frame = (k, base[k], base[k] + len(layers[k][0]) - 1, ())
    ends1, base1 = layers[1][0], base[1]
    stack = [frame]
    pop, push = stack.pop, stack.append
    while stack:
        layer, lo, hi, suffix = pop()
        if layer == 1:  # only a starting frame; layer 2 yields its own runs
            yield suffix, ends1[lo - base1:hi - base1 + 1]
            continue
        at = base[layer]
        here, first, last = layers[layer]
        if layer == 2:  # each node's layer-1 run is one slice
            for j in range(lo - at, hi - at + 1):
                yield (here[j],) + suffix, ends1[first[j] - base1:last[j] - base1 + 1]
            continue
        for j in range(hi - at, lo - at - 1, -1):
            push((layer - 1, first[j], last[j], (here[j],) + suffix))


def count_paths(layers: Graph, base: list[int] | None = None) -> int:
    """Number of combinations ``expand`` would give, without enumerating.

    Path counting with prefix sums; exact (Python integers do not
    overflow), linear in the number of nodes; ``base`` as in ``expand``.
    """
    if base is None:
        base = [0] * len(layers)
    counts = [1] * len(layers[1][0])
    # each later layer's links index into the layer before, from its base
    for at, (_, firsts, lasts) in zip(base[1:], layers[2:]):
        prefix = [0, *accumulate(counts)]
        counts = [prefix[last - at + 1] - prefix[first - at]
                  for first, last in zip(firsts, lasts)]
    return sum(counts)


def window_graph(layers: list[list[int]], finals: list[int],
                 windows: tuple[tuple[int, int], ...]) -> Graph | None:
    """``link``'s graph of the matches ending at ``finals``, one scan block's
    final-layer ends, from every earlier layer's ascending ends; None if a
    layer has no end on one.  Backward, a layer keeps its ends in a kept
    later end's predecessor window, one bisect pair per kept end."""
    kept = [finals]
    for ends, (far, near) in zip(reversed(layers), reversed(windows)):
        found, top = [], 0
        for end in kept[-1]:
            at = bisect_left(ends, end - far, top)
            top = bisect_right(ends, end - near, at)
            found += ends[at:top]
        if not found:
            return None
        kept.append(found)
    return link(kept[::-1], windows)


def link(ends: list[list[int]], windows: tuple[tuple[int, int], ...]) -> Graph:
    """``expand``'s layers, base 0, from each layer's ascending ends: two
    bisects link a node to its predecessor run, or drop it if it is empty."""
    preds = ends[0]
    graph: Graph = [((), (), ()), (preds, (), ())]
    for here, (far, near) in zip(ends[1:], windows):
        kept, firsts, lasts, at = [], [], [], 0
        for end in here:
            at = bisect_left(preds, end - far, at)
            last = bisect_right(preds, end - near, at) - 1
            if at <= last:
                kept.append(end)
                firsts.append(at)
                lasts.append(last)
        graph.append((kept, firsts, lasts))
        preds = kept
    return graph


class Counts(NamedTuple):
    """One text's ``stats`` counts; lists are per layer, ``peak_ranges`` per gap."""

    layer_occurrences: list[int]
    matches: int
    beta: int | None
    peak_ranges: list[int]


def tail_span_bounds(pattern: VlgPattern) -> tuple[int, ...]:
    """Per layer, how far past an occurrence a match through it can end.

    Entry i-1 is the maximum distance between the end of a layer-i
    occurrence and the end of any full match using it; 0 for the last
    layer.  Requires bounded gaps.
    """
    if not pattern.bounded:
        raise ValueError("tail spans require bounded gaps")
    fars = [far for far, _ in pattern.windows]
    return tuple(accumulate(reversed(fars), initial=0))[::-1]


def max_dual_ranges(gap: GapBounds, next_sublen: int) -> int:
    """Most previous-layer nodes at or after one window's start.

    A node of the layer after ``gap`` that ends at ``pos`` searches for
    predecessors ending at ``pos - next_sublen - gap.upper`` or later.
    Retained nodes of one layer have distinct ends, none past ``pos``.
    """
    if gap.upper is None:
        raise ValueError("bound requires a bounded gap")
    return next_sublen + gap.upper + 1


class GraphBuilder:
    """Streaming construction of the predecessor graph, and the graph itself.

    Feed occurrence events in position order.  With ``prune=True`` nodes
    that can no longer take part in any match ending at or after the
    current position are dropped as the scan advances, and final-layer
    nodes are handed to ``on_match`` at creation instead of being
    retained.  ``on_match`` receives ``(end, first, last)``: the node's end
    and its links, absolute indices into layer k - 1 (None for k = 1).
    The read methods (``layer``, ``links``, ``nodes``, ``edges``) see the
    nodes retained so far.
    """

    def __init__(self, pattern: VlgPattern, *, prune: bool = False,
                 on_match: Callable[[tuple], None] | None = None) -> None:
        if not pattern.bounded:
            raise ValueError("gap graph requires bounded gap upper bounds")
        self._k = k = pattern.num_subpatterns
        self._window = pattern.windows
        # per layer from 1: the retained nodes and the first one's absolute index
        self._layers = [([], [], []) for _ in range(k + 1)]
        self._base = [0] * (k + 1)
        self._live = 0
        self.prune = prune
        self.on_match = on_match
        # only pruning reads the tail spans
        self._horizons = tail_span_bounds(pattern) if prune else ()
        from .automaton import RunReport  # not loaded by the bit engine
        self.counters = RunReport(k)

    def feed(self, event: OccEvent) -> None:
        pos = event.position
        counters = self.counters
        for layer in event.layers:
            counters.occurrences += 1
            first = last = None
            if layer > 1:
                # pruning keeps every node searched here: a previous-layer
                # node goes only once pos passes its end by its tail span,
                # at least this gap's upper bound plus this piece's length
                if self.prune:
                    self._purge(layer - 1, pos)
                prev = self._layers[layer - 1][0]
                far, near = self._window[layer - 2]
                lo = bisect_left(prev, pos - far)
                hi = bisect_right(prev, pos - near, lo)
                if len(prev) - lo > counters.peak_dual_ranges[layer - 2]:
                    counters.peak_dual_ranges[layer - 2] = len(prev) - lo
                if lo == hi:
                    continue
                at = self._base[layer - 1]
                first, last = at + lo, at + hi - 1
            counters.nodes_created += 1
            if layer == self._k:
                if self.on_match is not None:
                    self.on_match((pos, first, last))
                if self.prune:  # the node exists only transiently
                    counters.peak_live_nodes = max(counters.peak_live_nodes,
                                                   self._live + 1)
                    continue
            if self.prune:
                self._purge(layer, pos)
            ends, firsts, lasts = self._layers[layer]
            ends.append(pos)
            if first is not None:
                firsts.append(first)
                lasts.append(last)
            self._live += 1
            if self._live > counters.peak_live_nodes:
                counters.peak_live_nodes = self._live

    def _purge(self, layer: int, pos: int) -> None:
        """Drop ``layer``'s nodes that no match ending at or after ``pos`` can
        use.  Purged before it grows, a layer holds at most 1 + its tail span."""
        ends, firsts, lasts = self._layers[layer]
        horizon = pos - self._horizons[layer - 1]
        if ends and ends[0] < horizon:
            gone = bisect_left(ends, horizon)
            del ends[:gone], firsts[:gone], lasts[:gone]
            self._base[layer] += gone
            self._live -= gone
            self.counters.nodes_purged += gone

    def finish(self) -> "GraphBuilder":
        """The graph as built so far; the builder itself answers graph queries."""
        return self

    def layer(self, index: int) -> list[int]:
        """End positions of one layer's retained nodes (1-based), ascending."""
        return self._layers[index][0]

    def links(self, index: int) -> Iterator[tuple[int, int, int]]:
        """``(end, first_end, last_end)`` per retained node of a layer after the first."""
        prev, at = self._layers[index - 1][0], self._base[index - 1]
        for end, first, last in zip(*self._layers[index]):
            yield end, prev[first - at], prev[last - at]

    def nodes(self) -> Iterator[tuple[int, int]]:
        """``(layer, end)`` per retained node, by layer, then by end."""
        for layer in range(1, self._k + 1):
            for end in self._layers[layer][0]:
                yield layer, end

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """``(layer, end, pred_end)`` per link; a single one when the links coincide."""
        for layer in range(2, self._k + 1):
            for end, first, last in self.links(layer):
                yield layer, end, first
                if last != first:
                    yield layer, end, last


def build_implicit_gap_graph(pattern: VlgPattern,
                             text: bytes | str) -> GraphBuilder:
    """Graph of all relevant occurrences of ``pattern`` in ``text``.

    Relevance only looks backwards, so the graph can be nonempty even
    when the text is too short to hold a complete match.
    """
    builder = GraphBuilder(pattern)
    pattern.automaton.stream(text, builder.feed)
    return builder.finish()
