"""Multi-string scanning over byte texts.

The pieces are compiled into a dense Aho-Corasick goto table over the
pattern's alphabet, so the scan takes exactly one table lookup per text
byte and no failure step.  Each state stands for one distinct prefix of
the pieces; a byte leads to the state of the longest suffix of the
prefix plus that byte which is itself a prefix.  A state emits the
layers of every piece that is a suffix of its prefix.  Nothing is
assumed about the alphabet beyond byte values.  ``scan`` hands over each
text block's occurrences as two lists; ``stream`` turns them into events.
``RunReport`` is the one type in which every streaming engine counts.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, NamedTuple

from .pattern import ensure_bytes

# text bytes translated to alphabet ranks, and scanned, at a time
_BLOCK = 1 << 12


class OccEvent(NamedTuple):
    """All subpattern hits ending at one text position (1-based)."""

    position: int
    layers: tuple[int, ...]  # ascending 1-based layer indices


class RunReport:
    """What one streaming run counted; a field its engine does not count
    stays 0.  ``Automaton.stream`` counts positions and failure_steps.
    ``MatcherState`` counts occurrences, layer_occurrences, appended,
    purged, reported and peak_ranges.  ``GraphBuilder`` counts occurrences,
    nodes_created, nodes_purged, peak_live_nodes and peak_dual_ranges.
    ``chunked_runs`` counts chunks (every scan block), peak_graphs (1 once
    a graph is built) and emitted (combinations)."""

    def __init__(self, layers: int = 0) -> None:
        self.positions = self.failure_steps = self.occurrences = 0
        self.appended = self.purged = self.reported = self.emitted = 0
        self.nodes_created = self.nodes_purged = self.peak_live_nodes = 0
        self.chunks = self.peak_graphs = 0
        self.layer_occurrences = [0] * layers  # index i-1 = layer i's
        # index i-2 = layer i's peak range-list size, and its peak count of
        # layer-(i-1) nodes at or after one lookup's window start
        self.peak_ranges = [0] * (layers - 1)
        self.peak_dual_ranges = [0] * (layers - 1)


class Automaton:
    """Shareable matching automaton for a fixed set of strings.

    ``strings`` is one byte string per pattern layer; duplicates are
    allowed, and their state emits every layer they belong to.

    A text byte is translated to its rank in the pattern's alphabet; the
    last column takes every byte that is in no string and always leads to
    the root.  State ids are premultiplied by the row width, so one step
    is ``goto[state + rank]``.  States that emit are numbered last, from
    ``limit`` on, and ``emits`` maps each of them to its ascending layers.
    """

    def __init__(self, strings: Iterable[bytes | str]) -> None:
        pieces = [ensure_bytes(s) for s in strings]
        if not pieces:
            raise ValueError("automaton needs at least one string")
        if any(not s for s in pieces):
            raise ValueError("empty string in automaton input")
        # the trie: children[state] maps a byte to the child state
        children: list[dict[int, int]] = [{}]
        spelled: dict[int, list[int]] = {}  # state -> layers spelling its path
        for layer, piece in enumerate(pieces, start=1):
            state = 0
            for c in piece:
                nxt = children[state].get(c)
                if nxt is None:
                    nxt = children[state][c] = len(children)
                    children.append({})
                state = nxt
            spelled.setdefault(state, []).append(layer)
        # breadth first, so a state's failure state is done before it
        order = [0]
        fail = [0] * len(children)
        layers: list[tuple[int, ...]] = [()] * len(children)
        for state in order:
            for c, child in children[state].items():
                if state:
                    target = fail[state]
                    while target and c not in children[target]:
                        target = fail[target]
                    fail[child] = children[target].get(c, 0)
                layers[child] = tuple(sorted(
                    [*spelled.get(child, ()), *layers[fail[child]]]))
                order.append(child)
        alphabet = sorted({c for piece in pieces for c in piece})
        width = len(alphabet) + 1
        # the absent rank len(alphabet) is < 256 whenever some byte is absent
        ranks = {c: i for i, c in enumerate(alphabet)}
        rank = bytes(ranks.get(c, len(alphabet)) for c in range(256))
        ids = [0] * len(order)
        quiet = [s for s in order if not layers[s]]
        for i, state in enumerate(quiet + [s for s in order if layers[s]]):
            ids[state] = i * width
        goto = [0] * (len(order) * width)
        # breadth first, a failure state's row is complete before it is copied
        for state in order:
            base = ids[state]
            if state:
                row = ids[fail[state]]
                goto[base:base + width] = goto[row:row + width]
            for c, child in children[state].items():
                goto[base + rank[c]] = ids[child]
        self.num_states = len(order)
        self._rank = rank
        self._goto = goto
        self._limit = len(quiet) * width
        self._emits = {ids[s]: layers[s] for s in order if layers[s]}

    def scan(self, text: bytes | str) -> Iterator[tuple[int, list[int], list[int]]]:
        """Per ``_BLOCK`` text bytes, translated only when scanned: the block's
        last position (1-based), and the ascending positions of its
        occurrences with the state, a key of ``_emits``, reached at each."""
        data = ensure_bytes(text)
        rank, goto, limit, block = self._rank, self._goto, self._limit, _BLOCK
        state = pos = 0
        for start in range(0, len(data), block):
            positions, states = [], []
            at, keep = positions.append, states.append
            for c in data[start:start + block].translate(rank):
                pos += 1
                state = goto[state + c]
                if state >= limit:
                    at(pos)
                    keep(state)
            yield pos, positions, states

    def stream(self, text: bytes | str,
               sink: Callable[[OccEvent], None]) -> RunReport:
        """Hand ``sink`` each position's occurrence event, ascending, one
        ``scan`` block at a time.  The report's positions is the text length,
        and its failure_steps 0, as the table takes no failure step."""
        emits, report = self._emits, RunReport()
        for stop, positions, states in self.scan(text):
            for pos, state in zip(positions, states):
                sink(OccEvent(pos, emits[state]))
            report.positions = stop
        return report


def build_automaton(strings: Iterable[bytes | str]) -> Automaton:
    return Automaton(strings)
