"""Multi-string scanning over byte texts.

Builds the classic trie-with-failure-links automaton once, then compiles
it into a dense goto table over the pattern's alphabet, so the scan takes
exactly one table lookup per text byte and no failure step.  The trie's
labels stay sorted for construction and inspection; nothing is assumed
about the alphabet beyond byte values.

Each state carries at most one string id (the longest string equal to the
state's path) plus a link to the state of the next-longest string that is
a proper suffix of the path.  Following that chain enumerates every string
ending at the current position, longest first, in time linear in their
number; the compiled table stores that chain's layers once per state.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import Callable, Iterable, Iterator, NamedTuple

from .pattern import ensure_bytes

# text bytes translated to alphabet ranks at a time
_BLOCK = 1 << 16


class OccEvent(NamedTuple):
    """All subpattern hits ending at one text position (1-based)."""

    position: int
    layers: tuple[int, ...]  # ascending 1-based layer indices


class StreamCounters(NamedTuple):
    positions: int
    failure_steps: int


class _State:
    __slots__ = ("labels", "children", "fail", "word", "out")

    def __init__(self) -> None:
        self.labels: list[int] = []
        self.children: list[_State] = []
        self.fail: _State | None = None
        # id of the distinct string spelled by the path to this state
        self.word: int | None = None
        # nearest state along the failure chain carrying a word
        self.out: _State | None = None

    def child(self, label: int) -> _State | None:
        labels = self.labels
        i = bisect_left(labels, label)
        if i < len(labels) and labels[i] == label:
            return self.children[i]
        return None

    def _add_child(self, label: int) -> _State:
        labels = self.labels
        i = bisect_left(labels, label)
        if i < len(labels) and labels[i] == label:
            return self.children[i]
        node = _State()
        labels.insert(i, label)
        self.children.insert(i, node)
        return node


class Automaton:
    """Shareable matching automaton for a fixed set of strings.

    ``strings`` is one byte string per pattern layer; duplicates are
    allowed and deduplicated internally while remembering every layer a
    string belongs to.
    """

    def __init__(self, strings: Iterable[bytes | str]) -> None:
        pieces = [ensure_bytes(s) for s in strings]
        if not pieces:
            raise ValueError("automaton needs at least one string")
        if any(not s for s in pieces):
            raise ValueError("empty string in automaton input")
        self._root = _State()
        self._words: list[bytes] = []
        self._layer_map: list[list[int]] = []  # word id -> 1-based layers
        self._size = 1
        ids: dict[bytes, int] = {}
        for layer, piece in enumerate(pieces, start=1):
            word_id = ids.get(piece)
            if word_id is None:
                word_id = len(self._words)
                ids[piece] = word_id
                self._words.append(piece)
                self._layer_map.append([])
                node = self._root
                for label in piece:
                    before = node.child(label)
                    node = node._add_child(label)
                    if before is None:
                        self._size += 1
                node.word = word_id
            self._layer_map[word_id].append(layer)
        self._compile(self._link())

    def _link(self) -> list[_State]:
        """Set failure and output links; returns the states breadth first."""
        root = self._root
        root.fail = root
        order = [root]
        queue: deque[_State] = deque()
        for child in root.children:
            child.fail = root
            queue.append(child)
        while queue:
            state = queue.popleft()
            order.append(state)
            assert state.fail is not None
            state.out = state.fail if state.fail.word is not None else state.fail.out
            for label, child in zip(state.labels, state.children):
                target = state.fail
                nxt = target.child(label)
                while nxt is None and target is not root:
                    target = target.fail
                    nxt = target.child(label)
                child.fail = nxt if nxt is not None and nxt is not child else root
                queue.append(child)
        return order

    def _compile(self, order: list[_State]) -> None:
        """Fill the goto table from the linked trie.

        A text byte is translated to its rank in the pattern's alphabet;
        the last column takes every byte that is in no string and always
        leads to the root.  State ids are premultiplied by the row width,
        so one step is ``goto[state + rank]``.  States whose output chain
        is non-empty are numbered last, from ``limit`` on, and ``emits``
        maps each of them to the ascending layers that end there.
        """
        alphabet = sorted({c for word in self._words for c in word})
        width = len(alphabet) + 1
        # the absent rank len(alphabet) is < 256 whenever some byte is absent
        ranks = {c: i for i, c in enumerate(alphabet)}
        rank = bytes(ranks.get(c, len(alphabet)) for c in range(256))
        quiet = [s for s in order if s.word is None and s.out is None]
        ends = [s for s in order if s.word is not None or s.out is not None]
        ids = {state: i * width for i, state in enumerate(quiet + ends)}
        goto = [0] * (len(order) * width)
        # breadth first, a failure state's row is complete before it is copied
        for state in order:
            base = ids[state]
            if state is not self._root:
                fail = ids[state.fail]
                goto[base:base + width] = goto[fail:fail + width]
            for label, child in zip(state.labels, state.children):
                goto[base + rank[label]] = ids[child]
        emits: dict[int, tuple[int, ...]] = {}
        for state in ends:
            layers: list[int] = []
            hit = state if state.word is not None else state.out
            while hit is not None:
                layers.extend(self._layer_map[hit.word])
                hit = hit.out
            emits[ids[state]] = tuple(sorted(layers))
        self._rank = rank
        self._goto = goto
        self._limit = len(quiet) * width
        self._emits = emits

    @property
    def num_states(self) -> int:
        return self._size

    @property
    def strings(self) -> tuple[bytes, ...]:
        """Distinct input strings, in first-seen order (index = word id)."""
        return tuple(self._words)

    def layers_of(self, word_id: int) -> tuple[int, ...]:
        return tuple(self._layer_map[word_id])

    def walk(self) -> Iterator[tuple[bytes, _State]]:
        """(path, state) pairs in breadth-first order; handy for inspection."""
        queue: deque[tuple[bytes, _State]] = deque([(b"", self._root)])
        while queue:
            path, state = queue.popleft()
            yield path, state
            for label, child in zip(state.labels, state.children):
                queue.append((path + bytes([label]), child))

    def stream(self, text: bytes | str,
               sink: Callable[[OccEvent], None]) -> StreamCounters:
        """Scan ``text`` and hand every occurrence event to ``sink``.

        Events arrive in strictly increasing position order; positions with
        no occurrence produce no event.  The text is translated to alphabet
        ranks in blocks of ``_BLOCK`` bytes, so the scan holds no full-text
        copy.  Returns counters: positions is the text length, and
        failure_steps is always 0 because the compiled table takes no
        failure step.
        """
        data = ensure_bytes(text)
        rank, goto, limit, emits = self._rank, self._goto, self._limit, self._emits
        state = 0
        pos = 0
        for start in range(0, len(data), _BLOCK):
            for c in data[start:start + _BLOCK].translate(rank):
                pos += 1
                state = goto[state + c]
                if state >= limit:
                    sink(OccEvent(pos, emits[state]))
        return StreamCounters(pos, 0)


def build_automaton(strings: Iterable[bytes | str]) -> Automaton:
    return Automaton(strings)
