"""Streaming decision matcher: which positions end a full pattern match.

One sorted interval list per pattern layer (from the second onward) stores
the start positions at which a future occurrence of that layer's literal
would extend a partially matched prefix.  Occurrence events are consumed
in position order; each event purges entries that can no longer be hit,
tests the occurrence against the first stored range, and on success either
extends the next layer's list or reports a match end.

Gap upper bounds may be unbounded here; open-ended ranges never die and
absorb every later merge.
"""

from __future__ import annotations

from typing import Callable, Iterator

from .automaton import OccEvent
from .pattern import GapBounds, VlgPattern

# ranges are (start, end) tuples; end None = open-ended
Range = tuple[int, "int | None"]

# observer(phase, event, lists_snapshot); phase is "before" or "after"
Observer = Callable[[str, OccEvent, dict[int, list[Range]]], None]


def max_live_ranges(gap: GapBounds, next_sublen: int) -> int:
    """Worst-case number of ranges a bounded-gap layer list can hold."""
    width = gap.num_lengths
    return (2 * width + next_sublen + gap.lower) // (width + 1)


class RangeList:
    """Sorted, disjoint start-position ranges admitted for one layer.

    Consecutive stored ranges always satisfy next.start > prev.end + 1;
    appends that overlap or adjoin the last range are merged into it.
    """

    __slots__ = ("ranges", "layer", "sublen")

    def __init__(self, layer: int, sublen: int) -> None:
        self.ranges: list[Range] = []
        self.layer = layer
        self.sublen = sublen

    def purge_dead(self, pos: int) -> int:
        """Drop leading ranges no occurrence ending at or after ``pos`` can start in."""
        cutoff = pos - self.sublen + 1
        ranges = self.ranges
        j = 0
        while j < len(ranges):
            end = ranges[j][1]
            if end is None or end >= cutoff:
                break
            j += 1
        if j:
            del ranges[:j]
        return j

    def append_merge(self, start: int, end: int | None) -> None:
        """Add [start, end] at the tail; starts arrive nondecreasing."""
        ranges = self.ranges
        if ranges:
            last_start, last_end = ranges[-1]
            if last_end is None:
                return  # open-ended tail already covers everything later
            if start <= last_end + 1:
                if end is None:
                    ranges[-1] = (last_start, None)
                elif end > last_end:
                    ranges[-1] = (last_start, end)
                return
        ranges.append((start, end))

    def first_contains(self, pos: int) -> bool:
        if not self.ranges:
            return False
        start, end = self.ranges[0]
        return start <= pos and (end is None or pos <= end)


class MatchCounters:
    def __init__(self, layers: int) -> None:
        self.occurrences = self.appended = self.purged = self.reported = 0
        self.layer_occurrences = [0] * layers  # index i-1 = layer i's occurrences
        self.peak_ranges = [0] * (layers - 1)  # index i-2 = peak size of layer i's list


class MatcherState:
    """One streaming pass over a text for a fixed pattern."""

    def __init__(self, pattern: VlgPattern, *,
                 observer: Observer | None = None) -> None:
        self.pattern = pattern
        self._k = pattern.num_subpatterns
        self._sublen = [len(piece) for piece in pattern.subpatterns]
        self.lists: dict[int, RangeList] = {
            layer: RangeList(layer, self._sublen[layer - 1])
            for layer in range(2, self._k + 1)
        }
        self.counters = MatchCounters(self._k)
        self._observer = observer
        self._last_emit = 0

    def _snapshot(self) -> dict[int, list[Range]]:
        return {layer: list(rl.ranges) for layer, rl in self.lists.items()}

    def process_event(self, event: OccEvent, emit: Callable[[int], None]) -> None:
        """Consume one occurrence event; events must arrive in position order."""
        counters = self.counters
        if self._observer is not None:
            self._observer("before", event, self._snapshot())
        pos = event.position
        lists = self.lists
        last_layer = self._k
        for layer in event.layers:
            counters.occurrences += 1
            counters.layer_occurrences[layer - 1] += 1
            here = lists.get(layer)
            ahead = lists.get(layer + 1)
            if here is not None:
                counters.purged += here.purge_dead(pos)
            if ahead is not None:
                counters.purged += ahead.purge_dead(pos)
            if layer > 1 and not here.first_contains(
                    pos - self._sublen[layer - 1] + 1):
                continue
            if layer < last_layer:
                gap = self.pattern.gaps[layer - 1]
                upper = None if gap.upper is None else pos + gap.upper + 1
                ahead.append_merge(pos + gap.lower + 1, upper)
                counters.appended += 1
                size = len(ahead.ranges)
                if size > counters.peak_ranges[layer - 1]:
                    counters.peak_ranges[layer - 1] = size
            elif pos != self._last_emit:
                emit(pos)
                counters.reported += 1
                self._last_emit = pos
        if self._observer is not None:
            self._observer("after", event, self._snapshot())

    def ends(self, text: bytes | str) -> Iterator[int]:
        """Scan ``text``, yielding its match end positions, ascending, after
        each scan block, so only one block's ends are held."""
        automaton = self.pattern.automaton
        emits, process, found = automaton._emits, self.process_event, []
        for _, positions, states in automaton.scan(text):
            for pos, state in zip(positions, states):
                process(OccEvent(pos, emits[state]), found.append)
            yield from found
            found.clear()

    def scan(self, text: bytes | str) -> list[int]:
        """Stream ``text`` and return all match end positions, ascending."""
        return list(self.ends(text))


def find_endpoints(pattern: VlgPattern, text: bytes | str, *,
                   observer: Observer | None = None) -> list[int]:
    """End positions (1-based, ascending) of substrings matching ``pattern``."""
    return MatcherState(pattern, observer=observer).scan(text)
