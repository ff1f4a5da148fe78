"""Bit-parallel matching over text blocks.

One bit per text position in a Python ``int``, in the style of the
bit-parallel NFA of Navarro & Raffinot (J. Comput. Biol. 10(6), 2003).
The text is processed block by block, so memory depends on the pattern,
not on the text.

Within a block the most significant bit is the earliest position.  A
byte's mask is ``int(window.translate(table), 2)``, and a piece ends
where the AND of its bytes' masks, each shifted by the byte's distance to
the piece's end, is set.  The forward pass keeps each layer's relevant
occurrence ends.  A gap ``.{a,b}`` before a piece of length p shifts the
previous layer's bits a + p positions later and smears them over
b - a + 1 positions by doubling.  An unbounded gap admits every position
from the previous layer's earliest relevant end plus a + p on.  The last
H bits of every layer but the last carry into the next block, H the
match span less one (with an unbounded gap, the widest bounded gap plus
the piece after it), enough to reach every occurrence on a match in it.

``BitPlan`` has ``reporter.StreamPlan``'s methods.  ``ends`` reads the
match ends off the last layer.  ``runs`` passes backward from a block's
match ends, keeping only occurrences on some match ending in the block,
links them with ``gapgraph.link``, as the chunked reporter does its
windows, and hands the block's runs, from ``gapgraph.expand``, to the sink.

``count`` reads what ``stats`` reports off the same blocks.  A
layer's occurrences are the set bits of its piece's AND chain before the
relevance AND, the matches are the last layer's bits, and β is the path
count (``gapgraph.count_paths``) of the block graphs ``runs`` expands.
``peak_ranges`` needs no matcher either.  After a gap ``.{a,b}`` before
a piece of length p, the matcher's list holds one range per cluster of
relevant ends at most w = b - a + 1 apart, until h = b + p positions past
the cluster's last end.  So when a relevant end e appends, the list holds
1 + the cluster ends (relevant ends with none in the w positions after
them) in [e - h, e), and it never holds more than 1 + h // (w + 1).  An
unbounded gap's list holds one open range from its first relevant end.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress
from typing import TYPE_CHECKING, Iterator

from .pattern import VlgPattern, ensure_bytes

if TYPE_CHECKING:  # ``match`` runs without the graph module
    from .gapgraph import Counts, Graph, RunSink

# The CLI runs this engine for patterns with at most MAX_SIGMA distinct
# bytes, at most MAX_LITERAL literal bytes and at most MAX_CARRY carried
# bits.  Each block costs one mask per distinct byte and one shift per
# literal byte, while the streaming scan costs one table lookup per text
# byte; these are the measured crossovers on text where the pieces rarely
# occur.  A block is at least as long as the carry, and its copies and
# masks take a few bytes per position, so past MAX_CARRY the streaming
# engine is both smaller and faster.
MAX_SIGMA = 8
MAX_LITERAL = 100
MAX_CARRY = 1 << 14
MIN_BLOCK = 1024

# "0"/"1" digits to false/true selectors for itertools.compress
_SELECT = bytes.maketrans(b"01", b"\0\1")


def suits(pattern: VlgPattern) -> bool:
    """Whether the bit engine is the faster and smaller choice for ``pattern``."""
    return (pattern.literal_length <= MAX_LITERAL
            and len(set(b"".join(pattern.subpatterns))) <= MAX_SIGMA
            and _carry(pattern) <= MAX_CARRY)


def _carry(pattern: VlgPattern) -> int:
    """The bits a layer carries between blocks: a match's span less one, so
    ``runs`` reaches every occurrence on a match ending in the block; with
    an unbounded gap, the widest bounded gap plus the piece after it."""
    span = pattern.max_match_span
    if span is not None:
        return span - 1
    return max((gap.upper + len(after)
                for gap, after in zip(pattern.gaps, pattern.subpatterns[1:])
                if gap.upper is not None), default=0)


def _positions(bits: int, stop: int) -> Iterator[int]:
    """1-based positions of the set bits, ascending; bit 0 is position ``stop``."""
    top = bits.bit_length()
    return compress(range(stop - top + 1, stop + 1),
                    format(bits, "b").encode().translate(_SELECT))


def _smear_later(bits: int, width: int) -> int:
    """Each set bit also sets the ``width - 1`` positions after it."""
    done = 1
    while done < width:
        step = min(done, width - done)
        bits |= bits >> step
        done += step
    return bits


class BitPlan:
    """The bit engine's per-pattern tables; build one per pattern and reuse it."""

    def __init__(self, pattern: VlgPattern) -> None:
        pieces = pattern.subpatterns
        alphabet = sorted(set(b"".join(pieces)))
        zeros = b"0" * 256
        self._tables = [zeros[:c] + b"1" + zeros[c + 1:] for c in alphabet]
        index = {c: i for i, c in enumerate(alphabet)}
        # per piece, (mask index, distance from the byte to the piece's end)
        self._pieces = [[(index[c], len(piece) - 1 - at)
                         for at, c in enumerate(piece)] for piece in pieces]
        # per gap, the next piece ends shift to shift + width - 1 positions
        # after the previous one; width None is unbounded
        self._gaps = [(gap.lower + len(after),
                       None if gap.upper is None else gap.upper - gap.lower + 1)
                      for gap, after in zip(pattern.gaps, pieces[1:])]
        self._lead = max(map(len, pieces)) - 1
        self._keep = _carry(pattern)
        self._bounded = pattern.bounded
        self._pattern = pattern

    def _forward(self, data: bytes, occurrences: list[int] | None = None
                 ) -> Iterator[tuple[int, int, list[int]]]:
        """Per block: its end (0-based, exclusive), its length, each layer's bits.

        Bit 0 is the block's last position.  A layer's bits cover the
        block and up to ``_keep`` positions before it; the last layer's
        cover the block only.  ``occurrences``, if given, gains each
        layer's occurrences in the block, relevant or not.
        """
        tables, pieces, gaps, lead = self._tables, self._pieces, self._gaps, self._lead
        keep = self._keep
        size = max(MIN_BLOCK, keep, lead + 1)
        tail = (1 << keep) - 1 if size < len(data) else 0
        last = len(pieces) - 1
        carry = [0] * last
        earliest: list[int | None] = [None] * last
        for start in range(0, len(data), size):
            stop = min(start + size, len(data))
            length = stop - start
            window = data[max(0, start - lead):stop]
            masks = [int(window.translate(table), 2) for table in tables]
            block = (1 << length) - 1
            reach = block
            layers = []
            for i, piece in enumerate(pieces):
                bits = block
                for char, distance in piece:
                    bits &= masks[char] >> distance
                if occurrences is not None:
                    occurrences[i] += bits.bit_count()
                bits &= reach
                if i == last:
                    layers.append(bits)
                    break
                bits |= carry[i] << length
                layers.append(bits)
                carry[i] = bits & tail
                shift, width = gaps[i]
                if width is not None:
                    reach = _smear_later(bits >> shift, width)
                    continue
                if earliest[i] is None and bits:
                    earliest[i] = stop - bits.bit_length()
                first = earliest[i]
                admitted = 0 if first is None else min(length, stop - first - shift)
                reach = (1 << admitted) - 1 if admitted > 0 else 0
            yield stop, length, layers

    def ends(self, text: bytes | str) -> Iterator[int]:
        """Match end positions (1-based, ascending), as ``find_endpoints`` gives."""
        for stop, _, layers in self._forward(ensure_bytes(text)):
            yield from _positions(layers[-1], stop)

    def runs(self, text: bytes | str, sink: RunSink) -> None:
        """Hand ``sink`` the runs ``(suffix, firsts)`` of every combination,
        once per block that holds a match.

        They come in ``report_on_the_fly``'s order: by last end, then by
        the earlier ends from the last to the first.  Requires bounded gaps.
        """
        if not self._bounded:
            raise ValueError("combination reporting requires bounded gaps")
        from .gapgraph import expand
        base = [0] * (len(self._pieces) + 1)
        for stop, length, layers in self._forward(ensure_bytes(text)):
            if layers[-1]:
                sink(expand(self._graph(stop, length, layers), base))

    def count(self, text: bytes | str) -> Counts:
        """``stats``' counts, equal to those of ``MatcherState`` and
        ``count_combinations``; ``beta`` is None with an unbounded gap."""
        from .gapgraph import Counts, count_paths
        occurrences = [0] * len(self._pieces)
        matches = beta = 0
        base = [0] * (len(self._pieces) + 1)
        # per gap: how far past its cluster's last end a range lives, how
        # far apart ends join one range, and ``matcher.max_live_ranges``
        ranges = [(None, None, 1) if width is None else
                  (shift + width - 1, width, 1 + (shift + width - 1) // (width + 1))
                  for shift, width in self._gaps]
        peaks = [0] * len(ranges)
        for stop, length, layers in self._forward(ensure_bytes(text), occurrences):
            found = layers[-1]
            if found:
                matches += found.bit_count()
                if self._bounded:
                    beta += count_paths(self._graph(stop, length, layers), base)
            block = (1 << length) - 1
            for i, (reach, width, most) in enumerate(ranges):
                ends = layers[i]
                if peaks[i] == most or not ends & block:
                    continue
                peaks[i] = max(peaks[i], 1)
                if width is None:  # one open range absorbs every later one
                    continue
                # an end with no end in the width after it closes its range
                # (a smear past the bits held reaches no end); ``late`` are
                # the ends whose append finds a closed range still held
                width = min(width, ends.bit_length())
                closing = ends & ~_smear_later(ends << width, width)
                late = ends & block & _smear_later(closing >> 1, reach)
                if late:
                    closed = list(_positions(closing, stop))
                    for end in _positions(late, stop):
                        held = bisect_left(closed, end) - bisect_left(closed, end - reach)
                        peaks[i] = max(peaks[i], 1 + held)
        return Counts(occurrences, matches, beta if self._bounded else None, peaks)

    def _graph(self, stop: int, length: int, layers: list[int]) -> Graph:
        """The block's graph, from ``gapgraph.link``: the occurrences on
        some match ending in the block, each linked to its predecessor run."""
        from .gapgraph import gap_windows, link
        windows = gap_windows(self._pattern)
        found = layers[-1]
        window = length + min(self._keep, stop - length)
        ends = [list(_positions(found, stop))]
        for bits, (far, near) in zip(layers[-2::-1], windows[::-1]):
            # an end's predecessors lie near to far positions earlier
            width = min(far - near + 1, window)
            found = bits & _smear_later(found << (near + width - 1), width)
            ends.append(list(_positions(found, stop)))
        return link(ends[::-1], windows)
