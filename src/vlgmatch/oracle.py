"""Brute-force reference implementations used to cross-check the engines.

Everything here favours directness over speed: occurrence scanning compares
slices, relevance is a forward pass straight from the definition, and
combination enumeration backtracks over the relevant ends, without
recursion.  Inputs are capped so misuse fails loudly instead of hanging a
test run.

Shares no code with the engines beyond the pattern type.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .pattern import GapBounds, VlgPattern, ensure_bytes

MAX_TEXT = 10_000
MAX_COMBINATIONS = 10_000_000


def naive_occurrences(needle: bytes | str, text: bytes | str) -> list[int]:
    """1-based end positions of ``needle`` in ``text`` by sliding comparison."""
    needle = ensure_bytes(needle)
    text = ensure_bytes(text)
    width = len(needle)
    if width == 0:
        raise ValueError("empty needle")
    return [end for end in range(width, len(text) + 1)
            if text[end - width:end] == needle]


def occurrences_by_layer(pattern: VlgPattern,
                         text: bytes | str) -> list[list[int]]:
    text = ensure_bytes(text)
    return [naive_occurrences(piece, text) for piece in pattern.subpatterns]


def _pred_window(end: int, sublen: int, gap: GapBounds) -> tuple[int, int]:
    # end positions of previous-layer occurrences that an occurrence
    # ending at `end` may directly follow
    start = end - sublen + 1
    hi = start - gap.lower - 1
    lo = 0 if gap.upper is None else start - gap.upper - 1
    return lo, hi


def brute_force_relevant(pattern: VlgPattern,
                         text: bytes | str) -> list[list[int]]:
    """Per layer, sorted end positions of the relevant occurrences.

    Layer 1 occurrences are all relevant; a later occurrence is relevant
    iff some relevant previous-layer occurrence ends inside its
    predecessor window.
    """
    occs = occurrences_by_layer(pattern, text)
    relevant: list[list[int]] = [occs[0]]
    for i in range(1, pattern.num_subpatterns):
        prev = relevant[-1]
        gap = pattern.gaps[i - 1]
        sublen = len(pattern.subpatterns[i])
        keep = []
        for end in occs[i]:
            lo, hi = _pred_window(end, sublen, gap)
            if bisect_left(prev, lo) < bisect_right(prev, hi):
                keep.append(end)
        relevant.append(keep)
    return relevant


def brute_force_endpoints(pattern: VlgPattern, text: bytes | str) -> list[int]:
    """Match end positions: the final layer of the relevance pass."""
    return brute_force_relevant(pattern, text)[-1]


def combination_count(pattern: VlgPattern, text: bytes | str) -> int:
    """Exact number of match combinations (path-counting pass)."""
    relevant = brute_force_relevant(pattern, text)
    counts = [1] * len(relevant[0])
    for i in range(1, pattern.num_subpatterns):
        prev_ends = relevant[i - 1]
        prefix = [0]
        for value in counts:
            prefix.append(prefix[-1] + value)
        gap = pattern.gaps[i - 1]
        sublen = len(pattern.subpatterns[i])
        nxt = []
        for end in relevant[i]:
            lo, hi = _pred_window(end, sublen, gap)
            nxt.append(prefix[bisect_right(prev_ends, hi)]
                       - prefix[bisect_left(prev_ends, lo)])
        counts = nxt
    return sum(counts)


def brute_force_combinations(pattern: VlgPattern,
                             text: bytes | str) -> set[tuple[int, ...]]:
    """Every match combination, by backtracking with an explicit stack from
    each relevant final end through the relevant ends in each predecessor
    window.  Every relevant end chains back to layer 1, so the search never
    dead-ends.  Raises ValueError when the text or the (pre-counted) output
    would exceed the safety caps."""
    text = ensure_bytes(text)
    if len(text) > MAX_TEXT:
        raise ValueError(f"text of {len(text)} bytes exceeds oracle cap {MAX_TEXT}")
    total = combination_count(pattern, text)
    if total > MAX_COMBINATIONS:
        raise ValueError(f"{total} combinations exceed oracle cap {MAX_COMBINATIONS}")
    relevant = brute_force_relevant(pattern, text)
    k = pattern.num_subpatterns
    out: set[tuple[int, ...]] = set()
    stack = [(end,) for end in relevant[-1]]
    while stack:
        suffix = stack.pop()
        i = k - len(suffix)  # suffix[0]'s layer, counted from 0
        if i == 0:
            out.add(suffix)
            continue
        lo, hi = _pred_window(suffix[0], len(pattern.subpatterns[i]), pattern.gaps[i - 1])
        prev = relevant[i - 1]
        stack += [(end, *suffix)
                  for end in prev[bisect_left(prev, lo):bisect_right(prev, hi)]]
    return out


def is_compatible(pattern: VlgPattern, layer: int,
                  prev_end: int, end: int) -> bool:
    """May a layer-(layer-1) occurrence at ``prev_end`` directly precede a
    layer occurrence at ``end``?"""
    gap = pattern.gaps[layer - 2]
    start = end - len(pattern.subpatterns[layer - 1]) + 1
    if start < prev_end + gap.lower + 1:
        return False
    return gap.upper is None or start <= prev_end + gap.upper + 1


def first_last_compatible(pattern: VlgPattern, text: bytes | str
                          ) -> dict[tuple[int, int], tuple[int, int]]:
    """(layer, end) -> ends of the first and last compatible relevant
    predecessor, for every relevant occurrence of layers >= 2."""
    relevant = brute_force_relevant(pattern, text)
    out: dict[tuple[int, int], tuple[int, int]] = {}
    for i in range(1, pattern.num_subpatterns):
        prev = relevant[i - 1]
        gap = pattern.gaps[i - 1]
        sublen = len(pattern.subpatterns[i])
        for end in relevant[i]:
            lo, hi = _pred_window(end, sublen, gap)
            a = bisect_left(prev, lo)
            b = bisect_right(prev, hi)
            out[(i + 1, end)] = (prev[a], prev[b - 1])
    return out
