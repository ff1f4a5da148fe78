"""Combination reporting: expansion, counting, chunked and streaming drivers."""

from __future__ import annotations

import gc
import random
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from vlgmatch import reporter
from vlgmatch.gapgraph import build_implicit_gap_graph, tail_span_bounds
from vlgmatch.oracle import brute_force_combinations, combination_count
from vlgmatch.pattern import parse_pattern
from vlgmatch.reporter import (count_combinations, expand_combinations,
                               plan_chunks, report_chunked, report_on_the_fly)

# Every combination of the four-piece example whose match ends at 17.
COMBOS_ENDING_17 = helpers.COMBO_FIVE | {
    (4, 6, 10, 17), (4, 6, 12, 17), (4, 8, 10, 17), (4, 8, 12, 17),
}


def _collect(report, *args, **kwargs):
    out: list[tuple[int, ...]] = []
    report(*args, out.append, **kwargs)
    return out


def test_match_region_decomposes_into_exactly_five():
    """Restricted to the characters of the match from 5 to 17, the
    four-piece pattern has exactly five combinations."""
    region = helpers.EXAMPLE_TEXT[4:17]
    pattern = parse_pattern(helpers.COMBO_PATTERN)
    graph = build_implicit_gap_graph(pattern, region)
    got = set(_collect(report_on_the_fly, pattern, region))
    shifted = {tuple(e + 4 for e in combo) for combo in got}
    assert shifted == helpers.COMBO_FIVE
    assert count_combinations(graph) == 5


def test_full_text_combinations_through_17():
    pattern = parse_pattern(helpers.COMBO_PATTERN)
    combos = set(_collect(report_on_the_fly, pattern, helpers.EXAMPLE_TEXT))
    assert {c for c in combos if c[-1] == 17} == COMBOS_ENDING_17
    assert {c for c in combos if c[0] == 5 and c[-1] == 17} == helpers.COMBO_FIVE
    assert combos == brute_force_combinations(pattern, helpers.EXAMPLE_TEXT)
    assert len(combos) == 17


def test_full_text_end_position_multiplicities():
    pattern = parse_pattern(helpers.COMBO_PATTERN)
    combos = _collect(report_on_the_fly, pattern, helpers.EXAMPLE_TEXT)
    assert Counter(c[-1] for c in combos) == {17: 9, 23: 6, 24: 2}


def test_on_the_fly_orders_by_final_end_position():
    pattern = parse_pattern(helpers.COMBO_PATTERN)
    ends = [c[-1] for c in _collect(report_on_the_fly, pattern,
                                    helpers.EXAMPLE_TEXT)]
    assert ends == sorted(ends)


def test_expansion_equals_streaming_driver():
    pattern = parse_pattern(helpers.COMBO_PATTERN)
    graph = build_implicit_gap_graph(pattern, helpers.EXAMPLE_TEXT)
    expanded: list[tuple[int, ...]] = []
    emitted = expand_combinations(graph, expanded.append)
    assert emitted == len(expanded) == 17
    # depth-first, predecessor runs ascending: the order both drivers keep
    assert expanded[:3] == [(4, 6, 10, 17), (5, 6, 10, 17), (4, 8, 10, 17)]
    assert expanded == _collect(report_on_the_fly, pattern,
                                helpers.EXAMPLE_TEXT)
    assert count_combinations(graph) == 17


def test_single_piece_pattern_reports_each_occurrence():
    pattern = parse_pattern("GT")
    combos = _collect(report_on_the_fly, pattern, helpers.EXAMPLE_TEXT)
    assert combos == [(17,), (23,), (28,), (31,)]
    assert _collect(report_chunked, pattern, helpers.EXAMPLE_TEXT) == combos


def test_no_match_reports_nothing():
    pattern = parse_pattern("A.{0,1}Q")
    assert _collect(report_on_the_fly, pattern, helpers.EXAMPLE_TEXT) == []
    counters = report_chunked(pattern, helpers.EXAMPLE_TEXT,
                              lambda combo: pytest.fail("unexpected emit"))
    assert counters.emitted == 0


def test_unbounded_gaps_rejected_by_both_drivers():
    pattern = parse_pattern("A.{2,*}GT")
    with pytest.raises(ValueError):
        report_on_the_fly(pattern, helpers.EXAMPLE_TEXT, lambda combo: None)
    with pytest.raises(ValueError):
        report_chunked(pattern, helpers.EXAMPLE_TEXT, lambda combo: None)


def test_plan_chunks_layout():
    plan = plan_chunks(5, 100)
    assert plan == (10, 5, 19)
    assert plan_chunks(5, 100, 25) == (25, 20, 5)
    # minimal window: stride degenerates to one position per chunk
    assert plan_chunks(5, 12, 5) == (5, 1, 8)
    assert plan_chunks(5, 8) == (10, 5, 1)
    with pytest.raises(ValueError):
        plan_chunks(5, 100, 4)
    with pytest.raises(ValueError):
        plan_chunks(0, 100)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(0, 400), st.integers(0, 60))
def test_plan_chunks_windows_cover_and_claims_partition(span, text_len, pad):
    """A window claims the last ends in its trailing stride positions, the
    first window from position 1: the claims tile the text, and a match
    whose last end is claimed fits in the window."""
    length = span + pad
    plan = plan_chunks(span, text_len, length)
    assert plan.stride == max(1, length - span)
    next_lo = 1
    for index in range(plan.count):
        offset = index * plan.stride
        claim_lo = offset + length - plan.stride + 1 if index else 1
        claim_hi = offset + length
        assert claim_lo == next_lo
        next_lo = claim_hi + 1
        # the earliest start of a match ending at claim_lo is in the window
        assert claim_lo - span + 1 >= offset + 1 or index == 0
    # the final window reaches the text end, and no window lies past it
    assert next_lo > text_len
    assert plan.count == 1 or next_lo - plan.stride <= text_len


def test_chunked_claims_match_on_stride_boundary_once():
    """Matches whose last end is window-local length - stride, the last end
    the window before claims, and length - stride + 1, the first it claims;
    at stride 1 (the minimal window) and at stride span."""
    pattern = parse_pattern("A.{0,2}B")  # span 4
    span = pattern.max_match_span
    for chunk_len in (span, 2 * span):
        plan = plan_chunks(span, 40, chunk_len)
        text = bytearray(b"X" * 40)
        ends = []
        for index, local in ((2, plan.length - plan.stride),
                             (5, plan.length - plan.stride + 1)):
            end = index * plan.stride + local
            text[end - 3:end] = b"AAB"  # two combinations end at ``end``
            ends.append(end)
        expected = [(end - shift, end) for end in ends for shift in (2, 1)]
        assert _collect(report_on_the_fly, pattern, bytes(text)) == expected
        got: list[tuple[int, ...]] = []
        counters = report_chunked(pattern, bytes(text), got.append,
                                  chunk_len=chunk_len)
        assert got == expected, chunk_len
        assert counters.emitted == 4


def test_chunked_match_visible_in_two_windows_emitted_once():
    pattern = parse_pattern("A.{0,2}B")
    # windows 1-8 and 5-12: the first claims last end 7, the second holds it too
    text = b"XXXXXABXXXXX"
    combos = _collect(report_chunked, pattern, text)
    assert combos == [(6, 7)]


def test_chunked_counters_and_retention():
    pattern = parse_pattern(helpers.COMBO_PATTERN)
    counters = report_chunked(pattern, helpers.EXAMPLE_TEXT, lambda combo: None,
                              chunk_len=pattern.max_match_span)
    assert counters.chunks > 2
    assert counters.peak_graphs == 2
    assert counters.emitted == 17
    single = report_chunked(pattern, helpers.EXAMPLE_TEXT, lambda combo: None)
    assert single.chunks == 1 and single.peak_graphs == 1


def test_chunked_keeps_at_most_two_window_graphs_alive(monkeypatch):
    """Weak references to every window graph, counted as each is built."""
    refs: list[weakref.ref] = []
    alive: list[int] = []

    def build(pattern, text):
        graph = build_implicit_gap_graph(pattern, text)
        refs.append(weakref.ref(graph))
        gc.collect()
        alive.append(sum(ref() is not None for ref in refs))
        return graph

    monkeypatch.setattr(reporter, "build_implicit_gap_graph", build)
    pattern = parse_pattern(helpers.COMBO_PATTERN)
    counters = report_chunked(pattern, helpers.EXAMPLE_TEXT, lambda combo: None,
                              chunk_len=pattern.max_match_span)
    assert len(alive) == counters.chunks > 2
    assert max(alive) == counters.peak_graphs == 2


def test_chunk_length_sweep_reports_each_combination_once():
    pattern = parse_pattern(helpers.COMBO_PATTERN)
    span = pattern.max_match_span
    reference = sorted(_collect(report_on_the_fly, pattern,
                                helpers.EXAMPLE_TEXT))
    for chunk_len in (span, span + 1, span + 7, 2 * span, 1000):
        combos = _collect(report_chunked, pattern, helpers.EXAMPLE_TEXT,
                          chunk_len=chunk_len)
        assert sorted(combos) == reference, chunk_len
        assert len(combos) == len(set(combos))


def _random_dna(seed, size):
    return bytes(random.Random(seed).choices(b"ACGT", k=size))


@pytest.mark.parametrize("expr, text", [
    ("ACG.{0,9}TG.{0,5}G", _random_dna(1, 3000) + b"ACGTGG"),
    ("A.{0,3}A.{0,3}A", b"A" * 301),
    ("GT", _random_dna(2, 500) + b"GT"),
    ("A.{0,200}C", _random_dna(3, 5000) + b"AC"),
], ids=["dna-head3", "periodic", "one-piece", "wide-gap"])
def test_chunked_order_equals_on_the_fly(expr, text):
    """Chunked output is the on-the-fly list at every window length; each
    text ends in a match that the final window claims."""
    pattern = parse_pattern(expr)
    span = pattern.max_match_span
    expected = _collect(report_on_the_fly, pattern, text)
    assert expected[-1][-1] == len(text)
    for chunk_len in (span, span + 1, 2 * span, None):
        got: list[tuple[int, ...]] = []
        counters = report_chunked(pattern, text, got.append, chunk_len=chunk_len)
        assert got == expected, chunk_len
        assert counters.emitted == len(expected)
        assert counters.chunks > 1


def test_many_combinations_per_match():
    """All-identical text: few distinct end positions, many combinations."""
    pattern = parse_pattern("A.{0,6}A.{0,6}A")
    text = b"A" * 40
    graph = build_implicit_gap_graph(pattern, text)
    expected = combination_count(pattern, text)
    independent = sum(
        1
        for e1 in range(1, 41)
        for e2 in range(e1 + 1, min(40, e1 + 7) + 1)
        for e3 in range(e2 + 1, min(40, e2 + 7) + 1))
    assert expected == independent
    assert count_combinations(graph) == expected
    combos: list[tuple[int, ...]] = []
    counters = report_on_the_fly(pattern, text, combos.append)
    assert len(combos) == expected
    assert len(set(combos)) == expected
    # forty positions, each an occurrence of all three identical pieces
    assert counters.occurrences == 120
    bound = sum(1 + s for s in tail_span_bounds(pattern))
    assert counters.peak_live_nodes <= bound


@pytest.mark.parametrize("report", [report_on_the_fly, report_chunked,
                                    helpers.report_bits])
def test_pattern_deeper_than_the_recursion_limit(report):
    """1,200 concatenated pieces: one combination, 1,200 layers deep.

    Pieces cycle through 200 byte values, so each position ends only six
    pieces and the graph stays small.
    """
    pieces = [bytes([1 + i % 200]) for i in range(1200)]
    pattern = helpers.make_pattern(pieces, [(0, 0)] * 1199)
    text = b"".join(pieces)
    assert _collect(report, pattern, text) == [tuple(range(1, 1201))]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_all_reporters_agree_with_the_oracle(seed):
    rng = random.Random(seed)
    pattern, text = helpers.random_instance(rng, max_text=160)
    expected = brute_force_combinations(pattern, text)
    graph = build_implicit_gap_graph(pattern, text)
    assert count_combinations(graph) == len(expected)
    expanded: list[tuple[int, ...]] = []
    expand_combinations(graph, expanded.append)
    assert len(expanded) == len(set(expanded))
    assert set(expanded) == expected
    streamed = _collect(report_on_the_fly, pattern, text)
    assert len(streamed) == len(set(streamed))
    assert set(streamed) == expected
    assert [c[-1] for c in streamed] == sorted(c[-1] for c in streamed)
    assert _collect(report_chunked, pattern, text) == streamed


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 50))
def test_chunked_agrees_across_window_lengths(seed, pad):
    rng = random.Random(seed)
    pattern, text = helpers.random_instance(rng, max_text=120)
    span = pattern.max_match_span
    expected = _collect(report_on_the_fly, pattern, text)
    for chunk_len in (span, span + pad):
        assert _collect(report_chunked, pattern, text, chunk_len=chunk_len) == expected
