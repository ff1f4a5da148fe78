"""Combination reporting: expansion, counting, chunked and streaming drivers."""

from __future__ import annotations

import gc
import random
import weakref
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from vlgmatch import automaton, bitvec, reporter
from vlgmatch.gapgraph import (GraphBuilder, build_implicit_gap_graph, tail_span_bounds,
                               window_graph)
from vlgmatch.oracle import (brute_force_combinations, brute_force_endpoints,
                             combination_count, occurrences_by_layer)
from vlgmatch.pattern import GapBounds, VlgPattern, parse_pattern
from vlgmatch.reporter import (StreamPlan, count_combinations, expand_combinations,
                               report_chunked, report_on_the_fly)

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
    with pytest.raises(ValueError):
        bitvec.BitPlan(pattern).runs(helpers.EXAMPLE_TEXT, list)


# Scan block sizes the chunked tests sweep: one byte, two small ones and
# the default, so that matches and pieces cross block boundaries.
BLOCKS = (1, 7, 64, automaton._BLOCK)


def _block_count(text) -> int:
    return -(-len(text) // automaton._BLOCK)


def test_chunked_counts_scan_blocks(monkeypatch):
    """``chunks`` is the number of scan blocks, at the block size of the call."""
    pattern = parse_pattern(helpers.COMBO_PATTERN)
    for block in BLOCKS:
        monkeypatch.setattr(automaton, "_BLOCK", block)
        for size in (0, 1, block, block + 1, 3 * block + 5):
            text = (helpers.EXAMPLE_TEXT * (1 + size // 31))[:size]
            counters = report_chunked(pattern, text, lambda combo: None)
            assert counters.chunks == -(-size // block), (block, size)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 130))
def test_block_claims_partition_the_finals(seed, block):
    """One ``window_graph`` call per run of at most ``span`` final-layer
    ends of one scan block: the calls partition the finals, and every end
    list holds what a match ending in the block can reach."""
    pattern, text = helpers.random_instance(random.Random(seed), max_text=200)
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(automaton, "_BLOCK", block)
        record = _record_graphs(patched)
        got = _collect(report_chunked, pattern, text)
        _assert_claims_recorded(record, pattern, text)
    assert got == _collect(report_on_the_fly, pattern, text)


def test_chunked_claims_match_on_stride_boundary_once(monkeypatch):
    """Matches whose last end is the last position of a scan block, and the
    first position of a later one, at every block stride: each block claims
    its own, once."""
    pattern = parse_pattern("A.{0,2}B")  # span 4
    for block in BLOCKS:
        monkeypatch.setattr(automaton, "_BLOCK", block)
        record = _record_graphs(monkeypatch)
        last = block * -(-8 // block)
        first = block * -(-(last + 8) // block) + 1
        text = bytearray(b"X" * (first + 10))
        for end in (last, first):
            text[end - 3:end] = b"AAB"  # two combinations end at ``end``
        expected = [(end - shift, end) for end in (last, first) for shift in (2, 1)]
        assert _collect(report_on_the_fly, pattern, bytes(text)) == expected
        got: list[tuple[int, ...]] = []
        counters = report_chunked(pattern, bytes(text), got.append)
        assert got == expected, block
        assert counters.emitted == 4
        assert record.finals == [[last], [first]], block


def test_chunked_match_visible_in_two_windows_emitted_once(monkeypatch):
    """A match whose pieces fall in two scan blocks is in both blocks' end
    lists, and only the block of its last end reports it."""
    pattern = parse_pattern("A.{0,2}B")
    text = b"XXXXXABXXXXX"  # the A ends block 1 at block size 6
    for block in (1, 6, *BLOCKS):
        monkeypatch.setattr(automaton, "_BLOCK", block)
        assert _collect(report_chunked, pattern, text) == [(6, 7)], block


def _record_graphs(monkeypatch):
    """Wrap ``reporter.window_graph`` to record, per call, the final ends it
    is given, a copy of every earlier layer's end list and the node ends of
    the graph returned (None if none).  Each graph returned is a weakly
    referenced list, and ``alive`` gains how many are alive (after a
    collection) when it is made."""
    record = SimpleNamespace(finals=[], layers=[], nodes=[], refs=[], alive=[])

    class Graph(list):
        pass

    def recording(layers, finals, windows):
        record.finals.append(list(finals))
        record.layers.append([list(ends) for ends in layers])
        graph = window_graph(layers, finals, windows)
        record.nodes.append(graph and [list(layer[0]) for layer in graph[1:]])
        if graph is None:
            return None
        graph = Graph(graph)
        record.refs.append(weakref.ref(graph))
        gc.collect()
        record.alive.append(sum(ref() is not None for ref in record.refs))
        return graph

    monkeypatch.setattr(reporter, "window_graph", recording)
    return record


def test_chunked_counters_and_retention(monkeypatch):
    pattern = parse_pattern(helpers.COMBO_PATTERN)
    for block in BLOCKS:
        monkeypatch.setattr(automaton, "_BLOCK", block)
        counters = report_chunked(pattern, helpers.EXAMPLE_TEXT, lambda combo: None)
        # every scan block is counted, whether or not its graph is built
        assert counters.chunks == _block_count(helpers.EXAMPLE_TEXT), block
        assert counters.peak_graphs == 1
        assert counters.emitted == 17


def test_chunked_keeps_one_window_graph_alive(monkeypatch):
    """Weak references to every block graph, counted as each is made."""
    pattern = parse_pattern(helpers.COMBO_PATTERN)
    for block in BLOCKS:
        monkeypatch.setattr(automaton, "_BLOCK", block)
        record = _record_graphs(monkeypatch)
        counters = report_chunked(pattern, helpers.EXAMPLE_TEXT, lambda combo: None)
        assert counters.chunks >= len(record.alive) > (2 if block == 1 else 0)
        assert max(record.alive) == counters.peak_graphs == 1
        gc.collect()
        assert all(ref() is None for ref in record.refs)


def test_chunked_graphs_take_at_most_a_span_of_finals(monkeypatch):
    """Periodic text, where every position ends the last piece: each graph
    is built from at most ``span`` final ends, at every block size, so a
    graph does not grow with the block."""
    pattern = parse_pattern("A.{0,3}A.{0,3}A")  # span 9
    text = b"A" * 150
    for block in BLOCKS[1:]:  # one-byte blocks hold one final each
        monkeypatch.setattr(automaton, "_BLOCK", block)
        record = _record_graphs(monkeypatch)
        counters = report_chunked(pattern, text, lambda combo: None)
        assert max(map(len, record.finals)) == min(9, block)
        assert sum(map(len, record.finals)) == 150
        assert counters.emitted == combination_count(pattern, text)
        _assert_claims_recorded(record, pattern, text)


def _claims(pattern, text):
    """Per scan block holding a final-layer occurrence, in order: its final
    ends, from an independent scan, cut into runs of at most the span."""
    events = []
    pattern.automaton.stream(text, events.append)
    blocks: dict[int, list[int]] = {}
    for event in events:
        if pattern.num_subpatterns in event.layers:
            block = (event.position - 1) // automaton._BLOCK
            blocks.setdefault(block, []).append(event.position)
    span = pattern.max_match_span
    return [finals[at:at + span] for finals in blocks.values()
            for at in range(0, len(finals), span)]


def _assert_claims_recorded(record, pattern, text):
    """One ``window_graph`` call per run of at most ``span`` finals of a scan
    block, in order.  Every earlier layer's list holds each
    occurrence of that layer a claimed match can reach, and nothing the
    trim after the block before should have dropped."""
    block = automaton._BLOCK
    assert record.finals == _claims(pattern, text), block
    span = pattern.max_match_span
    events = []
    pattern.automaton.stream(text, events.append)
    for finals, layers in zip(record.finals, record.layers):
        reach = range(finals[0] - span + 1, finals[-1] + 1)
        # the block's ends, less what the trim after the block before drops
        start = (finals[0] - 1) // block * block
        held = range(start + 2 - span, start + block + 1)
        for layer, ends in enumerate(layers, start=1):
            wanted = [e.position for e in events
                      if layer in e.layers and e.position in reach]
            assert [end for end in ends if end in reach] == wanted, block
            assert all(end in held for end in ends), block


@pytest.mark.parametrize("before", [1, 6], ids=["one-byte-before", "six-bytes-before"])
def test_chunked_piece_straddling_the_window_offset(monkeypatch, before):
    """A seven-byte piece crosses a scan block boundary, with ``before`` of
    its bytes in the earlier block, and a compatible second piece follows
    it, but no third: both are in the end lists that the ``window_graph``
    call of the later match's block gets, and its graph, of that match,
    holds neither."""
    pattern = parse_pattern("GATTACA.{0,3}CC.{0,2}T")  # span 15
    for block in BLOCKS:
        monkeypatch.setattr(automaton, "_BLOCK", block)
        lead = -before % block
        assert (lead + before) % block == 0  # a block ends inside the piece
        text = b"X" * lead + b"GATTACACC" + b"XX" + b"GATTACACCT" + b"X" * 20
        e, straddler = lead + 21, lead + 7
        expected = _collect(report_on_the_fly, pattern, text)
        record = _record_graphs(monkeypatch)
        got = _collect(report_chunked, pattern, text)
        assert got == expected == [(lead + 18, lead + 20, e)]
        _assert_claims_recorded(record, pattern, text)
        call = next(i for i, finals in enumerate(record.finals) if e in finals)
        first, second = record.layers[call]
        assert straddler in first and lead + 9 in second, block
        nodes = record.nodes[call]
        assert straddler not in nodes[0] and lead + 9 not in nodes[1]
        assert e in nodes[2]


def test_chunked_builds_only_windows_claiming_a_final_occurrence(monkeypatch):
    """Sparse text: a rare final piece, three planted matches and a final
    piece with no predecessor.  Only the scan blocks holding a final end
    build a graph, each from that block's final ends, keeping those that
    end a match; the lone final's block builds None where it is alone."""
    pattern = parse_pattern("AC.{0,4}GGATCC")  # span 12
    text = bytearray(_random_dna(5, 4000))
    for end in (700, 2101, 3999):
        text[end - 10:end] = b"ACTTGGATCC"
    text[1494:1506] = b"TTTTTTGGATCC"  # preceded by no AC within the gap
    text = bytes(text)
    expected = _collect(report_on_the_fly, pattern, text)
    assert len(expected) >= 3
    for block in BLOCKS:
        monkeypatch.setattr(automaton, "_BLOCK", block)
        record = _record_graphs(monkeypatch)
        got: list[tuple[int, ...]] = []
        counters = report_chunked(pattern, text, got.append)
        assert got == expected, block
        _assert_claims_recorded(record, pattern, text)
        if block <= 7:
            assert 4 <= len(record.finals) < counters.chunks // 20
        for finals, nodes in zip(record.finals, record.nodes):
            ending = sorted({combo[-1] for combo in got if combo[-1] in finals})
            assert (nodes[-1] if nodes else []) == ending, block
        lone = next(i for i, finals in enumerate(record.finals) if 1506 in finals)
        if block <= 7:
            assert record.finals[lone] == [1506], block
        if record.finals[lone] == [1506]:
            assert record.nodes[lone] is None, block
        assert counters.peak_graphs == 1


@pytest.mark.parametrize("text", [b"", b"A", b"GACT", b"GGACTTGATCC"],
                         ids=["empty", "one-byte", "no-match", "matches"])
def test_chunked_text_shorter_than_one_window(text):
    pattern = parse_pattern("G.{0,3}AC.{0,4}T")  # span 12
    got: list[tuple[int, ...]] = []
    counters = report_chunked(pattern, text, got.append)
    assert got == _collect(report_on_the_fly, pattern, text)
    assert counters.chunks == (1 if text else 0)
    assert counters.emitted == len(got)
    assert counters.peak_graphs == (1 if b"T" in text else 0)


@pytest.mark.parametrize("expr, alphabet", [
    ("CA.{0,3}TCA", b"ACT"),
    ("A.{0,2}GA.{0,2}A", b"AG"),
], ids=["suffix-of-last", "suffix-of-two"])
def test_chunked_events_carrying_the_final_and_lower_layers(monkeypatch, expr,
                                                           alphabet):
    """A piece that is a suffix of the last piece: final-layer events also
    carry lower layers, and some carry only a lower one."""
    pattern = parse_pattern(expr)
    k = pattern.num_subpatterns
    text = bytes(random.Random(8).choices(alphabet, k=600))
    events = []
    pattern.automaton.stream(text, events.append)
    assert any(e.layers[-1] == k and len(e.layers) > 1 for e in events)
    expected = _collect(report_on_the_fly, pattern, text)
    assert expected
    for block in BLOCKS:
        monkeypatch.setattr(automaton, "_BLOCK", block)
        assert _collect(report_chunked, pattern, text) == expected, block


def test_chunked_equals_on_the_fly_across_chunk_lengths_and_scan_blocks(monkeypatch):
    """Seeded random instances: chunked output equals on-the-fly output as a
    list, order included, for every scan block size."""
    rng = random.Random(21)
    matched = 0
    for _ in range(200):
        pattern, text = helpers.random_instance(rng, max_text=200)
        expected = _collect(report_on_the_fly, pattern, text)
        matched += bool(expected)
        for block in (1, 2, 7, 64, automaton._BLOCK):
            monkeypatch.setattr(automaton, "_BLOCK", block)
            got = _collect(report_chunked, pattern, text)
            assert got == expected, (pattern, text, block)
    assert matched >= 80


def test_chunk_length_sweep_reports_each_combination_once(monkeypatch):
    pattern = parse_pattern(helpers.COMBO_PATTERN)
    reference = sorted(_collect(report_on_the_fly, pattern,
                                helpers.EXAMPLE_TEXT))
    for block in (1, 2, 7, 16, 30, 31, *BLOCKS):
        monkeypatch.setattr(automaton, "_BLOCK", block)
        combos = _collect(report_chunked, pattern, helpers.EXAMPLE_TEXT)
        assert sorted(combos) == reference, block
        assert len(combos) == len(set(combos))


def _random_dna(seed, size):
    return bytes(random.Random(seed).choices(b"ACGT", k=size))


@pytest.mark.parametrize("expr, text", [
    ("ACG.{0,9}TG.{0,5}G", _random_dna(1, 3000) + b"ACGTGG"),
    ("A.{0,3}A.{0,3}A", b"A" * 301),
    ("GT", _random_dna(2, 500) + b"GT"),
    ("A.{0,200}C", _random_dna(3, 5000) + b"AC"),
], ids=["dna-head3", "periodic", "one-piece", "wide-gap"])
def test_chunked_order_equals_on_the_fly(monkeypatch, expr, text):
    """Chunked output is the on-the-fly list at every scan block size; each
    text ends in a match that the last block claims."""
    pattern = parse_pattern(expr)
    expected = _collect(report_on_the_fly, pattern, text)
    assert expected[-1][-1] == len(text)
    for block in BLOCKS:
        monkeypatch.setattr(automaton, "_BLOCK", block)
        got: list[tuple[int, ...]] = []
        counters = report_chunked(pattern, text, got.append)
        assert got == expected, block
        assert counters.emitted == len(expected)
        assert counters.chunks == _block_count(text)


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
                                    helpers.report_bits, helpers.report_oracle])
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


def _refused_instance(seed: int, wide: str, unbounded: bool):
    """A pattern ``bitvec.suits`` refuses, with 9 to 12 distinct bytes
    (``wide`` "sigma") or a gap past ``MAX_CARRY`` ("carry"), and one
    unbounded gap if asked; and a text with a few planted matches, whose
    gaps are often the narrowest or the widest allowed."""
    rng = random.Random(seed)
    if wide == "sigma":
        alphabet = b"ACDEFGHIKLMNPQ"
        letters = bytes(rng.sample(alphabet, rng.randint(9, 12)))
        cuts = sorted(rng.sample(range(1, len(letters)), rng.randint(1, 3)))
        pieces = [letters[a:b] for a, b in zip([0, *cuts], [*cuts, len(letters)])]
        size = rng.randint(0, 3000)
    else:
        alphabet = b"ACGT"
        pieces = [bytes(rng.choices(alphabet, k=rng.randint(1, 3)))
                  for _ in range(rng.randint(2, 3) + unbounded)]
        size = rng.randint(bitvec.MAX_CARRY, 3 * bitvec.MAX_CARRY)
    gaps = [GapBounds(lower, lower + rng.randint(0, 6))
            for lower in rng.choices(range(7), k=len(pieces) - 1)]
    # the wide gap and the unbounded one differ where both are asked for
    order = rng.sample(range(len(gaps)), len(gaps))
    if wide == "carry":
        lower = bitvec.MAX_CARRY + rng.randint(0, 30)
        gaps[order[0]] = GapBounds(lower, lower + rng.randint(0, 8))
    if unbounded:
        gaps[order[-1]] = GapBounds(gaps[order[-1]].lower, None)
    pattern = VlgPattern(tuple(pieces), tuple(gaps))
    text = bytearray(rng.choices(alphabet, k=size))
    for _ in range(rng.randint(0, 6)):
        pos = rng.randrange(size + 1)
        for piece, gap in zip(pieces, [GapBounds(0, 0), *gaps]):
            upper = gap.lower + 6 if gap.upper is None else gap.upper
            pos += rng.choice((gap.lower, upper, rng.randint(gap.lower, upper)))
            text[pos:pos + len(piece)] = piece
            pos += len(piece)
    return pattern, bytes(text[:size])


@pytest.mark.parametrize("wide, unbounded", [
    ("sigma", False), ("carry", False), ("sigma", True), ("carry", True)])
def test_stream_count_equals_the_oracle_where_the_bit_engine_is_refused(
        monkeypatch, wide, unbounded):
    """``StreamPlan.count``, the ``stats`` engine for these patterns, on
    small scan blocks, so that matches cross block boundaries."""
    monkeypatch.setattr(automaton, "_BLOCK", 64)
    for seed in range(12):
        pattern, text = _refused_instance(seed, wide, unbounded)
        assert not bitvec.suits(pattern)
        counts = StreamPlan(pattern).count(text)
        assert counts.layer_occurrences == list(
            map(len, occurrences_by_layer(pattern, text))), seed
        assert counts.matches == len(brute_force_endpoints(pattern, text)), seed
        want = None if unbounded else combination_count(pattern, text)
        assert counts.beta == want, seed


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 130))
def test_chunked_agrees_across_window_lengths(seed, block):
    rng = random.Random(seed)
    pattern, text = helpers.random_instance(rng, max_text=120)
    expected = _collect(report_on_the_fly, pattern, text)
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(automaton, "_BLOCK", block)
        assert _collect(report_chunked, pattern, text) == expected
