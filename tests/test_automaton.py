"""The multi-string scanner: goto table, emitted layers, occurrence events."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from vlgmatch import automaton
from vlgmatch.automaton import _BLOCK, OccEvent, build_automaton
from vlgmatch.oracle import naive_occurrences

# piece bytes straddle 0x80; text bytes add ones that are in no piece
_PIECE_BYTES = b"AC\x80\xff"
_TEXT_BYTES = _PIECE_BYTES + b"\x00G\x7f\x81\xfe"


def _assert_table_equals_suffix_rule(strings):
    """Check the goto table against a rule stated on the pieces alone.

    The states are the distinct prefixes of the pieces.  A byte leads from
    the state of ``path`` to the state of the longest suffix of
    ``path + byte`` that is itself a prefix, and a state emits the layers
    of the pieces that are suffixes of its path, ascending.  Returns the
    automaton and the state id of every prefix.
    """
    auto = build_automaton(strings)
    goto, rank = auto._goto, auto._rank
    prefixes = {s[:i] for s in strings for i in range(len(s) + 1)}
    ids = {}
    for path in prefixes:
        sid = 0
        for byte in path:
            sid = goto[sid + rank[byte]]
        ids[path] = sid
    assert len(set(ids.values())) == len(prefixes) == auto.num_states
    for path, sid in ids.items():
        # a suffix of path + byte is a prefix only if it drops byte and
        # leaves a suffix of path that is a prefix too, so test just those
        borders = [path[i:] for i in range(len(path) + 1)
                   if path[i:] in prefixes]
        for byte in range(256):
            want = next((b + bytes([byte]) for b in borders
                         if b + bytes([byte]) in prefixes), b"")
            assert goto[sid + rank[byte]] == ids[want]
        layers = tuple(layer for layer, s in enumerate(strings, start=1)
                       if path.endswith(s))
        assert (sid >= auto._limit) == bool(layers)
        if layers:
            assert auto._emits[sid] == layers
    return auto, ids


def _row(auto, sid):
    """Next state for every byte value, from state ``sid``."""
    return [auto._goto[sid + auto._rank[byte]] for byte in range(256)]


def test_trie_shape_for_example_strings():
    auto, ids = _assert_table_equals_suffix_rule([b"A", b"CC", b"GT"])
    assert auto.num_states == 6
    assert set(ids) == {b"", b"A", b"C", b"CC", b"G", b"GT"}
    # A, C and G fail to the root: off their own child, they step as it does
    root = _row(auto, 0)
    for path in (b"A", b"C", b"G"):
        row = _row(auto, ids[path])
        for byte in range(256):
            if path + bytes([byte]) not in ids:
                assert row[byte] == root[byte]


def test_failure_link_to_longest_proper_suffix():
    auto, ids = _assert_table_equals_suffix_rule([b"AB", b"B"])
    # AB has no child, so it steps exactly as its failure state B
    assert _row(auto, ids[b"AB"]) == _row(auto, ids[b"B"])
    assert auto._emits[ids[b"AB"]] == (1, 2)


def test_suffix_chain_is_longest_first():
    auto, ids = _assert_table_equals_suffix_rule([b"ABCC", b"CC", b"C"])
    assert auto._emits[ids[b"ABCC"]] == (1, 2, 3)
    assert auto._emits[ids[b"CC"]] == (2, 3)


def test_single_string_chain():
    auto, ids = _assert_table_equals_suffix_rule([b"X"])
    assert auto._emits[ids[b"X"]] == (1,)


@given(st.lists(st.text(alphabet="ACGT", min_size=1, max_size=6),
                min_size=1, max_size=5))
def test_suffix_chains_match_brute_force(raw):
    _assert_table_equals_suffix_rule([s.encode() for s in raw])


def test_stream_example_text_events():
    auto = build_automaton([b"A", b"CC", b"GT"])
    events = []
    counters = auto.stream(helpers.EXAMPLE_TEXT, events.append)
    by_layer = {1: [], 2: [], 3: []}
    for ev in events:
        for layer in ev.layers:
            by_layer[layer].append(ev.position)
    assert by_layer[1] == [1, 10, 12, 15, 18]
    assert by_layer[2] == [9, 14, 20, 21, 26]
    assert by_layer[3] == [17, 23, 28, 31]
    assert sum(len(ev.layers) for ev in events) == 14
    assert (counters.positions, counters.failure_steps) == (31, 0)


def test_duplicate_strings_share_one_event():
    auto, ids = _assert_table_equals_suffix_rule([b"A", b"A"])
    assert auto.num_states == 2
    assert auto._emits[ids[b"A"]] == (1, 2)
    events = []
    auto.stream(b"GA", events.append)
    assert events == [(2, (1, 2))]


def test_layers_ascend_within_event():
    # layer 1 is "C", layer 2 is "CC"; both end at position 2
    auto = build_automaton([b"C", b"CC"])
    events = []
    auto.stream(b"CC", events.append)
    assert [ev.layers for ev in events] == [(1,), (1, 2)]


def test_overlapping_occurrences():
    auto = build_automaton([b"CC"])
    events = []
    auto.stream(b"CCC", events.append)
    assert [ev.position for ev in events] == [2, 3]
    # a two-byte repetitive text, dense with overlapping hits of all three
    rng = random.Random(7)
    text = bytes(rng.choice(b"AB") for _ in range(5000))
    _assert_stream_equals_naive([b"ABAB", b"BABA", b"AA"], text)


def test_empty_text_is_silent():
    auto = build_automaton([b"A"])
    events = []
    counters = auto.stream(b"", events.append)
    assert events == [] and counters.positions == 0


def test_empty_string_rejected():
    with pytest.raises(ValueError):
        build_automaton([b"A", b""])
    with pytest.raises(ValueError):
        build_automaton([])


def _assert_stream_equals_naive(strings, text):
    auto = build_automaton(strings)
    events = []
    counters = auto.stream(text, events.append)
    got = []
    positions = [ev.position for ev in events]
    assert positions == sorted(set(positions))  # strictly increasing
    for ev in events:
        assert ev.layers == tuple(sorted(ev.layers))
        for layer in ev.layers:
            got.append((layer, ev.position))
    expected = [(layer, end)
                for layer, s in enumerate(strings, start=1)
                for end in naive_occurrences(s, text)]
    assert sorted(got) == sorted(expected)
    assert (counters.positions, counters.failure_steps) == (len(text), 0)
    return expected


@settings(max_examples=150, deadline=None)
@given(st.lists(st.text(alphabet="ACGT", min_size=1, max_size=5),
                min_size=1, max_size=5),
       st.text(alphabet="ACGT", max_size=200))
def test_stream_equals_naive_scan(raw_strings, raw_text):
    _assert_stream_equals_naive([s.encode() for s in raw_strings],
                                raw_text.encode())


def _byte_strings(alphabet, min_size, max_size):
    return st.lists(st.sampled_from(alphabet), min_size=min_size,
                    max_size=max_size).map(bytes)


@st.composite
def _nested_pieces(draw):
    """Prefixes and suffixes of one base string, plus a few unrelated pieces."""
    base = draw(_byte_strings(_PIECE_BYTES, 1, 8))
    cuts = draw(st.lists(st.tuples(st.booleans(),
                                   st.integers(1, len(base))), max_size=4))
    pieces = [base] + [base[:n] if prefix else base[-n:] for prefix, n in cuts]
    pieces += draw(st.lists(_byte_strings(_PIECE_BYTES, 1, 4), max_size=3))
    return draw(st.permutations(pieces))


@settings(max_examples=150, deadline=None)
@given(_nested_pieces(), _byte_strings(_TEXT_BYTES, 0, 300))
def test_stream_equals_naive_scan_on_bytes_outside_the_pieces(strings, text):
    _assert_stream_equals_naive(strings, text)


def test_stream_across_translate_blocks():
    rng = random.Random(11)
    strings = [b"ACGTTGCA", b"GTTG", b"\x80\xffA", b"A"]
    text = bytearray(rng.choice(_TEXT_BYTES) for _ in range(2 * _BLOCK + 100))
    # planted occurrences straddle both block boundaries
    text[_BLOCK - 4:_BLOCK + 4] = b"ACGTTGCA"
    text[2 * _BLOCK - 2:2 * _BLOCK + 1] = b"\x80\xffA"
    expected = _assert_stream_equals_naive(strings, bytes(text))
    assert {(1, _BLOCK + 4), (2, _BLOCK + 2),
            (3, 2 * _BLOCK + 1), (4, 2 * _BLOCK + 1)} <= set(expected)


@pytest.mark.parametrize("block", [1, 7, _BLOCK])
def test_scan_blocks_give_the_stream_events(monkeypatch, block):
    """``scan``'s blocks tile the text, and their positions and states,
    mapped through ``_emits``, are exactly ``stream``'s events, which equal
    the naive scan's; planted pieces straddle block boundaries."""
    rng = random.Random(12)
    strings = [b"ACGTTGCA", b"GTTG", b"\x80\xffA", b"A"]
    text = bytearray(rng.choice(_TEXT_BYTES) for _ in range(2 * _BLOCK + 100))
    text[_BLOCK - 4:_BLOCK + 4] = b"ACGTTGCA"
    text[2 * _BLOCK - 2:2 * _BLOCK + 1] = b"\x80\xffA"
    text = bytes(text)
    monkeypatch.setattr(automaton, "_BLOCK", block)
    auto = build_automaton(strings)
    expected = _assert_stream_equals_naive(strings, text)
    assert any(end - len(strings[layer - 1]) < stop < end
               for layer, end in expected
               for stop in range(block, len(text), block))
    stream: list[OccEvent] = []
    auto.stream(text, stream.append)
    stops, events = [], []
    for stop, positions, states in auto.scan(text):
        assert all(stop - block < pos <= stop for pos in positions)
        assert len(positions) == len(states)
        stops.append(stop)
        events += [OccEvent(pos, auto._emits[state])
                   for pos, state in zip(positions, states)]
    assert stops == [min(start + block, len(text))
                     for start in range(0, len(text), block)]
    assert events == stream


@settings(max_examples=100, deadline=None)
@given(st.one_of(_nested_pieces(),
                 st.lists(_byte_strings(_TEXT_BYTES, 1, 5), min_size=1,
                          max_size=5)))
def test_goto_table_equals_suffix_rule(strings):
    _assert_table_equals_suffix_rule(strings)


def test_goto_table_over_all_256_bytes():
    # no byte is absent, so every column is some piece byte
    strings = [bytes(range(256)), bytes(range(255, -1, -3)), b"\x00\x00"]
    _assert_table_equals_suffix_rule(strings)
    rng = random.Random(5)
    text = bytes(rng.randrange(256) for _ in range(2000)) + bytes(range(256))
    _assert_stream_equals_naive(strings, text)
