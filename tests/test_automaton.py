"""The multi-string scanner: trie shape, failure links, occurrence events."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from vlgmatch.automaton import _BLOCK, build_automaton
from vlgmatch.oracle import naive_occurrences

# piece bytes straddle 0x80; text bytes add ones that are in no piece
_PIECE_BYTES = b"AC\x80\xff"
_TEXT_BYTES = _PIECE_BYTES + b"\x00G\x7f\x81\xfe"


def _states_by_path(auto):
    return {path: state for path, state in auto.walk()}


def _chain_strings(auto, state):
    """Strings ending at this state, longest first, via the suffix chain."""
    node = state if state.word is not None else state.out
    out = []
    while node is not None:
        out.append(auto.strings[node.word])
        node = node.out
    return out


def test_trie_shape_for_example_strings():
    auto = build_automaton([b"A", b"CC", b"GT"])
    assert auto.num_states == 6  # root, A, C, CC, G, GT
    states = _states_by_path(auto)
    assert set(states) == {b"", b"A", b"C", b"CC", b"G", b"GT"}
    root = states[b""]
    for path in (b"A", b"C", b"G"):
        assert states[path].fail is root


def test_failure_link_to_longest_proper_suffix():
    auto = build_automaton([b"AB", b"B"])
    states = _states_by_path(auto)
    assert states[b"AB"].fail is states[b"B"]
    assert _chain_strings(auto, states[b"AB"]) == [b"AB", b"B"]


def test_suffix_chain_is_longest_first():
    auto = build_automaton([b"ABCC", b"CC", b"C"])
    states = _states_by_path(auto)
    assert _chain_strings(auto, states[b"ABCC"]) == [b"ABCC", b"CC", b"C"]
    assert _chain_strings(auto, states[b"CC"]) == [b"CC", b"C"]


def test_single_string_chain():
    auto = build_automaton([b"X"])
    states = _states_by_path(auto)
    assert _chain_strings(auto, states[b"X"]) == [b"X"]


@given(st.lists(st.text(alphabet="ACGT", min_size=1, max_size=6),
                min_size=1, max_size=5))
def test_suffix_chains_match_brute_force(raw):
    strings = [s.encode() for s in raw]
    auto = build_automaton(strings)
    distinct = set(strings)
    for path, state in auto.walk():
        expected = sorted((s for s in distinct if path.endswith(s)),
                          key=len, reverse=True)
        assert _chain_strings(auto, state) == expected


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
    assert counters.positions == 31
    assert counters.failure_steps <= counters.positions


def test_duplicate_strings_share_one_event():
    auto = build_automaton([b"A", b"A"])
    assert auto.strings == (b"A",)
    assert auto.layers_of(0) == (1, 2)
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
    assert counters.positions == len(text)
    assert counters.failure_steps <= len(text)
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


def _reference_step(root, state, byte):
    """One transition by walking failure links, as the trie defines it."""
    while True:
        nxt = state.child(byte)
        if nxt is not None:
            return nxt
        if state is root:
            return root
        state = state.fail


def _assert_table_equals_failure_walk(strings):
    auto = build_automaton(strings)
    goto, rank = auto._goto, auto._rank
    states = _states_by_path(auto)
    ids = {}
    for path, state in states.items():
        sid = 0
        for byte in path:
            sid = goto[sid + rank[byte]]
        ids[state] = sid
    assert len(set(ids.values())) == auto.num_states
    root = states[b""]
    for state, sid in ids.items():
        for byte in range(256):
            want = _reference_step(root, state, byte)
            assert goto[sid + rank[byte]] == ids[want]
        chain = _chain_strings(auto, state)
        assert (sid >= auto._limit) == bool(chain)
        if chain:
            layers = sorted(layer for layer, s in enumerate(strings, start=1)
                            if s in chain)
            assert auto._emits[sid] == tuple(layers)


@settings(max_examples=100, deadline=None)
@given(st.one_of(_nested_pieces(),
                 st.lists(_byte_strings(_TEXT_BYTES, 1, 5), min_size=1,
                          max_size=5)))
def test_goto_table_equals_failure_link_walk(strings):
    _assert_table_equals_failure_walk(strings)


def test_goto_table_over_all_256_bytes():
    # no byte is absent, so every column is some piece byte
    strings = [bytes(range(256)), bytes(range(255, -1, -3)), b"\x00\x00"]
    _assert_table_equals_failure_walk(strings)
    rng = random.Random(5)
    text = bytes(rng.randrange(256) for _ in range(2000)) + bytes(range(256))
    _assert_stream_equals_naive(strings, text)


def test_failure_steps_amortized_on_repetitive_text():
    rng = random.Random(7)
    text = bytes(rng.choice(b"AB") for _ in range(5000))
    auto = build_automaton([b"ABAB", b"BABA", b"AA"])
    counters = auto.stream(text, lambda ev: None)
    assert counters.failure_steps <= counters.positions == 5000
