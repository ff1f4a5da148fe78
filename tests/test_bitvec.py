"""Bit-parallel engine: differential tests against the oracle and the streaming engine."""

from __future__ import annotations

import random
import tracemalloc
from collections import deque

from hypothesis import given, settings, strategies as st

import helpers
from vlgmatch import automaton
from vlgmatch.bitvec import MAX_LITERAL, MIN_BLOCK, BitPlan
from vlgmatch.gapgraph import build_implicit_gap_graph
from vlgmatch.oracle import (brute_force_combinations, brute_force_endpoints,
                             combination_count, occurrences_by_layer)
from vlgmatch.pattern import GapBounds, VlgPattern
from vlgmatch.reporter import (StreamPlan, count_combinations, expand_combinations,
                               report_chunked, report_on_the_fly)

ALPHABETS = [b"AC", b"ACGT", bytes(range(0x80, 0x88)), bytes(range(256))]
HUGE = 10**9


def _streamed(pattern: VlgPattern, text: bytes) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    report_on_the_fly(pattern, text, out.append)
    return out


def _bits(pattern: VlgPattern, text: bytes) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    helpers.report_bits(pattern, text, out.append)
    return out


def _plant(rng: random.Random, text: bytearray, pattern: VlgPattern,
           start: int) -> None:
    """Write one match of ``pattern`` into ``text`` from 0-based ``start``."""
    pos = start
    for i, piece in enumerate(pattern.subpatterns):
        if i:
            gap = pattern.gaps[i - 1]
            pos += rng.randint(gap.lower, gap.lower + 6 if gap.upper is None
                               else min(gap.upper, gap.lower + 6))
        text[pos:pos + len(piece)] = piece
        pos += len(piece)


def _instance(seed: int) -> tuple[VlgPattern, bytes]:
    """A random pattern and a text, often over three blocks with matches
    planted across the block boundaries.

    Pieces are 1 to 4 bytes, some cut from the text and some suffixes of
    the piece before; gaps are bounded, unbounded or have bounds near 10**9.
    """
    rng = random.Random(seed)
    alphabet = rng.choice(ALPHABETS)
    long_text = rng.random() < 0.5
    size = (rng.randint(3 * MIN_BLOCK, 3 * MIN_BLOCK + 500) if long_text
            else rng.randint(0, 200))
    text = bytearray(rng.choices(alphabet, k=size))
    pieces: list[bytes] = []
    for _ in range(rng.randint(1, 4)):
        width = rng.randint(1, 4)
        choice = rng.random()
        if pieces and choice < 0.2:
            pieces.append(pieces[-1][-rng.randint(1, len(pieces[-1])):])
        elif size >= width and choice < 0.6:
            at = rng.randrange(size - width + 1)
            pieces.append(bytes(text[at:at + width]))
        else:
            pieces.append(bytes(rng.choices(alphabet, k=width)))
    gaps = []
    for _ in pieces[1:]:
        kind = rng.random()
        if kind < 0.2:
            gaps.append(GapBounds(rng.randint(0, 6), None))
        elif kind < 0.3:
            lower = rng.choice([0, HUGE - rng.randint(0, 6)])
            gaps.append(GapBounds(lower, HUGE))
        else:
            lower = rng.randint(0, 6)
            gaps.append(GapBounds(lower, lower + rng.randint(0, 6)))
    pattern = VlgPattern(tuple(pieces), tuple(gaps))
    for boundary in range(MIN_BLOCK, size, MIN_BLOCK):
        if rng.random() < 0.8:
            _plant(rng, text, pattern, boundary - rng.randint(1, 12))
    return pattern, bytes(text[:size])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32))
def test_ends_equal_the_oracle(seed):
    pattern, text = _instance(seed)
    assert list(BitPlan(pattern).ends(text)) == brute_force_endpoints(pattern, text)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32))
def test_runs_equal_report_on_the_fly_in_order(seed):
    pattern, text = _instance(seed)
    if not pattern.bounded:
        pattern = VlgPattern(pattern.subpatterns, tuple(
            GapBounds(g.lower, g.lower + 3) if g.upper is None else g
            for g in pattern.gaps))
    if combination_count(pattern, text) > 50_000:
        text = text[:200]
    assert _bits(pattern, text) == _streamed(pattern, text)


def _assert_counts_equal_streaming(pattern: VlgPattern, text: bytes) -> None:
    """``BitPlan.count`` against ``StreamPlan.count``, the two engines
    CLI ``stats`` runs, on one text, field by field; the occurrences and
    matches also against the oracle."""
    got = BitPlan(pattern).count(text)
    want = StreamPlan(pattern).count(text)
    assert got.layer_occurrences == want.layer_occurrences
    assert got.layer_occurrences == list(map(len, occurrences_by_layer(pattern, text)))
    assert got.matches == want.matches == len(brute_force_endpoints(pattern, text))
    assert got.beta == want.beta
    assert got.peak_ranges == want.peak_ranges


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32))
def test_count_equals_the_streaming_engine(seed):
    _assert_counts_equal_streaming(*_instance(seed))


def test_count_on_chosen_cases():
    """One piece, unbounded gaps, an empty text, texts of several blocks
    and pieces that are suffixes of one another, on dense and periodic text."""
    rng = random.Random(5)
    dense = bytes(rng.choices(b"AC", k=3 * MIN_BLOCK + 77))
    periodic = b"CACACAACA" * 400
    cases = [
        (["ACA"], []), (["A"], []), (["CA", "ACA", "A"], [(0, 2), (0, 0)]),
        (["A", "CA", "ACA"], [(0, 3), (1, 4)]), (["A", "A", "A"], [(0, 3), (0, 3)]),
        (["AC", "CA"], [(2, None)]), (["A", "C", "A"], [(1, 3), (0, None)]),
        (["CA", "A", "C"], [(0, None), (4, 9)]), (["A", "C"], [(0, 0)]),
        (["A", "C"], [(3, 40)]), (["AA", "C", "A"], [(0, 30), (5, 6)]),
    ]
    for pieces, gaps in cases:
        pattern = helpers.make_pattern(pieces, gaps)
        for text in (b"", b"A", dense, periodic, dense[:MIN_BLOCK + 1]):
            _assert_counts_equal_streaming(pattern, text)


def test_matches_straddle_every_block_boundary():
    pattern = helpers.make_pattern(["GATT", "CA", "TTG"], [(3, 9), (0, 4)])
    rng = random.Random(7)
    text = bytearray(rng.choices(b"AC", k=4 * MIN_BLOCK + 100))
    for boundary in range(MIN_BLOCK, len(text), MIN_BLOCK):
        for back in (1, 5, 10):  # every match spans at least 12 bytes
            _plant(rng, text, pattern, boundary - back)
    text = bytes(text)
    expected = brute_force_endpoints(pattern, text)
    assert list(BitPlan(pattern).ends(text)) == expected
    span = pattern.max_match_span
    for boundary in range(MIN_BLOCK, len(text), MIN_BLOCK):
        assert any(boundary < end <= boundary + span for end in expected)
    combos = _bits(pattern, text)
    assert combos == _streamed(pattern, text)
    assert any(c[0] <= MIN_BLOCK < c[-1] for c in combos)


def test_single_piece_and_suffix_pieces():
    text = b"CACACAACA" * 300
    for pieces, gaps in ((["ACA"], []), (["CA", "ACA", "A"], [(0, 2), (0, 0)]),
                         (["A", "CA", "ACA"], [(0, 3), (1, 4)])):
        pattern = helpers.make_pattern(pieces, gaps)
        assert list(BitPlan(pattern).ends(text)) == brute_force_endpoints(pattern, text)
        assert _bits(pattern, text) == _streamed(pattern, text)


def test_gap_bounds_near_a_billion_build_no_huge_ints():
    rng = random.Random(1)
    text = bytes(rng.choices(b"ACGT", k=3 * MIN_BLOCK + 17))
    for gaps in ([(HUGE - 5, HUGE)], [(0, HUGE)], [(HUGE, None)], [(0, None)]):
        pattern = helpers.make_pattern(["AC", "GT"], gaps)
        plan = BitPlan(pattern)
        tracemalloc.start()
        ends = list(plan.ends(text))
        combos = _bits(pattern, text) if pattern.bounded else []
        counts = plan.count(text)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert ends == brute_force_endpoints(pattern, text)
        assert counts.matches == len(ends)
        if pattern.bounded:
            assert combos == _streamed(pattern, text)
        assert peak < 4_000_000, gaps


def test_every_byte_value():
    text = bytes(range(256)) * 13
    pattern = helpers.make_pattern([b"\xfe\xff", b"\x00", b"\x80\x81"],
                                   [(0, 0), (100, 200)])
    expected = brute_force_endpoints(pattern, text)
    assert expected
    assert list(BitPlan(pattern).ends(text)) == expected
    assert _bits(pattern, text) == _streamed(pattern, text)


def _dna(rng: random.Random, size: int) -> bytes:
    return rng.randbytes(size).translate(bytes(b"ACGT"[c % 4] for c in range(256)))


def test_memory_flat_in_text_length(monkeypatch):
    """tracemalloc peak, text excluded, of every plan's ``ends``, of its
    ``runs`` into a no-op sink and of its ``count``.

    The bit engine's stays within a fixed budget from 250 kB to 2 MB; one
    bit per text position would be 250 kB at 2 MB.  The streaming plans'
    scan holds one translated block of the text, 4 KiB, and tracemalloc
    slows that scan about 35 times (it allocates an int per byte), so
    they scan 1 KiB blocks of 4 kB and 16 kB texts: the peak at 16 kB
    stays within 2 kB of the peak at 4 kB, where one byte per text
    position would add 12 kB.  So does ``StreamPlan.ends`` on a literal
    the bit engine refuses, 101 bytes of ``A``, in text of ``A`` where
    nearly every position ends a match.
    """
    pattern = helpers.make_pattern(["ACG", "TGC", "GG", "TTA", "CA"],
                                   [(2, 9), (0, 5), (3, 8), (1, 6)])
    pattern.automaton  # built once, before any peak is traced
    monkeypatch.setattr(automaton, "_BLOCK", 1024)
    drain = deque(maxlen=0).extend
    rng = random.Random(0)
    plans = [(BitPlan(pattern), (250_000, 2_000_000)),
             (StreamPlan(pattern), (4_000, 16_000)),
             (StreamPlan(pattern, "chunked"), (4_000, 16_000))]
    for plan, sizes in plans:
        peaks: dict[str, list[int]] = {"ends": [], "runs": [], "count": []}
        for size in sizes:
            text = _dna(rng, size)
            for name in peaks:
                tracemalloc.start()
                if name == "ends":
                    drain(plan.ends(text))
                elif name == "runs":
                    plan.runs(text, drain)
                else:
                    plan.count(text)
                peaks[name].append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        for name, (small, large) in peaks.items():
            if isinstance(plan, BitPlan):
                assert max(small, large) < 32_000, (name, small, large)
            else:
                assert large < small + 2_000, (plan.engine, name, small, large)
    many = StreamPlan(helpers.make_pattern(["A" * (MAX_LITERAL + 1)], []))
    many.pattern.automaton
    peaks = []
    for size in (4_000, 16_000):
        text = b"A" * size
        tracemalloc.start()
        drain(many.ends(text))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < peaks[0] + 2_000, peaks


def _deep_instance(seed: int) -> tuple[VlgPattern, bytes]:
    """100 to 300 pieces of 1 to 3 DNA bytes on random DNA with one to
    three matches planted.

    Half the gaps are exact and the rest one to three positions wide; an
    instance is drawn again until the oracle can list its combinations.
    """
    rng = random.Random(seed)
    while True:
        k = rng.randint(100, 300)
        pieces = [bytes(rng.choices(b"ACGT", k=rng.randint(1, 3))) for _ in range(k)]
        gaps = []
        for _ in range(k - 1):
            lower = rng.randint(0, 3)
            gaps.append((lower, lower + (rng.randint(1, 3) if rng.random() < 0.5 else 0)))
        pattern = helpers.make_pattern(pieces, gaps)
        span = pattern.max_match_span
        text = bytearray(_dna(rng, rng.randint(span, 3 * span)))
        for _ in range(rng.randint(1, 3)):
            _plant(rng, text, pattern, rng.randrange(len(text) - span + 1))
        if combination_count(pattern, bytes(text)) <= 20_000:
            return pattern, bytes(text)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32))
def test_hundreds_of_pieces_through_every_engine(seed):
    pattern, text = _deep_instance(seed)
    expected = brute_force_combinations(pattern, text)
    assert expected
    assert list(BitPlan(pattern).ends(text)) == brute_force_endpoints(pattern, text)
    streamed = _streamed(pattern, text)
    assert _bits(pattern, text) == streamed
    assert len(streamed) == len(expected) and set(streamed) == expected
    graph = build_implicit_gap_graph(pattern, text)
    assert count_combinations(graph) == len(expected)
    expanded: list[tuple[int, ...]] = []
    assert expand_combinations(graph, expanded.append) == len(expected)
    assert set(expanded) == expected
    chunked: list[tuple[int, ...]] = []
    report_chunked(pattern, text, chunked.append)
    assert len(chunked) == len(expected) and set(chunked) == expected


def test_literals_of_thousands_of_bytes():
    """Pieces far past MAX_LITERAL, which the CLI never gives the bit
    engine, with occurrences across block boundaries.

    A block is at least as long as the longest piece: 3,000 bytes for the
    two literals, and 2,000 (ends) or 2,007 (runs) for the 2,000-byte
    piece with a short piece after it.
    """
    rng = random.Random(11)
    literal = rng.randbytes(3000)  # every byte value, one mask each
    text = bytearray(rng.randbytes(9500))
    for start in (50, 3100, 6200):  # ends 3050, 6100 and 9200
        text[start:start + len(literal)] = literal
    periodic = b"ACGT" * 750  # overlapping occurrences every 4 positions
    tail = helpers.make_pattern([rng.choices(b"ACGT", k=2000), b"GT"], [(0, 6)])
    dna = bytearray(_dna(rng, 9000))
    for start in (1000, 3500, 6000):  # across the boundaries of both block sizes
        dna[start:start + 2000] = tail.subpatterns[0]
        dna[start + 2000:start + 2009] = b"AGTCGTGTA"  # three GT within the gap
    cases = [(helpers.make_pattern([literal], []), bytes(text), 3),
             (helpers.make_pattern([periodic], []), b"ACGT" * 2375, 1626),
             (tail, bytes(dna), 9)]
    for pattern, data, count in cases:
        assert pattern.literal_length > MAX_LITERAL
        expected = brute_force_endpoints(pattern, data)
        assert list(BitPlan(pattern).ends(data)) == expected
        combos = _bits(pattern, data)
        assert combos == _streamed(pattern, data)
        assert len(combos) == len(set(combos)) == count
        assert set(combos) == brute_force_combinations(pattern, data)
