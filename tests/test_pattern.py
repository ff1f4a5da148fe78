"""Pattern expression parsing, rendering and derived quantities."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from vlgmatch.pattern import (GapBounds, PatternSyntaxError, VlgPattern,
                              parse_pattern, render_pattern)


def test_parse_three_piece_dna_pattern():
    p = parse_pattern("A.{6,7}CC.{2,6}GT")
    assert p.subpatterns == (b"A", b"CC", b"GT")
    assert p.gaps == (GapBounds(6, 7), GapBounds(2, 6))
    assert p.num_subpatterns == 3
    assert p.literal_length == 5
    assert p.min_gap_sum == 8
    assert p.max_gap_sum == 13
    assert p.max_match_span == 18


def test_parse_single_literal():
    p = parse_pattern("GT")
    assert p.subpatterns == (b"GT",)
    assert p.gaps == ()
    assert (p.literal_length, p.num_subpatterns) == (2, 1)
    assert (p.min_gap_sum, p.max_gap_sum) == (0, 0)


def test_parse_unbounded_gap():
    p = parse_pattern("A.{3,*}B")
    assert p.gaps == (GapBounds(3, None),)
    assert p.max_gap_sum is None
    assert p.max_match_span is None
    assert not p.bounded
    assert (p.literal_length, p.num_subpatterns) == (2, 2)
    assert (p.min_gap_sum, p.max_gap_sum) == (3, None)


def test_parse_zero_width_gap_concatenates():
    p = parse_pattern("A.{0,0}T")
    assert p.gaps == (GapBounds(0, 0),)
    assert p.gaps[0].num_lengths == 1


def test_parse_escapes():
    p = parse_pattern(r"a\.b\\c\{d")
    assert p.subpatterns == (b"a.b\\c{d",)
    # "}" needs no escape
    assert parse_pattern("a}b").subpatterns == (b"a}b",)


def test_parse_bytes_input():
    p = parse_pattern(b"AC.{1,5}T")
    assert p.subpatterns == (b"AC", b"T")


@pytest.mark.parametrize("expr, fragment", [
    ("", "empty pattern"),
    (".{1,2}A", "cannot start with a gap"),
    ("A.{1,2}", "end with a literal"),
    ("A.{1,2}.{2,3}B", "adjacent gaps"),
    ("A.{1,2", "expected '}'"),
    ("A.{,2}B", "expected a number"),
    ("A.{1 2}B", "expected ','"),
    ("A.B", "expected '{' after '.'"),
    ("A.", "expected '{' after '.'"),
    ("A{2}B", "unescaped '{'"),
    ("AB\\", "invalid escape"),
    ("A\\nB", "invalid escape"),
])
def test_parse_errors(expr, fragment):
    with pytest.raises(PatternSyntaxError) as info:
        parse_pattern(expr)
    assert fragment in str(info.value)
    assert "offset" in str(info.value)


def test_parse_error_reversed_bounds_names_the_gap():
    with pytest.raises(PatternSyntaxError) as info:
        parse_pattern("A.{1,2}B.{5,3}C")
    assert "gap 2" in str(info.value)
    assert "5" in str(info.value) and "3" in str(info.value)


def test_gap_bounds_validation():
    with pytest.raises(ValueError):
        GapBounds(-1, 4)
    with pytest.raises(ValueError):
        GapBounds(5, 4)
    with pytest.raises(ValueError):
        GapBounds(2, None).num_lengths
    assert GapBounds(2, 6).num_lengths == 5


def test_vlg_pattern_validation():
    with pytest.raises(ValueError):
        VlgPattern((), ())
    with pytest.raises(ValueError):
        VlgPattern((b"A", b""), (GapBounds(0, 1),))
    with pytest.raises(ValueError):
        VlgPattern((b"A", b"B"), ())


def test_gap_bounds_and_patterns_are_values():
    gap = GapBounds(2, 6)
    assert gap == GapBounds(lower=2, upper=6) and gap != GapBounds(2, None)
    assert gap != (2, 6)
    assert hash(gap) == hash(GapBounds(2, 6))
    assert repr(gap) == "GapBounds(lower=2, upper=6)"
    pattern = parse_pattern("A.{2,6}CC")
    assert pattern == VlgPattern((b"A", b"CC"), (gap,))
    assert pattern != parse_pattern("A.{2,7}CC")
    assert {pattern: 1}[parse_pattern("A.{2,6}CC")] == 1
    assert repr(pattern) == ("VlgPattern(subpatterns=(b'A', b'CC'), "
                             "gaps=(GapBounds(lower=2, upper=6),))")
    # a cached figure is kept out of equality, hashing and repr
    assert pattern.max_match_span == 9
    assert pattern == VlgPattern((b"A", b"CC"), (gap,))
    assert hash(pattern) == hash(VlgPattern((b"A", b"CC"), (gap,)))
    assert "max_match_span" not in repr(pattern)


@pytest.mark.parametrize("value, field", [
    (GapBounds(2, 6), "lower"), (GapBounds(2, None), "upper"),
    (parse_pattern("A.{2,6}CC"), "subpatterns"), (parse_pattern("AC"), "gaps")])
def test_value_fields_cannot_be_assigned(value, field):
    before = getattr(value, field)
    with pytest.raises(AttributeError, match=field):
        setattr(value, field, before)
    with pytest.raises(AttributeError, match=field):
        delattr(value, field)
    assert getattr(value, field) == before


# ---------------------------------------------------------------------------
# round-trip property

_pieces = st.lists(st.binary(min_size=1, max_size=5), min_size=1, max_size=5)
_gap = st.tuples(st.integers(0, 50),
                 st.one_of(st.none(), st.integers(0, 50)))


@st.composite
def patterns(draw):
    pieces = draw(_pieces)
    gaps = []
    for _ in range(len(pieces) - 1):
        lower, extra = draw(_gap)
        gaps.append(GapBounds(lower, None if extra is None else lower + extra))
    return VlgPattern(tuple(pieces), tuple(gaps))


@given(patterns())
def test_render_parse_round_trip(pattern):
    expr = render_pattern(pattern)
    # rendering is latin-1 faithful, so encode accordingly for raw bytes
    again = parse_pattern(expr.encode("latin-1"))
    assert again == pattern
    assert render_pattern(again) == expr


@given(st.lists(st.text(alphabet="ACGT{}.\\ 0123456789*,x", min_size=1, max_size=6),
                min_size=1, max_size=4),
       st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=3))
def test_render_parse_round_trip_ascii(pieces, raw_gaps):
    gaps = [GapBounds(lo, lo + extra) for lo, extra in raw_gaps[:len(pieces) - 1]]
    while len(gaps) < len(pieces) - 1:
        gaps.append(GapBounds(0, 0))
    pattern = VlgPattern(tuple(s.encode() for s in pieces), tuple(gaps))
    assert parse_pattern(render_pattern(pattern)) == pattern
