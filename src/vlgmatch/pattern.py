"""Patterns made of literal strings separated by variable-length gaps.

Expression syntax::

    pattern  =  literal ( gap literal )*
    gap      =  ".{" INT "," ( INT | "*" ) "}"
    literal  =  one or more characters; "." "\\" "{" must be escaped
                as "\\." "\\\\" "\\{"

``A.{6,7}CC.{2,6}GT`` matches an ``A``, then 6 or 7 arbitrary characters,
then ``CC``, then 2 to 6 arbitrary characters, then ``GT``.  ``.{a,*}``
puts no upper bound on the filler length and ``.{0,0}`` concatenates.

Patterns and texts are byte sequences throughout; nothing is assumed
about the alphabet.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .automaton import Automaton

# bytes that cannot appear unescaped inside a literal
_ESCAPABLE = frozenset(b".\\{")

_BACKSLASH = 0x5C
_DOT = 0x2E
_LBRACE = 0x7B
_RBRACE = 0x7D
_COMMA = 0x2C
_STAR = 0x2A


def ensure_bytes(data: str | bytes | bytearray | memoryview) -> bytes:
    """Coerce text-like input to bytes (str is encoded as UTF-8)."""
    if isinstance(data, str):
        return data.encode("utf-8")
    return bytes(data)


class PatternSyntaxError(ValueError):
    """Malformed pattern expression; ``offset`` is the 0-based byte offset."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class _Value:
    """``dataclass(frozen=True)`` over ``_fields``, without importing ``inspect``."""

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other: object) -> bool:
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = map("{}={!r}".format, self._fields, self._values())
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


class GapBounds(_Value):
    """Admissible filler lengths between two neighbouring literals.

    ``upper is None`` means the gap has no upper bound.
    """

    _fields = ("lower", "upper")

    def __init__(self, lower: int, upper: int | None) -> None:
        if lower < 0:
            raise ValueError(f"gap lower bound must be >= 0, got {lower}")
        if upper is not None and upper < lower:
            raise ValueError(f"gap bounds out of order: {lower} > {upper}")
        self.__dict__.update(lower=lower, upper=upper)

    @property
    def num_lengths(self) -> int:
        """Number of distinct filler lengths the gap admits."""
        if self.upper is None:
            raise ValueError("gap has no upper bound")
        return self.upper - self.lower + 1


class VlgPattern(_Value):
    """A parsed gap pattern: literal pieces and the gaps between them."""

    _fields = ("subpatterns", "gaps")

    def __init__(self, subpatterns: tuple[bytes, ...],
                 gaps: tuple[GapBounds, ...]) -> None:
        if not subpatterns:
            raise ValueError("pattern needs at least one literal")
        if any(not piece for piece in subpatterns):
            raise ValueError("empty literal in pattern")
        if len(gaps) != len(subpatterns) - 1:
            raise ValueError("pattern needs one gap between consecutive literals")
        self.__dict__.update(subpatterns=subpatterns, gaps=gaps)

    @property
    def num_subpatterns(self) -> int:
        return len(self.subpatterns)

    @cached_property
    def literal_length(self) -> int:
        """Total number of literal characters across all pieces."""
        return sum(len(piece) for piece in self.subpatterns)

    @cached_property
    def min_gap_sum(self) -> int:
        return sum(gap.lower for gap in self.gaps)

    @cached_property
    def max_gap_sum(self) -> int | None:
        """Sum of the gap upper bounds, or None if any gap is unbounded."""
        uppers = [gap.upper for gap in self.gaps]
        return None if None in uppers else sum(uppers)

    @cached_property
    def bounded(self) -> bool:
        return self.max_gap_sum is not None

    @cached_property
    def max_match_span(self) -> int | None:
        """Longest possible match length, or None with unbounded gaps."""
        total = self.max_gap_sum
        return None if total is None else self.literal_length + total

    @cached_property
    def automaton(self) -> Automaton:
        """Scanner for the pieces, built on first use and shared after."""
        from .automaton import build_automaton  # automaton imports this module
        return build_automaton(self.subpatterns)


def parse_pattern(expr: str | bytes) -> VlgPattern:
    """Parse a pattern expression.

    Raises :class:`PatternSyntaxError` for malformed input: bad escapes,
    bad gap tokens, a gap whose lower bound exceeds its upper bound, a gap
    at the start or end, or two gaps with no literal between them.
    """
    data = ensure_bytes(expr)
    subs: list[bytes] = []
    gaps: list[GapBounds] = []
    cur = bytearray()
    i = 0
    n = len(data)
    while i < n:
        c = data[i]
        if c == _BACKSLASH:
            if i + 1 >= n or data[i + 1] not in _ESCAPABLE:
                raise PatternSyntaxError("invalid escape", i)
            cur.append(data[i + 1])
            i += 2
        elif c == _DOT:
            if not cur:
                if not subs:
                    raise PatternSyntaxError("pattern cannot start with a gap", i)
                raise PatternSyntaxError(
                    "adjacent gaps with no literal between them", i)
            subs.append(bytes(cur))
            cur = bytearray()
            gap, i = _parse_gap(data, i, len(gaps) + 1)
            gaps.append(gap)
        elif c == _LBRACE:
            raise PatternSyntaxError("unescaped '{' in literal", i)
        else:
            cur.append(c)
            i += 1
    if not cur:
        if subs:
            raise PatternSyntaxError("pattern must end with a literal", n)
        raise PatternSyntaxError("empty pattern", 0)
    subs.append(bytes(cur))
    return VlgPattern(tuple(subs), tuple(gaps))


def _parse_gap(data: bytes, i: int, index: int) -> tuple[GapBounds, int]:
    # data[i] is the "." that opened the gap; index is 1-based for messages
    start = i
    i += 1
    if i >= len(data) or data[i] != _LBRACE:
        raise PatternSyntaxError("expected '{' after '.'", i)
    i += 1
    lower, i = _parse_int(data, i)
    if i >= len(data) or data[i] != _COMMA:
        raise PatternSyntaxError("expected ',' in gap", i)
    i += 1
    upper: int | None
    if i < len(data) and data[i] == _STAR:
        upper = None
        i += 1
    else:
        upper, i = _parse_int(data, i)
    if i >= len(data) or data[i] != _RBRACE:
        raise PatternSyntaxError("expected '}' closing gap", i)
    if upper is not None and lower > upper:
        raise PatternSyntaxError(
            f"gap {index} has lower bound {lower} greater than upper bound {upper}",
            start)
    return GapBounds(lower, upper), i + 1


def _parse_int(data: bytes, i: int) -> tuple[int, int]:
    j = i
    while j < len(data) and 0x30 <= data[j] <= 0x39:
        j += 1
    if j == i:
        raise PatternSyntaxError("expected a number", i)
    return int(data[i:j]), j


def render_pattern(pattern: VlgPattern) -> str:
    """Expression that parses back to ``pattern`` (inverse of parse)."""
    parts: list[str] = []
    for pos, piece in enumerate(pattern.subpatterns):
        if pos:
            gap = pattern.gaps[pos - 1]
            upper = "*" if gap.upper is None else str(gap.upper)
            parts.append(f".{{{gap.lower},{upper}}}")
        parts.append("".join(
            "\\" + chr(c) if c in _ESCAPABLE else chr(c) for c in piece))
    return "".join(parts)
