"""Correctness gate: what each CLI output must be, from the brute-force oracle.

The expectations are computed once per input, outside any timed region.
``match`` output is fully determined, so it is checked by digest.  ``stats``
is parsed and its counts compared with the oracle.  ``combos`` output is
checked tuple by tuple (every piece present at its end position, every gap
within its bounds), for exactly ``combination_count`` distinct tuples, with
both engines emitting the same set and every planted match present.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from vlgmatch import oracle
from vlgmatch.pattern import VlgPattern


class Expected:
    """Oracle results for one text."""

    def __init__(self, pattern: VlgPattern, text: bytes,
                 planted: tuple[tuple[int, ...], ...] = ()) -> None:
        self.pattern = pattern
        self.text = text
        self.planted = planted
        self.ends = oracle.brute_force_endpoints(pattern, text)
        self.beta = oracle.combination_count(pattern, text)
        self.alpha = sum(map(len, oracle.occurrences_by_layer(pattern, text)))
        self.match_sha256 = hashlib.sha256(
            "".join(f"{end}\n" for end in self.ends).encode()).hexdigest()
        for combo in planted:
            if combo[-1] not in self.ends:
                raise AssertionError(f"planted match {combo} missing from the oracle")

    def _combos(self, path: Path):
        """Yield every tuple of a combos output file, raising at an invalid one."""
        pieces = self.pattern.subpatterns
        gaps = self.pattern.gaps
        text = self.text
        with open(path, "rb") as handle:
            for line in handle:
                ends = tuple(int(field) for field in line.split(b","))
                if len(ends) != len(pieces):
                    raise ValueError(f"tuple of {len(ends)} ends: {line!r}")
                for i, (piece, end) in enumerate(zip(pieces, ends)):
                    if end < len(piece) or text[end - len(piece):end] != piece:
                        raise ValueError(f"piece {i + 1} absent at {end}: {line!r}")
                    if i:
                        gap = end - len(piece) - ends[i - 1]
                        if not gaps[i - 1].lower <= gap <= gaps[i - 1].upper:
                            raise ValueError(f"gap {i} of length {gap}: {line!r}")
                yield ends

    def check_onthefly(self, path: Path) -> set[tuple[int, ...]]:
        """Raise unless the file holds exactly the oracle's tuples; return them."""
        seen = set()
        emitted = 0
        for combo in self._combos(path):
            seen.add(combo)
            emitted += 1
        if emitted != self.beta or len(seen) != self.beta:
            raise ValueError(f"combos: {emitted} lines, {len(seen)} distinct, "
                             f"oracle {self.beta}")
        missing = set(self.planted) - seen
        if missing:
            raise ValueError(f"planted matches not emitted: {sorted(missing)[:3]}")
        return seen

    def check_chunked(self, path: Path, seen: set[tuple[int, ...]]) -> None:
        """Raise unless the file holds exactly the tuples in ``seen``; empties it."""
        for combo in self._combos(path):
            try:
                seen.remove(combo)
            except KeyError:
                raise ValueError("chunked engine emitted a tuple the "
                                 "on-the-fly engine did not, or twice") from None
        if seen:
            raise ValueError(f"chunked engine missed {len(seen)} tuples")

    def check_stats(self, text: str) -> dict[str, int]:
        """Raise unless ``stats`` agrees with the oracle; return alpha and beta."""
        got = dict(line.split(" ", 1) for line in text.splitlines())
        pattern = self.pattern
        want = {"n": len(self.text), "m": pattern.literal_length,
                "k": pattern.num_subpatterns, "alpha": self.alpha,
                "matches": len(self.ends), "beta": self.beta}
        for key, value in want.items():
            if got.get(key) != str(value):
                raise ValueError(f"stats {key} {got.get(key)}, oracle {value}")
        return {"alpha": self.alpha, "beta": self.beta}
