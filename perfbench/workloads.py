"""Seeded input generators for the benchmark workloads.

Each workload is one pattern and one generated text file.  They are chosen
so that each stage of vlgmatch is the bottleneck in one workload and
nearly idle in another:

- ``dna_dense``: α-bound.  Random DNA where every piece occurs often; the
  scan takes about three quarters of ``match`` and the matcher the rest,
  and graph building doubles the work of ``combos``.
- ``dna_sparse``: n-bound.  Random DNA with rare pieces and planted
  matches; the multi-string scan is essentially all the work, so a scan
  change shows in full here and a matcher, graph or reporter change shows
  nothing.
- ``periodic_dense``: β-bound.  ``A`` repeated against ``A.{0,3}A.{0,3}A``;
  a one-state scan, but every position starts 16 combinations, so
  expansion and output formatting dominate ``combos``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

DNA = b"ACGT"


@dataclass(frozen=True)
class Input:
    """A generated text and the matches planted in it."""

    text: bytes
    planted: tuple[tuple[int, ...], ...] = ()  # end positions of each piece

    @property
    def data(self) -> bytes:
        """The file as written: the text and a newline, which the CLI drops."""
        return self.text + b"\n"


@dataclass(frozen=True)
class Workload:
    name: str
    pattern: str
    make: Callable[[random.Random], Input]


def _random_dna(rng: random.Random, size: int) -> bytearray:
    return bytearray(rng.choices(DNA, k=size))


def _plant(buf: bytearray, at: int, pieces: list[bytes], fillers: list[int],
           rng: random.Random) -> tuple[int, ...]:
    """Write pieces separated by random fillers at 0-based ``at``.

    Returns the 1-based end positions of the pieces: the planted combination.
    """
    ends = []
    pos = at
    for i, piece in enumerate(pieces):
        if i:
            buf[pos:pos + fillers[i - 1]] = _random_dna(rng, fillers[i - 1])
            pos += fillers[i - 1]
        buf[pos:pos + len(piece)] = piece
        pos += len(piece)
        ends.append(pos)
    return tuple(ends)


def dna_dense(rng: random.Random) -> Input:
    return Input(bytes(_random_dna(rng, 500_000)))


def dna_sparse(rng: random.Random) -> Input:
    size, count = 1_000_000, 100
    buf = _random_dna(rng, size)
    slot = size // count
    planted = []
    for i in range(count):
        fillers = [rng.randint(5, 20), rng.randint(10, 30)]
        at = i * slot + rng.randrange(slot - 100)
        planted.append(_plant(buf, at, [b"GATTACA", b"CCGGTT", b"TATAGC"],
                              fillers, rng))
    return Input(bytes(buf), tuple(planted))


def periodic_dense(rng: random.Random) -> Input:
    # The adversarial text has no free parameter; the seed does not change it.
    return Input(b"A" * 15_000)


WORKLOADS = {w.name: w for w in [
    Workload("dna_dense", "ACG.{2,9}TGC.{0,5}GG.{3,8}TTA.{1,6}CA", dna_dense),
    Workload("dna_sparse", "GATTACA.{5,20}CCGGTT.{10,30}TATAGC", dna_sparse),
    Workload("periodic_dense", "A.{0,3}A.{0,3}A", periodic_dense),
]}
