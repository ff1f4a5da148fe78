"""Shared test fixtures: worked DNA examples and a random-instance generator."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path
from typing import Callable, Iterable

import vlgmatch
from vlgmatch.bitvec import BitPlan
from vlgmatch.gapgraph import Run
from vlgmatch.oracle import combination_count
from vlgmatch.pattern import GapBounds, VlgPattern

# The worked example used throughout: a 31-character DNA text and a
# three-piece pattern matching at end positions 17, 28 and 31.
EXAMPLE_TEXT = b"ATCGGCTCCAGACCAGTACCCGTTCCGTGGT"
EXAMPLE_PATTERN = "A.{6,7}CC.{2,6}GT"

# Four-piece pattern on the same text; the match spanning positions 5..17
# decomposes into exactly five combinations.
COMBO_PATTERN = "G.{0,3}C.{1,6}A.{2,7}T"
COMBO_FIVE = {
    (5, 9, 12, 17),
    (5, 8, 12, 17),
    (5, 8, 10, 17),
    (5, 6, 12, 17),
    (5, 6, 10, 17),
}

# Three-piece pattern whose full predecessor graph is small enough to
# check node by node.
GRAPH_PATTERN = "C.{0,3}G.{3,10}A"
GRAPH_TEXT = b"CTGGCCCCGCTCCACGTTGAGCGGCGCTGAG"

# Two-piece pattern whose final occurrence links to its first and last
# of three compatible predecessors.
DUAL_PATTERN = "AC.{1,5}T"
DUAL_TEXT = b"GACACACCTGGCATAGCCGA"


def module_cli_env() -> dict[str, str]:
    """Environment for a ``python -m vlgmatch`` child on the package under test.

    The child's ``PYTHONPATH`` starts with the directory this process
    imported ``vlgmatch`` from, so it needs no installed console script.
    """
    src_dir = str(Path(vlgmatch.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src_dir, env.get("PYTHONPATH")]))
    return env


def run_module_cli(argv: list[str]) -> subprocess.CompletedProcess:
    """Run ``python -m vlgmatch *argv`` on the package under test."""
    return subprocess.run([sys.executable, "-m", "vlgmatch", *argv],
                          capture_output=True, text=True,
                          env=module_cli_env(), timeout=60)


def report_bits(pattern: VlgPattern, text: bytes,
                sink: Callable[[tuple[int, ...]], None]) -> None:
    """The bit engine's combinations as tuples, in the order of its runs.

    ``BitPlan.runs`` calls its sink only for a block holding a match, so
    every call must bring at least one run.
    """
    def flatten(runs: Iterable[Run]) -> None:
        runs = list(runs)
        assert runs
        for suffix, firsts in runs:
            for first in firsts:
                sink((first, *suffix))

    BitPlan(pattern).runs(text, flatten)


def make_pattern(subs: list[bytes | str],
                 gaps: list[tuple[int, int | None]]) -> VlgPattern:
    pieces = tuple(s.encode() if isinstance(s, str) else bytes(s) for s in subs)
    return VlgPattern(pieces, tuple(GapBounds(lo, hi) for lo, hi in gaps))


def random_instance(rng: random.Random, *,
                    max_text: int = 300,
                    unbounded_share: float = 0.0) -> tuple[VlgPattern, bytes]:
    """One randomized pattern/text pair within the acceptance bounds.

    Alphabet size 1..4 over ACGT, |T| <= max_text (shorter for the
    single-letter alphabet, which explodes combinatorially), k <= 4,
    piece lengths <= 4, gap lower bounds <= 6, widths <= 6.  Half of the
    pieces are sampled from the text itself so matches actually happen.
    Texts are halved until the combination count fits the test budget.
    """
    sigma = rng.randint(1, 4)
    alphabet = b"ACGT"[:sigma]
    limit = min(max_text, 90) if sigma == 1 else max_text
    length = rng.randint(0, limit)
    text = bytes(rng.choice(alphabet) for _ in range(length))
    pieces = []
    for _ in range(rng.randint(1, 4)):
        width = rng.randint(1, 4)
        if length >= width and rng.random() < 0.5:
            at = rng.randint(0, length - width)
            pieces.append(text[at:at + width])
        else:
            pieces.append(bytes(rng.choice(alphabet) for _ in range(width)))
    gaps = []
    for _ in range(len(pieces) - 1):
        lower = rng.randint(0, 6)
        if unbounded_share and rng.random() < unbounded_share:
            gaps.append(GapBounds(lower, None))
        else:
            gaps.append(GapBounds(lower, lower + rng.randint(0, 6)))
    pattern = VlgPattern(tuple(pieces), tuple(gaps))
    if pattern.bounded:
        while combination_count(pattern, text) > 30_000:
            text = text[:len(text) // 2]
    return pattern, text
