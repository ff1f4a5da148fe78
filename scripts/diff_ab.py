#!/usr/bin/env python3
"""Compare the CLI output of a change with its parent's on a fixed grid.

Usage, from the root of a checkout:

    python3 scripts/diff_ab.py --parent REV [--workdir DIR]

The change is the checkout's ``HEAD``.  Both sides are committed trees,
extracted with ``git archive`` as ``bench_ab.py`` does, into a temporary
directory (under ``--workdir`` if given) that is deleted at the end.  The
grid's inputs are written there from a fixed seed, once for both sides.
One child Python per side, with that tree's ``src`` first on its path,
calls ``vlgmatch.cli.run`` in-process for every cell and records its exit
status, stdout and stderr.

The grid crosses every command (``match``, ``combos`` with no engine,
``--engine onthefly`` and ``--engine chunked``, ``stats``, ``graph``,
``oracle match``, ``oracle combos``), each in text and JSON, with
patterns at and past the engine-choice limits and inputs with awkward
shapes (see ``PATTERNS`` and ``inputs``).  The
script prints every cell whose status, stdout or stderr differ, one
SHA-256 per side over all cells, and exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_ab import extract, git

SEED = 22
COMMANDS = (["match"], ["combos"], ["combos", "--engine", "onthefly"],
            ["combos", "--engine", "chunked"],
            ["stats"], ["graph"], ["oracle", "match"], ["oracle", "combos"])
LITERAL = bytes(random.Random(SEED).choices(b"ACGT", k=101))
PATTERNS = {
    "worked": "A.{6,7}CC.{2,6}GT",
    "four_pieces": "G.{0,3}C.{1,6}A.{2,7}T",
    "unbounded": "A.{2,*}GT",
    "sigma_over_8": "KLD.{0,8}EEN.{2,12}RWMA",  # 9 distinct bytes
    "carry_over_16384": "ACG.{0,20000}TTG",
    "literal_101": LITERAL.decode(),
    "malformed": "A.{3",
}

# Runs one side's cells: argv lists on stdin, one result per cell on stdout.
CHILD = r"""
import contextlib, io, json, sys
from vlgmatch import cli

results = []
for argv in json.load(sys.stdin):
    out, err = io.BytesIO(), io.StringIO()
    text = io.TextIOWrapper(out, encoding="utf-8")
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except Exception as exc:  # a traceback the CLI let through
            code = f"raised {type(exc).__name__}: {exc}"
        text.flush()
    results.append([code, out.getvalue().decode("utf-8"), err.getvalue()])
json.dump(results, sys.stdout)
"""


def inputs(into: Path) -> dict[str, tuple[str, list[str]]]:
    """Each input's file name in ``into`` and extra CLI arguments, generated
    from ``SEED``; the children run in ``into``, so no output names it."""
    rng = random.Random(SEED)

    def dna(size: int) -> bytes:
        return bytes(rng.choices(b"ACGT", k=size))

    # every pattern but the malformed one matches somewhere in ``body``
    plants = [b"ATCGGCTCCAGACCAGTACCCGTTCCGTGGT", b"GAACGATGGTCAT", b"AAGT",
              b"KLDAAEENCCRWMA", b"ACG" + dna(30) + b"TTG", LITERAL]
    body = b"".join(dna(rng.randint(50, 400)) + plant for plant in plants) + dna(200)
    lines = [body[i:i + 60] for i in range(0, len(body), 60)]
    third = len(body) // 3
    files = {
        "plain.txt": body + b"\n",
        "crlf.txt": b"\r\n".join(lines) + b"\r\n",
        "odd_ids.fa": (b'>q"uote one\n' + body[:third] + b"\n>empty\n>\n"
                       + body[third:2 * third] + b"\n>back\\slash\n" + body[2 * third:]
                       + b"\n>\xff\xfe\n" + lines[0] + b"\n>tail\n"),
        "data_before_header.fa": lines[0] + b"\n>r1\n" + lines[1] + b"\n",
        "empty.txt": b"",
        "random_bytes.bin": rng.randbytes(2000),
        "periodic.txt": b"ACGTTGCA" * 50,
    }
    paths = {}
    for name, data in files.items():
        (into / name).write_bytes(data)
        paths[name] = (name, ["--fasta"] if name == "data_before_header.fa" else [])
    paths["missing"] = ("missing.txt", [])
    return paths


def grid(paths: dict[str, tuple[str, list[str]]]) -> list[list[str]]:
    return [[*command, "-p", expr, "-t", path, *extra, "--format", fmt]
            for command in COMMANDS for fmt in ("text", "json")
            for expr in PATTERNS.values() for path, extra in paths.values()]


def run_side(tree: Path, data: Path, cells: list[list[str]]) -> list[list]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run([sys.executable, "-c", CHILD], cwd=data, env=env,
                          input=json.dumps(cells), capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"diff_ab: {tree.name}: child exited {done.returncode}\n"
                 f"{done.stderr[-2000:]}")
    return json.loads(done.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent commit")
    parser.add_argument("--workdir", type=lambda path: Path(path).resolve(), default=None,
                        help="where the temporary directory for both trees goes")
    args = parser.parse_args()
    commits = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", "HEAD")}
    with tempfile.TemporaryDirectory(prefix="diff_ab-", dir=args.workdir) as workdir:
        data = Path(workdir) / "inputs"
        data.mkdir()
        cells = grid(inputs(data))
        results = {}
        for side, commit in commits.items():
            extract(commit, Path(workdir) / side)
            results[side] = run_side(Path(workdir) / side, data, cells)
        differing = 0
        for argv, parent, change in zip(cells, results["parent"], results["change"]):
            parts = [part for part, a, b in zip(("status", "stdout", "stderr"), parent, change)
                     if a != b]
            if parts:
                differing += 1
                print(f"DIFF {' '.join(parts)}: {' '.join(argv)}")
    for side, commit in commits.items():
        digest = hashlib.sha256(json.dumps(results[side]).encode()).hexdigest()
        print(f"{side} {commit[:12]} sha256 {digest}")
    statuses = sorted({str(code) for code, _, _ in results["change"]})
    print(f"cells {len(cells)}, differing {differing}, exit statuses {statuses}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
