"""Command line interface.

Subcommands: match (end positions), combos (full combinations), graph
(predecessor graph dump), stats (size and occurrence counters), and
oracle match / oracle combos (brute-force reference, same output shapes).
match, combos and stats run the plan ``_plan`` chooses: the bit-parallel
``bitvec.BitPlan`` when the pattern has few distinct bytes, few literal
bytes and narrow gaps, else the paper's engines (``reporter.StreamPlan``),
one of which ``combos --engine`` may name.  Every engine, and the oracle,
gives the same lines in the same order.

Input is a file path or "-" for stdin.  FASTA input (enabled by --fasta or
auto-detected from a leading ">") is searched record by record with
1-based positions inside each record and an "<id>:" prefix on every output
line; plain input is the whole file minus one trailing newline.

Lines go out with one ``%`` format per run of combinations or batch of
ends; ``main`` gives stdout a 64 KiB buffer (a terminal stays line-buffered).

Exit status 0 on success (matching nothing is success), 2 on usage errors:
unparseable pattern, unreadable input, unbounded gaps passed to a
combination or graph command, or a closed stdout; a closed stderr only
loses the message.  Where the platform has SIGPIPE, a closed stdout pipe
ends the process silently by that signal.
"""

from __future__ import annotations

import argparse
import io
import os
import signal
import stat
import sys
from itertools import chain, islice
from types import SimpleNamespace
from typing import TYPE_CHECKING, BinaryIO, Iterable, Iterator

from .pattern import parse_pattern

# json and the engines are imported where they run (each costs its compile)
if TYPE_CHECKING:
    from .gapgraph import Run, RunSink


def _warn(message: str) -> None:
    """One line on stderr; a closed stderr drops it (``main`` mends the exit)."""
    try:
        if sys.stderr is not None:  # None when started with descriptor 2 closed
            print(message, file=sys.stderr, flush=True)
    except OSError:
        pass


class InputDocument(SimpleNamespace):
    """One searchable text: a FASTA record, or a whole plain file (no id)."""

    def __init__(self, ident: str | None, sequence: bytes) -> None:
        super().__init__(ident=ident, sequence=sequence)


def ingest_fasta(stream: BinaryIO) -> Iterator[InputDocument]:
    """Parse FASTA records from a binary stream.

    The record id is the first whitespace-separated token after ">";
    sequence lines are concatenated with all whitespace removed.  Records
    with an empty sequence are skipped with a warning on stderr.
    """
    ident: str | None = None
    parts: list[bytes] = []
    # a sentinel header ends the last record
    for line in chain(stream, [b">"]):
        if line.startswith(b">"):
            sequence = b"".join(parts)
            if sequence:
                yield InputDocument(ident, sequence)
            elif ident is not None:
                _warn(f"warning: FASTA record '{ident}' has an empty sequence; skipped")
            tokens = line[1:].split()
            ident = tokens[0].decode("utf-8", "replace") if tokens else ""
            parts = []
        else:
            chunk = b"".join(line.split())
            if chunk and ident is None:
                raise ValueError("sequence data before the first FASTA header")
            parts.append(chunk)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vlgmatch",
        description="Match patterns with variable-length gaps against large texts.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subs, name: str, handler, help: str, bounded_for: str | None = None):
        p = subs.add_parser(name, help=help)
        p.set_defaults(handler=handler, bounded_for=bounded_for)
        p.add_argument("-p", "--pattern", required=True,
                       help="pattern expression, e.g. 'A.{6,7}CC.{2,6}GT'")
        p.add_argument("-t", "--text", required=True,
                       help="input file path, or '-' for stdin")
        p.add_argument("--fasta", action="store_true",
                       help="treat input as FASTA (auto-detected from a leading '>')")
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    command(sub, "match", _match, "print match end positions")
    p_combos = command(sub, "combos", _combos, "print full match combinations",
                       "combination reporting")
    p_combos.add_argument("--engine", choices=("onthefly", "chunked"),
                          help="force one of the paper's engines (default: the "
                               "bit-parallel engine for patterns with few "
                               "distinct bytes and short pieces, else onthefly)")
    command(sub, "graph", _graph, "dump the predecessor graph", "the predecessor graph")
    command(sub, "stats", _stats, "print pattern/text/run statistics")

    p_oracle = sub.add_parser("oracle", help="brute-force reference engine")
    osub = p_oracle.add_subparsers(dest="oracle_command", required=True)
    command(osub, "match", _oracle_match, "reference match end positions")
    command(osub, "combos", _oracle_combos, "reference match combinations",
            "combination reporting")
    return parser


def _read(handle: BinaryIO, size: int = 0) -> bytes:
    """The input less one trailing ``\r\n`` or ``\n``.  Given a regular
    file's ``size``, it is read to that length less the newline, so the
    text is not copied.  A stream, or a file not ``size`` long (a /proc
    file has size 0), is read whole, then again from memory at its length."""
    tail = b""
    if size:
        handle.seek(max(0, size - 2))
        tail = handle.read(2)
        handle.seek(0)
    cut = 2 if tail.endswith(b"\r\n") else int(tail.endswith(b"\n"))
    raw, rest = handle.read(size - cut), handle.read()
    if len(raw) == size - cut and rest == tail[len(tail) - cut:]:
        return raw
    raw += rest  # no copy when nothing was read before
    return _read(io.BytesIO(raw), len(raw))


def _load_documents(args: argparse.Namespace) -> Iterable[InputDocument]:
    if args.text == "-":
        raw = _read(sys.stdin.buffer)
    else:
        with open(args.text, "rb") as handle:
            info = os.fstat(handle.fileno())
            raw = _read(handle, info.st_size if stat.S_ISREG(info.st_mode) else 0)
    if args.fasta or raw.startswith(b">"):
        # parsed as the commands ask, so one record is held at a time
        return ingest_fasta(io.BytesIO(raw))
    return [InputDocument(None, raw)]


def _line_format(args, ident: str | None, key: str) -> tuple[str, str, str]:
    """(head, sep, close): a line is head + sep.join(values) + close."""
    if args.format == "text":
        return ("" if ident is None else f"{ident}:"), ",", "\n"
    import json
    head = "{" + ("" if ident is None else f'"record": {json.dumps(ident)}, ')
    if key == "end":
        return head + '"end": ', "", "}\n"
    return head + '"ends": [', ", ", "]}\n"


_ENDS_PER_WRITE = 2048


def _write_ends(args, ident: str | None, ends: Iterable[int]) -> None:
    """Writes the ends in batches of ``_ENDS_PER_WRITE``, one ``%`` format each."""
    head, _, close = _line_format(args, ident, "end")
    line = head.replace("%", "%%") + "%d" + close
    write = sys.stdout.write
    ends = iter(ends)
    while batch := tuple(islice(ends, _ENDS_PER_WRITE)):
        write(line * len(batch) % batch)


def _run_writer(args, ident: str | None) -> RunSink:
    """Writes each run of combinations with one ``%`` format and one write."""
    head, sep, close = _line_format(args, ident, "ends")
    head = head.replace("%", "%%") + "%d"  # an id may hold "%"
    write = sys.stdout.write

    def write_runs(runs: Iterable[Run]) -> None:
        for suffix, firsts in runs:
            line = head + (sep + "%d") * len(suffix) % suffix + close
            write(line * len(firsts) % tuple(firsts))
    return write_runs


def _plan(pattern, engine: str | None = None):
    """The engine a command runs, a ``BitPlan`` or a ``StreamPlan``: the
    bit engine when ``bitvec.suits`` the pattern and no engine is named."""
    if engine is None:
        from . import bitvec
        if bitvec.suits(pattern):
            return bitvec.BitPlan(pattern)
    from .reporter import StreamPlan
    return StreamPlan(pattern, engine)


def _match(args, pattern, docs) -> None:
    ends = _plan(pattern).ends
    for doc in docs:
        _write_ends(args, doc.ident, ends(doc.sequence))


def _oracle_match(args, pattern, docs) -> None:
    from . import oracle
    for doc in docs:
        _write_ends(args, doc.ident, oracle.brute_force_endpoints(pattern, doc.sequence))


def _combos(args, pattern, docs) -> None:
    runs = _plan(pattern, args.engine).runs
    for doc in docs:
        runs(doc.sequence, _run_writer(args, doc.ident))


def _oracle_combos(args, pattern, docs) -> None:
    from . import oracle
    for doc in docs:
        # by last end, then by the earlier ends from the last: the engines' order
        combos = sorted(oracle.brute_force_combinations(pattern, doc.sequence),
                        key=lambda combo: combo[::-1])
        _run_writer(args, doc.ident)((combo[1:], [combo[0]]) for combo in combos)


def _graph(args, pattern, docs) -> None:
    """Text output is ``N <layer> <endpos>`` per node, then ``E <layer>
    <endpos> <pred_layer> <pred_endpos>`` per edge, each by (layer, endpos)."""
    import json
    from .gapgraph import build_implicit_gap_graph
    write = sys.stdout.write
    for doc in docs:
        graph = build_implicit_gap_graph(pattern, doc.sequence)
        if args.format == "text":
            prefix = "" if doc.ident is None else f"{doc.ident}:"
            for layer, end in graph.nodes():
                write(f"{prefix}N {layer} {end}\n")
            for layer, end, pred in graph.edges():
                write(f"{prefix}E {layer} {end} {layer - 1} {pred}\n")
            continue
        record = {} if doc.ident is None else {"record": doc.ident}
        for layer, end in graph.nodes():
            write(json.dumps({"type": "node", "layer": layer, "end": end,
                              **record}) + "\n")
        for layer, end, pred in graph.edges():
            write(json.dumps({"type": "edge", "layer": layer, "end": end,
                              "pred_layer": layer - 1, "pred_end": pred,
                              **record}) + "\n")


def _stats(args, pattern, docs) -> None:
    count = _plan(pattern).count
    write = sys.stdout.write
    for doc in docs:
        counts = count(doc.sequence)
        values = {"n": len(doc.sequence), "m": pattern.literal_length,
                  "k": pattern.num_subpatterns, "A": pattern.min_gap_sum,
                  "B": pattern.max_gap_sum, "alpha": sum(counts.layer_occurrences),
                  **counts._asdict()}
        if args.format == "json":
            import json
            if doc.ident is not None:
                values["record"] = doc.ident
            write(json.dumps(values) + "\n")
            continue
        if doc.ident is not None:
            write(f"record {doc.ident}\n")
        for key, value in values.items():
            if isinstance(value, list):
                value = ",".join(map(str, value)) or "-"
            elif value is None:
                value = "unbounded" if key == "B" else "unavailable"
            write(f"{key} {value}\n")


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        # on POSIX, fsencode gives back the argument's bytes as passed
        pattern = parse_pattern(os.fsencode(args.pattern))
        docs = _load_documents(args)
        if args.bounded_for is not None and not pattern.bounded:
            raise ValueError(f"{args.bounded_for} requires bounded gap upper bounds")
        args.handler(args, pattern, docs)
        sys.stdout.flush()  # a closed pipe seen only now is reported here too
    except (ValueError, OSError) as exc:
        _warn(f"vlgmatch: {exc}")
        return 2
    return 0


def main() -> None:
    if hasattr(signal, "SIGPIPE"):
        # a reader that stops early (``| head``) ends us the way it ends cat
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    out = sys.stdout
    if out is None:  # started with file descriptor 1 closed
        _warn("vlgmatch: standard output is closed")
        sys.exit(2)
    # one write per 64 KiB of output, also under ``python -u``; a terminal
    # still sees each line as it is written
    sys.stdout = io.TextIOWrapper(
        open(out.fileno(), "wb", 1 << 16, closefd=False), out.encoding,
        out.errors, line_buffering=out.isatty())
    code = run()
    for stream in filter(None, (sys.stdout, sys.stderr)):
        try:
            stream.flush()
        except OSError:  # closed, which run() reported if it could: exit drops the rest
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    sys.exit(code)
