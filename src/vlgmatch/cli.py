"""Command line interface.

Subcommands: match (end positions), combos (full combinations), graph
(predecessor graph dump), stats (size and occurrence counters), and
oracle match / oracle combos (brute-force reference, same output shapes).
match and combos run the bit-parallel engine (``bitvec``) when the pattern
has few distinct bytes, few literal bytes and narrow gaps, and the paper's
streaming engine otherwise; ``combos --engine`` forces one of the paper's engines.
Both give the same lines in the same order.

Input is a file path or "-" for stdin.  FASTA input (enabled by --fasta or
auto-detected from a leading ">") is searched record by record with
1-based positions inside each record and an "<id>:" prefix on every output
line; plain input is the whole file minus one trailing newline.

Exit status 0 on success (matching nothing is success), 2 on usage errors:
unparseable pattern, unreadable input, unbounded gaps passed to a
combination or graph command, bad chunk length.  Where the platform has
SIGPIPE, a closed stdout pipe ends the process silently by that signal.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import signal
import sys
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Iterator

from . import bitvec
from .gapgraph import GraphBuilder, build_implicit_gap_graph, iter_graph_lines
from .matcher import MatcherState, find_endpoints
from .pattern import VlgPattern, parse_pattern
from .reporter import count_combinations, report_chunked, report_on_the_fly


@dataclass
class InputDocument:
    """One searchable text: a FASTA record or a whole plain file."""

    ident: str
    sequence: bytes


def ingest_fasta(stream: BinaryIO) -> Iterator[InputDocument]:
    """Parse FASTA records from a binary stream.

    The record id is the first whitespace-separated token after ">";
    sequence lines are concatenated with all whitespace removed.  Records
    with an empty sequence are skipped with a warning on stderr.
    """
    ident: str | None = None
    parts: list[bytes] = []

    def flush() -> InputDocument | None:
        if ident is None:
            return None
        sequence = b"".join(parts)
        if not sequence:
            print(f"warning: FASTA record '{ident}' has an empty sequence; skipped",
                  file=sys.stderr)
            return None
        return InputDocument(ident, sequence)

    for line in stream:
        if line.startswith(b">"):
            done = flush()
            if done is not None:
                yield done
            tokens = line[1:].split()
            ident = tokens[0].decode("utf-8", "replace") if tokens else ""
            parts = []
        else:
            chunk = b"".join(line.split())
            if chunk and ident is None:
                raise ValueError("sequence data before the first FASTA header")
            parts.append(chunk)
    done = flush()
    if done is not None:
        yield done


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vlgmatch",
        description="Match patterns with variable-length gaps against large texts.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("-p", "--pattern", required=True,
                       help="pattern expression, e.g. 'A.{6,7}CC.{2,6}GT'")
        p.add_argument("-t", "--text", required=True,
                       help="input file path, or '-' for stdin")
        p.add_argument("--fasta", action="store_true",
                       help="treat input as FASTA (auto-detected from a leading '>')")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_match = sub.add_parser("match", help="print match end positions")
    common(p_match)

    p_combos = sub.add_parser("combos", help="print full match combinations")
    common(p_combos)
    p_combos.add_argument("--engine", choices=("onthefly", "chunked"),
                          help="force one of the paper's engines (default: the "
                               "bit-parallel engine for patterns with few "
                               "distinct bytes and short pieces, else onthefly)")
    p_combos.add_argument("--chunk-len", type=int, default=None,
                          help="chunk length for the chunked engine "
                               "(test hook; must cover the maximum match span)")

    p_graph = sub.add_parser("graph", help="dump the predecessor graph")
    common(p_graph)

    p_stats = sub.add_parser("stats", help="print pattern/text/run statistics")
    common(p_stats)

    p_oracle = sub.add_parser("oracle", help="brute-force reference engine")
    osub = p_oracle.add_subparsers(dest="oracle_command", required=True)
    o_match = osub.add_parser("match", help="reference match end positions")
    common(o_match)
    o_combos = osub.add_parser("combos", help="reference match combinations")
    common(o_combos)

    return parser


def _load_documents(args: argparse.Namespace) -> tuple[Iterable[InputDocument], bool]:
    if args.text == "-":
        raw = sys.stdin.buffer.read()
        name = "-"
    else:
        with open(args.text, "rb") as handle:
            raw = handle.read()
        name = os.path.basename(args.text)
    if args.fasta or raw.startswith(b">"):
        # parsed as the commands ask, so one record is held at a time
        return ingest_fasta(io.BytesIO(raw)), True
    if raw.endswith(b"\r\n"):
        raw = raw[:-2]
    elif raw.endswith(b"\n"):
        raw = raw[:-1]
    return [InputDocument(name, raw)], False


def _require_bounded(pattern: VlgPattern, what: str) -> None:
    if not pattern.bounded:
        raise ValueError(f"{what} requires bounded gap upper bounds")


def _record(fasta: bool, ident: str) -> str:
    return f'"record": {json.dumps(ident)}, ' if fasta else ""


def _end_format(args, fasta: bool, ident: str) -> tuple[str, str]:
    """(head, close): an end's line is head + end + close."""
    if args.format == "json":
        return "{" + _record(fasta, ident) + '"end": ', "}\n"
    return (f"{ident}:" if fasta else ""), "\n"


def _combo_format(args, fasta: bool, ident: str) -> tuple[str, str, str]:
    """(head, sep, close): a combination's line is head + sep.join(ends) + close."""
    if args.format == "json":
        return "{" + _record(fasta, ident) + '"ends": [', ", ", "]}\n"
    return (f"{ident}:" if fasta else ""), ",", "\n"


def _emit_ends(args, docs, fasta, ends_of) -> int:
    write = sys.stdout.write
    for doc in docs:
        head, close = _end_format(args, fasta, doc.ident)
        for end in ends_of(doc):
            write(f"{head}{end}{close}")
    return 0


def _emit_combos(args, docs, fasta, run) -> int:
    write = sys.stdout.write
    for doc in docs:
        head, sep, close = _combo_format(args, fasta, doc.ident)
        run(doc, lambda combo: write(head + sep.join(map(str, combo)) + close))
    return 0


def _emit_runs(args, docs, fasta, plan: bitvec.BitPlan) -> int:
    """Write each run of combinations with one join and one write."""
    write = sys.stdout.write
    for doc in docs:
        head, sep, close = _combo_format(args, fasta, doc.ident)
        for suffix, firsts in plan.runs(doc.sequence):
            tail = sep.join(["", *map(str, suffix)]) + close
            write(head + (tail + head).join(map(str, firsts)) + tail)
    return 0


def _cmd_match(args, pattern, docs, fasta) -> int:
    if bitvec.suits(pattern):
        plan = pattern.bitplan
        return _emit_ends(args, docs, fasta, lambda doc: plan.ends(doc.sequence))
    return _emit_ends(args, docs, fasta,
                      lambda doc: find_endpoints(pattern, doc.sequence))


def _cmd_oracle_match(args, pattern, docs, fasta) -> int:
    from . import oracle  # compiled only when asked for, to keep start-up short
    return _emit_ends(args, docs, fasta,
                      lambda doc: oracle.brute_force_endpoints(pattern, doc.sequence))


def _cmd_combos(args, pattern, docs, fasta) -> int:
    _require_bounded(pattern, "combination reporting")
    if args.engine is None and bitvec.suits(pattern):
        return _emit_runs(args, docs, fasta, pattern.bitplan)

    def run(doc, sink):
        if args.engine == "chunked":
            report_chunked(pattern, doc.sequence, sink, chunk_len=args.chunk_len)
        else:
            report_on_the_fly(pattern, doc.sequence, sink)

    return _emit_combos(args, docs, fasta, run)


def _cmd_oracle_combos(args, pattern, docs, fasta) -> int:
    from . import oracle  # compiled only when asked for, to keep start-up short
    _require_bounded(pattern, "combination reporting")

    def run(doc, sink):
        for combo in sorted(oracle.brute_force_combinations(pattern, doc.sequence)):
            sink(combo)

    return _emit_combos(args, docs, fasta, run)


def _cmd_graph(args, pattern, docs, fasta) -> int:
    _require_bounded(pattern, "the predecessor graph")
    out = sys.stdout
    for doc in docs:
        graph = build_implicit_gap_graph(pattern, doc.sequence)
        if args.format == "json":
            for node in graph.nodes():
                payload = {"type": "node", "layer": node.layer, "end": node.endpos}
                if fasta:
                    payload["record"] = doc.ident
                out.write(json.dumps(payload) + "\n")
            for node, pred in graph.edges():
                payload = {"type": "edge", "layer": node.layer, "end": node.endpos,
                           "pred_layer": pred.layer, "pred_end": pred.endpos}
                if fasta:
                    payload["record"] = doc.ident
                out.write(json.dumps(payload) + "\n")
        else:
            prefix = f"{doc.ident}:" if fasta else ""
            for line in iter_graph_lines(graph):
                out.write(prefix + line + "\n")
    return 0


def _ignore(_end: int) -> None:
    pass


def _cmd_stats(args, pattern, docs, fasta) -> int:
    out = sys.stdout
    for doc in docs:
        state = MatcherState(pattern)
        process = state.process_event
        builder = GraphBuilder(pattern) if pattern.bounded else None

        def on_event(event) -> None:
            process(event, _ignore)
            if builder is not None:
                builder.feed(event)

        pattern.automaton.stream(doc.sequence, on_event)
        counters = state.counters
        beta = None if builder is None else count_combinations(builder.finish())
        gap_total = pattern.max_gap_sum
        rows: list[tuple[str, object]] = [
            ("n", len(doc.sequence)),
            ("m", pattern.literal_length),
            ("k", pattern.num_subpatterns),
            ("A", pattern.min_gap_sum),
            ("B", "unbounded" if gap_total is None else gap_total),
            ("alpha", counters.occurrences),
            ("layer_occurrences",
             ",".join(map(str, counters.layer_occurrences))),
            ("matches", counters.reported),
            ("beta", "unavailable" if beta is None else beta),
            ("peak_ranges",
             ",".join(map(str, counters.peak_ranges)) or "-"),
        ]
        if args.format == "json":
            payload = {key: value for key, value in rows}
            payload["B"] = gap_total
            payload["beta"] = beta
            payload["layer_occurrences"] = counters.layer_occurrences
            payload["peak_ranges"] = counters.peak_ranges
            if fasta:
                payload["record"] = doc.ident
            out.write(json.dumps(payload) + "\n")
        else:
            if fasta:
                out.write(f"record {doc.ident}\n")
            for key, value in rows:
                out.write(f"{key} {value}\n")
    return 0


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        # on POSIX, fsencode gives back the argument's bytes as passed
        pattern = parse_pattern(os.fsencode(args.pattern))
        docs, fasta = _load_documents(args)
        if args.command == "match":
            return _cmd_match(args, pattern, docs, fasta)
        if args.command == "combos":
            return _cmd_combos(args, pattern, docs, fasta)
        if args.command == "graph":
            return _cmd_graph(args, pattern, docs, fasta)
        if args.command == "stats":
            return _cmd_stats(args, pattern, docs, fasta)
        if args.oracle_command == "match":
            return _cmd_oracle_match(args, pattern, docs, fasta)
        return _cmd_oracle_combos(args, pattern, docs, fasta)
    except (ValueError, OSError) as exc:
        print(f"vlgmatch: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    if hasattr(signal, "SIGPIPE"):
        # a reader that stops early (``| head``) ends us the way it ends cat
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run())
