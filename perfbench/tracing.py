"""Traced per-layer run: spans around the public entry point of each module.

The spans are recorded from here, around calls into ``vlgmatch``; the
program itself is not instrumented.  Every span keeps its name, start, end
and parent; spans stay in memory until the run writes them out.  A span's
self time is its duration minus the part of it its child spans cover.

One pass replays the CLI pipeline layer by layer on the same input file:
parse, read, the automaton build and scan (events recorded with a
list-append sink), the matcher and both graph builders replayed on those
events, combination counting and expansion, both reporters (no-op sinks),
and finally the CLI subcommands in-process with stdout discarded.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import time
from collections import deque

from vlgmatch import cli
from vlgmatch.automaton import Automaton, build_automaton
from vlgmatch.gapgraph import GraphBuilder
from vlgmatch.matcher import MatcherState
from vlgmatch.pattern import parse_pattern
from vlgmatch.reporter import (count_combinations, expand_combinations,
                               report_chunked, report_on_the_fly)


PARSE_REPEATS = 200  # one parse is tens of microseconds; time many


# no-op sink: appending to a zero-length deque drops the item in C
discard = deque(maxlen=0).append


class _StreamedBytes:
    """Counts the bytes every ``Automaton.stream`` call scans while active."""

    def __enter__(self) -> "_StreamedBytes":
        self.total = 0
        self._original = original = Automaton.stream

        def counted(auto, text, sink):
            self.total += len(text)
            return original(auto, text, sink)

        Automaton.stream = counted
        return self

    def __exit__(self, *exc) -> None:
        Automaton.stream = self._original


class Tracer:
    """In-memory span recorder; ``with tracer.span(name):`` times a block."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index, start, end]
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        record = [name, parent, time.perf_counter(), None]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Per span, its duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = {}
        for name, parent, start, end in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out = []
        for index, (_, _, start, end) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for lo, hi in sorted(children.get(index, ())):
                lo = max(lo, reach)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(end - start - covered)
        return out

    def dump(self) -> list[dict]:
        return [{"name": name, "parent": parent, "start": start, "end": end,
                 "self_s": own}
                for (name, parent, start, end), own in zip(self.spans, self.self_times())]


class _CountingSink(io.RawIOBase):
    """Raw stream that hashes and counts what is written, then drops it."""

    def __init__(self) -> None:
        self.sha256 = hashlib.sha256()
        self.lines = 0
        self.bytes = 0

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self.sha256.update(data)
        self.lines += bytes(data).count(b"\n")
        self.bytes += len(data)
        return len(data)


def run_cli(argv: list[str]) -> tuple[int, _CountingSink, str]:
    """``vlgmatch.cli.run`` in-process, stdout buffered as a pipe would be."""
    sink = _CountingSink()
    out = io.TextIOWrapper(io.BufferedWriter(sink), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
        out.flush()
    return code, sink, err.getvalue()


def traced_pass(tracer: Tracer, expr: str, path: str,
                cli_argv: dict[str, list[str]]) -> dict:
    """One pass over every layer; returns the counts and the values to check."""
    span = tracer.span
    with span("pass"):
        with span("pattern.parse"):
            for _ in range(PARSE_REPEATS):
                pattern = parse_pattern(expr)
        with span("cli.ingest"):
            with open(path, "rb") as handle:
                text = handle.read().removesuffix(b"\n")
        with span("automaton.build"):
            auto = build_automaton(pattern.subpatterns)
        events: list = []
        with span("automaton.stream"):
            scan = auto.stream(text, events.append)

        ends: list[int] = []
        with span("matcher.process"):
            state = MatcherState(pattern)
            process, emit = state.process_event, ends.append
            for event in events:
                process(event, emit)

        with span("gapgraph.build"):
            builder = GraphBuilder(pattern)
            feed = builder.feed
            for event in events:
                feed(event)
            graph = builder.finish()
        with span("gapgraph.build_pruned"):
            pruned = GraphBuilder(pattern, prune=True, on_match=discard)
            feed = pruned.feed
            for event in events:
                feed(event)
        with span("reporter.count"):
            beta = count_combinations(graph)
        with span("reporter.expand"):
            expanded = expand_combinations(graph, discard)
        with span("reporter.onthefly"):
            report_on_the_fly(pattern, text, discard)
        with _StreamedBytes() as streamed, span("reporter.chunked"):
            chunked = report_chunked(pattern, text, discard)

        cli_out = {}
        lines = written = 0
        for command, argv in cli_argv.items():
            with span(f"cli.{command}"):
                code, sink, err = run_cli(argv)
            cli_out[command] = (code, sink.sha256.hexdigest(), err)
            lines += sink.lines
            written += sink.bytes

    mc, gc = state.counters, builder.counters
    counts = {
        "automaton.states": auto.num_states,
        "automaton.positions": scan.positions,
        "automaton.events": len(events),
        "automaton.failure_steps": scan.failure_steps,
        "matcher.occurrences": mc.occurrences,
        "matcher.appended": mc.appended,
        "matcher.purged": mc.purged,
        "matcher.reported": mc.reported,
        "matcher.peak_ranges_max": max(mc.peak_ranges, default=0),
        "gapgraph.nodes_created": gc.nodes_created,
        "gapgraph.nodes_purged": pruned.counters.nodes_purged,
        "gapgraph.peak_live_nodes": pruned.counters.peak_live_nodes,
        "gapgraph.peak_dual_ranges_max": max(gc.peak_dual_ranges, default=0),
        "reporter.beta": beta,
        "reporter.expanded": expanded,
        "reporter.chunks": chunked.chunks,
        "reporter.peak_graphs": chunked.peak_graphs,
        "reporter.chunked_emitted": chunked.emitted,
        "reporter.streamed_bytes": streamed.total,
        "cli.output_lines": lines,
        "cli.output_bytes": written,
    }
    return {"counts": counts, "ends": ends, "cli": cli_out}
