#!/usr/bin/env python3
"""Benchmark of the vlgmatch command line, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dna_dense --seed 1 --seconds 35 --trace 0

With ``--trace 0`` it runs ``vlgmatch match``, ``combos``, ``combos --engine
chunked`` and ``stats`` as a user would: one process at a time (closed
loop, concurrency 1), each timed from spawn to exit with stdout drained,
in rounds until ``--seconds`` of calls are measured.  Each round also runs
a few ``match`` calls on the first kilobyte of the input to time set-up.
It reports median throughput (MB = 10**6 bytes of the input file), the
median of each process's own peak resident memory, the median set-up time
and the share of calls that succeeded.  Times are scaled to a fixed
machine speed (see REFERENCE_S); the raw samples and the scale factor are
in the provenance line.

With ``--trace 1`` it validates one untraced call per subcommand, then
repeats a traced in-process pass (see tracing.py) until ``--seconds`` are
measured, and reports per-layer times (medians over passes) and counts.

Every output is checked against the brute-force oracle outside the timed
region (see gate.py); a call fails on a nonzero exit, any stderr output or
a wrong output.  The counts of a run are stored under perfbench/.work and
must repeat exactly in any later run on the same seed and sources (the
program's and the benchmark's).  The last line of stdout is the JSON
result; the line before it records the run's provenance.  The exit code
is 1 when any check failed, 2 when the checkout holds no vlgmatch sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from vlgcli import MARKER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
CLI = HERE / "vlgcli.py"

SETUP_CALLS_PER_ROUND = 2
SETUP_BYTES = 1000
MIN_ROUNDS = 3
MIN_PASSES = 2
COMMANDS = ("match", "combos", "combos_chunked", "stats")

# A shared machine's speed drifts by up to 1.7x over seconds to minutes.
# reference_work() runs before every call, and each call's wall time is
# scaled by REFERENCE_S / (median reference time of the calls within
# REFERENCE_WINDOW of it), i.e. to a fixed machine speed.  The drift
# cancels, while a change to vlgmatch, which the reference work does not
# use, shows in full.
REFERENCE_LOOPS = 60_000
REFERENCE_S = 0.02
REFERENCE_WINDOW = 3


def argv_for(command: str, expr: str, path: Path) -> list[str]:
    sub = "combos" if command == "combos_chunked" else command
    argv = [sub, "-p", expr, "-t", str(path)]
    return argv + ["--engine", "chunked"] if command == "combos_chunked" else argv


class Call:
    """One CLI process: exit code, wall time, peak RSS and output digest.

    ``ref_s`` is the time of reference_work() just before the call.
    """

    def __init__(self, command: str, argv: list[str], tee: Path | None = None) -> None:
        self.command = command
        self.ref_s = reference_work()
        digest = hashlib.sha256()
        err_path = WORK / "stderr.txt"
        with open(err_path, "wb") as err, open(tee or os.devnull, "wb") as copy:
            start = time.perf_counter()
            with subprocess.Popen([sys.executable, str(CLI), *argv],
                                  stdout=subprocess.PIPE, stderr=err) as proc:
                fd = proc.stdout.fileno()
                while chunk := os.read(fd, 1 << 20):
                    digest.update(chunk)
                    copy.write(chunk)
            self.wall_s = time.perf_counter() - start
        self.code = proc.returncode
        self.sha256 = digest.hexdigest()
        self.peak_kb = None
        self.stderr = []
        for line in err_path.read_text(errors="replace").splitlines():
            key, _, value = line.partition(" ")
            if key == MARKER:
                self.peak_kb = int(value)
            else:
                self.stderr.append(line)

    @property
    def clean(self) -> bool:
        return self.code == 0 and not self.stderr and self.peak_kb is not None


def reference_work() -> float:
    """Seconds taken by a fixed piece of interpreter work that does not use vlgmatch."""
    start = time.perf_counter()
    table: dict[tuple[int, int], int] = {}
    for i in range(REFERENCE_LOOPS):
        key = (i & 1023, i & 7)
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


def code_digest() -> tuple[str, int]:
    """Digest of the program's and the benchmark's sources, and the line
    count of src/vlgmatch/*.py."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((SRC / "vlgmatch").glob("*.py")) + sorted(HERE.glob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        if path.parent != HERE:
            lines += data.count(b"\n")
    return digest.hexdigest(), lines


class Run:
    """State of one benchmark invocation: inputs, expectations, failures."""

    def __init__(self, args: argparse.Namespace) -> None:
        from vlgmatch.pattern import parse_pattern
        import gate
        import workloads
        self.args = args
        self.workload = workloads.WORKLOADS[args.workload]
        inp = self.workload.make(random.Random(args.seed))
        self.path = WORK / f"{args.workload}-{args.seed}.txt"
        self.path.write_bytes(inp.data)
        head = inp.text[:SETUP_BYTES]
        self.setup_path = WORK / f"{args.workload}-{args.seed}-head.txt"
        self.setup_path.write_bytes(head)
        self.mb = len(inp.data) / 1e6
        pattern = parse_pattern(self.workload.pattern)
        self.expected = gate.Expected(pattern, inp.text, inp.planted)
        self.setup_sha256 = gate.Expected(pattern, head).match_sha256
        self.input_sha256 = hashlib.sha256(inp.data).hexdigest()
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str | None] = {}
        self.counts: dict[str, int] = {}
        self.samples: object = None

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAILED: {message}", file=sys.stderr)

    def call(self, command: str, tee: bool = False) -> Call:
        path = self.setup_path if command == "setup" else self.path
        sub = "match" if command == "setup" else command
        out = WORK / f"out-{command}.txt" if tee else None
        result = Call(command, argv_for(sub, self.workload.pattern, path), out)
        self.attempted += 1
        want = self.digests.get(command)
        if not result.clean:
            self.fail(f"{command}: exit {result.code}, stderr {result.stderr[-5:]}")
        elif want is not None and result.sha256 != want:
            self.fail(f"{command}: output differs from the validated output")
        return result

    def validate_round(self) -> dict[str, Call]:
        """Run each subcommand once, keep its output and check it fully."""
        self.digests = {"setup": self.setup_sha256,
                        "match": self.expected.match_sha256}
        calls = {command: self.call(command, tee=True) for command in COMMANDS}
        try:
            seen = self.expected.check_onthefly(WORK / "out-combos.txt")
            self.digests["combos"] = calls["combos"].sha256
            self.expected.check_chunked(WORK / "out-combos_chunked.txt", seen)
            self.digests["combos_chunked"] = calls["combos_chunked"].sha256
        except (ValueError, KeyError) as exc:
            self.fail(f"combos output: {exc}")
        try:
            stats = (WORK / "out-stats.txt").read_text()
            self.counts.update({f"stats.{key}": value for key, value
                                in self.expected.check_stats(stats).items()})
            self.digests["stats"] = calls["stats"].sha256
        except ValueError as exc:
            self.fail(f"stats output: {exc}")
        for command in ("combos", "combos_chunked", "stats"):
            if command not in self.digests:
                self.digests[command] = "invalid"  # every later call fails too
        for command in COMMANDS:
            (WORK / f"out-{command}.txt").unlink()
        return calls

    def check_repeatable(self, mode: str) -> None:
        """Counts must equal those of any earlier run on this seed and source."""
        code, _ = code_digest()
        record = WORK / f"counts-{self.args.workload}-{self.args.seed}-{mode}-{code[:16]}.json"
        counts = {"input_sha256": self.input_sha256, **self.counts,
                  **{f"output_sha256.{k}": v for k, v in self.digests.items()}}
        if record.exists():
            if json.loads(record.read_text()) != counts:
                self.fail(f"counts differ from an earlier run with this seed: {record}")
        else:
            record.write_text(json.dumps(counts, indent=1, sort_keys=True))


def end_to_end(run: Run, seconds: float) -> dict[str, tuple[float, str]]:
    timeline = list(run.validate_round().values())
    measured = sum(c.wall_s for c in timeline)
    rounds = 1
    while rounds < MIN_ROUNDS or measured + measured / rounds <= seconds:
        for command in ("setup",) * SETUP_CALLS_PER_ROUND + COMMANDS:
            timeline.append(run.call(command))
            measured += timeline[-1].wall_s
        rounds += 1
    samples = {c: [call for call in timeline if call.command == c]
               for c in ("setup", *COMMANDS)}
    refs = [call.ref_s for call in timeline]
    for i, call in enumerate(timeline):
        nearby = refs[max(0, i - REFERENCE_WINDOW):i + REFERENCE_WINDOW + 1]
        call.scaled_s = call.wall_s * REFERENCE_S / statistics.median(nearby)
    metrics: dict[str, tuple[float, str]] = {}
    for command in COMMANDS:
        wall = statistics.median(c.scaled_s for c in samples[command])
        metrics[f"{command}_mb_s"] = (run.mb / wall, "MB/s")
    for command in COMMANDS:
        peak = statistics.median(c.peak_kb or 0 for c in samples[command])
        metrics[f"{command}_peak_rss_mb"] = (peak * 1024 / 1e6, "MB")
    metrics["setup_s"] = (statistics.median(c.scaled_s for c in samples["setup"]), "s")
    metrics["success_rate"] = (1 - run.failed / run.attempted, "ratio")
    run.samples = [(c.command, round(c.wall_s, 6), round(c.ref_s, 6)) for c in timeline]
    return metrics


def traced(run: Run, seconds: float) -> dict[str, tuple[float, str]]:
    import tracing
    untraced = run.validate_round()
    expected = run.expected
    cli_argv = {command: argv_for(command, run.workload.pattern, run.path)
                for command in ("match", "combos", "stats")}
    tracer = tracing.Tracer()
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or (
            (time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds):
        first = len(tracer.spans)
        result = tracing.traced_pass(tracer, run.workload.pattern, str(run.path),
                                     cli_argv)
        run.attempted += 1 + len(cli_argv)
        counts = result["counts"]
        checks = {
            "match ends": result["ends"] == expected.ends,
            "alpha": counts["matcher.occurrences"] == expected.alpha,
            "beta": counts["reporter.beta"] == expected.beta,
            "expanded": counts["reporter.expanded"] == expected.beta,
            "chunked emitted": counts["reporter.chunked_emitted"] == expected.beta,
            "stats alpha": run.counts.get("stats.alpha") == counts["matcher.occurrences"],
            "stats beta": run.counts.get("stats.beta") == counts["reporter.beta"],
            "repeat counts": not passes or counts == passes[0]["counts"],
        }
        for command, (code, sha256, err) in result["cli"].items():
            checks[f"in-process {command}"] = (
                code == 0 and not err and sha256 == run.digests[command])
        for name, ok in checks.items():
            if not ok:
                run.fail(f"traced pass {len(passes) + 1}: {name}")
        totals = {name: end - begin for name, _, begin, end in tracer.spans[first:]}
        passes.append({"counts": counts, "totals": totals})

    def median(name: str) -> float:
        return statistics.median(p["totals"][name] for p in passes)

    counts = passes[0]["counts"]
    run.counts.update(counts)
    metrics: dict[str, tuple[float, str]] = {}
    metrics["pattern.parse_s"] = (median("pattern.parse") / tracing.PARSE_REPEATS, "s")
    for name in ("automaton.build", "automaton.stream", "matcher.process",
                 "gapgraph.build", "gapgraph.build_pruned", "reporter.count",
                 "reporter.expand", "reporter.onthefly", "reporter.chunked",
                 "cli.ingest", "cli.match", "cli.combos", "cli.stats"):
        metrics[f"{name}_s"] = (median(name), "s")
    for name in ("automaton.states", "automaton.positions", "automaton.events",
                 "automaton.failure_steps", "matcher.occurrences", "matcher.appended",
                 "matcher.purged", "matcher.reported", "matcher.peak_ranges_max",
                 "gapgraph.nodes_created", "gapgraph.nodes_purged",
                 "gapgraph.peak_live_nodes", "gapgraph.peak_dual_ranges_max",
                 "reporter.beta", "reporter.chunks", "reporter.peak_graphs",
                 "cli.output_lines", "cli.output_bytes"):
        metrics[name] = (counts[name], "count")
    occurrences = counts["matcher.occurrences"]
    metrics["automaton.failure_ratio"] = (
        counts["automaton.failure_steps"] / counts["automaton.positions"], "ratio")
    metrics["matcher.relevant_ratio"] = (
        (counts["matcher.appended"] + counts["matcher.reported"]) / occurrences, "ratio")
    metrics["gapgraph.node_ratio"] = (counts["gapgraph.nodes_created"] / occurrences, "ratio")
    metrics["reporter.rescan_ratio"] = (
        counts["reporter.streamed_bytes"] / counts["automaton.positions"], "ratio")
    metrics["cli.self_s"] = (metrics["cli.combos_s"][0] - metrics["reporter.onthefly_s"][0]
                             - metrics["cli.ingest_s"][0], "s")
    for command in ("match", "combos", "stats"):
        metrics[f"trace.{command}_overhead_s"] = (
            untraced[command].wall_s - metrics[f"cli.{command}_s"][0], "s")
    trace_path = WORK / f"trace-{run.args.workload}-{run.args.seed}.json"
    trace_path.write_text(json.dumps(tracer.dump()))
    run.samples = {"passes": len(passes), "trace_file": str(trace_path.relative_to(ROOT))}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "vlgmatch" / "cli.py").is_file():
        print(f"perfbench: no vlgmatch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload; choose from {sorted(workloads.WORKLOADS)}")
    WORK.mkdir(exist_ok=True)

    run = Run(args)
    try:
        metrics = (traced if args.trace else end_to_end)(run, args.seconds)
    finally:
        run.path.unlink()
        run.setup_path.unlink()
    run.check_repeatable(f"trace{args.trace}")
    code, src_lines = code_digest()
    print(json.dumps({"provenance": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "input_bytes": round(run.mb * 1e6), "input_sha256": run.input_sha256,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "src_lines": src_lines, "code_sha256": code, "samples": run.samples,
        "counts": run.counts}}))
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
