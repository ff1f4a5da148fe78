"""Acceptance gate: ten behavioural criteria, one printed line each.

Every test prints ``criterion NN PASS  <title>`` (or FAIL) so a run with
``pytest -s tests/test_acceptance.py`` reads as a checklist.  Tolerances
are pinned in the assertions; nothing here is statistical.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

import pytest

import helpers
from vlgmatch import automaton
from vlgmatch.automaton import build_automaton
from vlgmatch.bitvec import BitPlan
from vlgmatch.gapgraph import (GraphBuilder, build_implicit_gap_graph,
                               max_dual_ranges, tail_span_bounds)
from vlgmatch.matcher import MatcherState, find_endpoints, max_live_ranges
from vlgmatch.oracle import (brute_force_endpoints, brute_force_relevant,
                             first_last_compatible, is_compatible)
from vlgmatch.pattern import parse_pattern
from vlgmatch.reporter import report_chunked, report_on_the_fly

CORPUS_SIZE = 1000


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} FAIL  {title}")
        raise
    print(f"criterion {number:02d} PASS  {title}")


@pytest.fixture(scope="session")
def corpus() -> list:
    return [helpers.random_instance(random.Random(seed))
            for seed in range(CORPUS_SIZE)]


def test_criterion_01_worked_example_end_positions():
    with criterion(1, "worked example matches at 17, 28, 31 in under 1 ms"):
        pattern = parse_pattern(helpers.EXAMPLE_PATTERN)
        assert find_endpoints(pattern, helpers.EXAMPLE_TEXT) == [17, 28, 31]
        find_endpoints(pattern, helpers.EXAMPLE_TEXT)  # warm-up
        best = float("inf")
        for _ in range(30):
            started = time.perf_counter()
            find_endpoints(pattern, helpers.EXAMPLE_TEXT)
            best = min(best, time.perf_counter() - started)
        assert best < 1e-3


def test_criterion_02_occurrence_totals():
    with criterion(2, "worked example has 14 occurrences, 5/5/4 per piece"):
        pattern = parse_pattern(helpers.EXAMPLE_PATTERN)
        state = MatcherState(pattern)
        state.scan(helpers.EXAMPLE_TEXT)
        assert state.counters.occurrences == 14
        assert state.counters.layer_occurrences == [5, 5, 4]


def test_criterion_03_trace_around_position_26():
    with criterion(3, "range lists before/after the event at position 26"):
        snaps: dict[str, dict[int, list]] = {}

        def observer(phase, event, lists):
            if event.position == 26:
                snaps[phase] = lists

        pattern = parse_pattern(helpers.EXAMPLE_PATTERN)
        find_endpoints(pattern, helpers.EXAMPLE_TEXT, observer=observer)
        assert snaps["before"][2] == [(17, 20), (22, 23), (25, 26)]
        assert snaps["after"][2] == [(25, 26)]
        assert snaps["after"][3] == [(23, 33)]


def test_criterion_04_five_combinations_of_the_highlighted_match():
    with criterion(4, "the match from 5 to 17 decomposes into exactly five"):
        pattern = parse_pattern(helpers.COMBO_PATTERN)
        combos: list[tuple[int, ...]] = []
        report_on_the_fly(pattern, helpers.EXAMPLE_TEXT, combos.append)
        assert {c for c in combos
                if c[0] == 5 and c[-1] == 17} == helpers.COMBO_FIVE
        # the characters of that match alone give the five and nothing else
        region = helpers.EXAMPLE_TEXT[4:17]
        local: list[tuple[int, ...]] = []
        report_on_the_fly(pattern, region, local.append)
        assert {tuple(e + 4 for e in c) for c in local} == helpers.COMBO_FIVE
        # on the full text, four more combinations share the end position
        # but start one character earlier
        assert {c for c in combos if c[-1] == 17} == helpers.COMBO_FIVE | {
            (4, 6, 10, 17), (4, 6, 12, 17), (4, 8, 10, 17), (4, 8, 12, 17)}


def test_criterion_05_engines_equal_oracle_on_corpus(corpus):
    with criterion(5, f"all engines equal the oracle on {CORPUS_SIZE} "
                      "random instances in under 60 s"):
        assert len(corpus) >= 1000
        started = time.perf_counter()
        for pattern, text in corpus:
            expected = brute_force_endpoints(pattern, text)
            assert find_endpoints(pattern, text) == expected
            streamed: list[tuple[int, ...]] = []
            report_on_the_fly(pattern, text, streamed.append)
            assert sorted({c[-1] for c in streamed}) == expected
            chunked: list[tuple[int, ...]] = []
            report_chunked(pattern, text, chunked.append)
            assert chunked == streamed
            assert list(BitPlan(pattern).ends(text)) == expected
            bits: list[tuple[int, ...]] = []
            helpers.report_bits(pattern, text, bits.append)
            assert bits == streamed
        elapsed = time.perf_counter() - started
        saw_fixed_gap = saw_zero_lower = False
        for pattern, text in corpus:
            assert len(text) <= 300 and set(text) <= set(b"ACGT")
            assert 1 <= pattern.num_subpatterns <= 4
            assert max(len(p) for p in pattern.subpatterns) <= 4
            for gap in pattern.gaps:
                assert 0 <= gap.lower <= 6
                assert gap.upper is not None and gap.upper - gap.lower <= 6
                saw_fixed_gap |= gap.lower == gap.upper
                saw_zero_lower |= gap.lower == 0
        assert saw_fixed_gap and saw_zero_lower
        assert elapsed < 60.0


def test_criterion_06_range_list_peaks_within_arithmetic_bound(corpus):
    with criterion(6, "per-layer range lists never exceed the size bound"):
        for pattern, text in corpus:
            state = MatcherState(pattern)
            state.scan(text)
            for i in range(2, pattern.num_subpatterns + 1):
                bound = max_live_ranges(pattern.gaps[i - 2],
                                        len(pattern.subpatterns[i - 1]))
                assert state.counters.peak_ranges[i - 2] <= bound
        # spot-check the invariant literally after every event
        for pattern, text in corpus[::25]:

            def observer(phase, event, lists, pattern=pattern):
                if phase != "after":
                    return
                for i, ranges in lists.items():
                    bound = max_live_ranges(pattern.gaps[i - 2],
                                            len(pattern.subpatterns[i - 1]))
                    assert len(ranges) <= bound

            find_endpoints(pattern, text, observer=observer)


def test_criterion_07_coverage_list_peaks_within_width_bound(corpus):
    with criterion(7, "predecessor lookups never see more than piece+gap+1 "
                      "nodes from the window start on"):
        for pattern, text in corpus:
            builder = GraphBuilder(pattern)
            build_automaton(pattern.subpatterns).stream(text, builder.feed)
            pruned = report_on_the_fly(pattern, text, lambda combo: None)
            for i in range(2, pattern.num_subpatterns + 1):
                bound = max_dual_ranges(pattern.gaps[i - 2],
                                        len(pattern.subpatterns[i - 1]))
                assert builder.counters.peak_dual_ranges[i - 2] <= bound
                assert pruned.peak_dual_ranges[i - 2] <= bound


def test_criterion_08_graph_structure_matches_oracle(corpus):
    with criterion(8, "graph: out-degree <= 2, predecessor runs exactly "
                      "the compatible window"):
        for pattern, text in corpus:
            graph = build_implicit_gap_graph(pattern, text)
            relevant = brute_force_relevant(pattern, text)
            for layer in range(1, pattern.num_subpatterns + 1):
                assert graph.layer(layer) == relevant[layer - 1]
            links = {}
            for layer in range(2, pattern.num_subpatterns + 1):
                # each node stores exactly two links, first <= last
                for end, first, last in graph.links(layer):
                    assert first <= last
                    links[(layer, end)] = (first, last)
                    prev = relevant[layer - 2]
                    lo = prev.index(first)
                    hi = prev.index(last)
                    ends = graph.layer(layer - 1)
                    run = ends[ends.index(first):ends.index(last) + 1]
                    assert run == prev[lo:hi + 1]
                    for pred in run:
                        assert is_compatible(pattern, layer, pred, end)
                    if lo > 0:
                        assert not is_compatible(pattern, layer, prev[lo - 1], end)
                    if hi + 1 < len(prev):
                        assert not is_compatible(pattern, layer, prev[hi + 1], end)
            assert links == first_last_compatible(pattern, text)


def test_criterion_09_streaming_node_retention_bound(corpus):
    with criterion(9, "streaming reporter live nodes within the tail-span sum"):
        for pattern, text in corpus:
            counters = report_on_the_fly(pattern, text, lambda combo: None)
            bound = sum(1 + span for span in tail_span_bounds(pattern))
            assert counters.peak_live_nodes <= bound


def test_criterion_10_minimal_chunks_emit_each_combination_once(corpus, tmp_path,
                                                                monkeypatch):
    with criterion(10, "one-byte scan blocks: every combination exactly once"):
        with monkeypatch.context() as patched:
            patched.setattr(automaton, "_BLOCK", 1)
            for pattern, text in corpus:
                reference: list[tuple[int, ...]] = []
                report_on_the_fly(pattern, text, reference.append)
                chunked: list[tuple[int, ...]] = []
                report_chunked(pattern, text, chunked.append)
                assert chunked == reference
        # The CLI runs as ``python -m vlgmatch`` on the package under test;
        # test_cli checks the installed console script itself.
        path = tmp_path / "text.txt"
        path.write_bytes(helpers.EXAMPLE_TEXT)
        outputs = {}
        for engine in ("onthefly", "chunked"):
            result = helpers.run_module_cli([
                "combos", "--engine", engine, "-p", helpers.COMBO_PATTERN,
                "-t", str(path)])
            assert result.returncode == 0
            lines = result.stdout.splitlines()
            assert len(lines) == len(set(lines))
            outputs[engine] = lines
        assert outputs["onthefly"] == outputs["chunked"]
        assert len(outputs["onthefly"]) == 17
