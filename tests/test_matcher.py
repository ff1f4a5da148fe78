"""End-position matcher: interval lists, purging, relevance, full runs."""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

import helpers
from vlgmatch.automaton import OccEvent, build_automaton
from vlgmatch.matcher import (MatcherState, RangeList, find_endpoints,
                              max_live_ranges)
from vlgmatch.oracle import brute_force_endpoints
from vlgmatch.pattern import GapBounds, parse_pattern


def test_purge_drops_exactly_the_dead_prefix():
    rl = RangeList(layer=2, sublen=2)
    rl.ranges = [(17, 20), (22, 23), (25, 26)]
    assert rl.purge_dead(26) == 2
    assert rl.ranges == [(25, 26)]


def test_purge_on_empty_list():
    rl = RangeList(layer=2, sublen=3)
    assert rl.purge_dead(100) == 0


def test_purge_keeps_open_ended_ranges():
    rl = RangeList(layer=2, sublen=1)
    rl.ranges = [(5, None)]
    assert rl.purge_dead(10_000) == 0
    assert rl.ranges == [(5, None)]


def test_append_merge_adjacent():
    rl = RangeList(layer=3, sublen=2)
    rl.append_merge(23, 28)
    rl.append_merge(29, 33)
    assert rl.ranges == [(23, 33)]


def test_append_merge_disjoint_and_contained():
    rl = RangeList(layer=2, sublen=1)
    rl.append_merge(8, 9)
    assert rl.ranges == [(8, 9)]
    rl.append_merge(15, 18)
    assert rl.ranges == [(8, 9), (15, 18)]
    rl.append_merge(16, 17)  # contained in the last range
    assert rl.ranges == [(8, 9), (15, 18)]


def test_append_merge_open_ended_absorbs_everything():
    rl = RangeList(layer=2, sublen=1)
    rl.append_merge(5, None)
    rl.append_merge(9, 12)
    rl.append_merge(40, None)
    assert rl.ranges == [(5, None)]


def test_gaps_between_stored_ranges():
    rl = RangeList(layer=2, sublen=1)
    for start in range(0, 50, 3):
        rl.append_merge(start, start + 1)
    for (a_start, a_end), (b_start, b_end) in zip(rl.ranges, rl.ranges[1:]):
        assert b_start > a_end + 1


def test_example_end_positions():
    p = parse_pattern(helpers.EXAMPLE_PATTERN)
    assert find_endpoints(p, helpers.EXAMPLE_TEXT) == [17, 28, 31]


def test_single_piece_pattern_reports_every_occurrence():
    p = parse_pattern("GT")
    assert find_endpoints(p, helpers.EXAMPLE_TEXT) == [17, 23, 28, 31]


def test_zero_width_gap():
    p = parse_pattern("A.{0,0}T")
    assert find_endpoints(p, b"AT") == [2]
    assert find_endpoints(p, b"AXT") == []


def test_text_shorter_than_pattern():
    p = parse_pattern("ACGT.{0,2}ACGT")
    assert find_endpoints(p, b"ACGT") == []
    assert find_endpoints(p, b"") == []


def test_trace_snapshots_around_position_26():
    """Replay the worked example and pin the interval lists at one event."""
    snaps = {}

    def observer(phase, event, lists):
        snaps[(phase, event.position)] = lists

    p = parse_pattern(helpers.EXAMPLE_PATTERN)
    ends = find_endpoints(p, helpers.EXAMPLE_TEXT, observer=observer)
    assert ends == [17, 28, 31]
    assert snaps[("before", 26)] == {2: [(17, 20), (22, 23), (25, 26)],
                                     3: [(23, 28)]}
    assert snaps[("after", 26)] == {2: [(25, 26)], 3: [(23, 33)]}


def test_non_relevant_occurrence_is_dropped():
    # a final-layer occurrence whose start lies outside the stored range
    p = parse_pattern(helpers.EXAMPLE_PATTERN)
    state = MatcherState(p)
    state.lists[3].ranges = [(23, 28)]
    emitted = []
    state.process_event(OccEvent(23, (3,)), emitted.append)
    assert emitted == []  # start 22 is not inside [23, 28]
    state.process_event(OccEvent(28, (3,)), emitted.append)
    assert emitted == [28]


def test_unbounded_gap_matching():
    p = parse_pattern("A.{2,*}GT")
    text = b"AXXGTXXXXXXXXXXGT"
    assert find_endpoints(p, text) == brute_force_endpoints(p, text) == [5, 17]
    assert find_endpoints(p, b"AGT") == []  # gap of 0 < lower bound 2


def test_max_live_ranges_values():
    assert max_live_ranges(GapBounds(6, 7), next_sublen=2) == 4
    assert max_live_ranges(GapBounds(2, 6), next_sublen=2) == 2


def _collect_events(pattern, text):
    events = []
    build_automaton(pattern.subpatterns).stream(text, events.append)
    return events


def _run_state(state, events):
    out = []
    for ev in events:
        state.process_event(ev, out.append)
    return out


def _run_without_purging(pattern, events):
    """Reference decision matcher that never drops a range.

    An occurrence is relevant when its start lies in any stored range of
    its layer, not only the first one.
    """
    sublen = [len(piece) for piece in pattern.subpatterns]
    last_layer = pattern.num_subpatterns
    lists = {layer: RangeList(layer, sublen[layer - 1])
             for layer in range(2, last_layer + 1)}
    out = []
    for ev in events:
        pos = ev.position
        for layer in ev.layers:
            if layer > 1:
                where = pos - sublen[layer - 1] + 1
                if not any(start <= where and (end is None or where <= end)
                           for start, end in lists[layer].ranges):
                    continue
            if layer < last_layer:
                gap = pattern.gaps[layer - 1]
                upper = None if gap.upper is None else pos + gap.upper + 1
                lists[layer + 1].append_merge(pos + gap.lower + 1, upper)
            elif not out or out[-1] != pos:
                out.append(pos)
    return out


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_engine_equals_oracle(seed):
    rng = random.Random(seed)
    pattern, text = helpers.random_instance(rng, max_text=200,
                                            unbounded_share=0.25)
    assert find_endpoints(pattern, text) == brute_force_endpoints(pattern, text)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_event_layer_order_is_immaterial(seed):
    rng = random.Random(seed)
    pattern, text = helpers.random_instance(rng, max_text=150)
    events = _collect_events(pattern, text)
    shuffled = []
    for ev in events:
        layers = list(ev.layers)
        rng.shuffle(layers)
        shuffled.append(OccEvent(ev.position, tuple(layers)))
    baseline = _run_state(MatcherState(pattern), events)
    permuted = _run_state(MatcherState(pattern), shuffled)
    assert baseline == permuted


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_purging_never_changes_output(seed):
    rng = random.Random(seed)
    pattern, text = helpers.random_instance(rng, max_text=150,
                                            unbounded_share=0.2)
    events = _collect_events(pattern, text)
    with_purge = _run_state(MatcherState(pattern), events)
    without = _run_without_purging(pattern, events)
    assert with_purge == without


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_counter_accounting(seed):
    rng = random.Random(seed)
    pattern, text = helpers.random_instance(rng, max_text=200)
    state = MatcherState(pattern)
    ends = state.scan(text)
    c = state.counters
    assert c.appended <= c.occurrences
    assert c.purged <= c.appended
    assert c.reported == len(ends)
    assert sum(c.layer_occurrences) == c.occurrences


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_peak_list_sizes_respect_worst_case_bound(seed):
    rng = random.Random(seed)
    pattern, text = helpers.random_instance(rng, max_text=250)
    state = MatcherState(pattern)
    state.scan(text)
    for layer in range(2, pattern.num_subpatterns + 1):
        gap = pattern.gaps[layer - 2]
        bound = max_live_ranges(gap, len(pattern.subpatterns[layer - 1]))
        assert state.counters.peak_ranges[layer - 2] <= bound
