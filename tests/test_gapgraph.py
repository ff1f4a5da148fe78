"""Predecessor graph: node links, pruning."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from vlgmatch.automaton import OccEvent, build_automaton
from vlgmatch.gapgraph import (GraphBuilder, build_implicit_gap_graph,
                               max_dual_ranges, tail_span_bounds)
from vlgmatch.oracle import (brute_force_relevant, first_last_compatible,
                             is_compatible)
from vlgmatch.pattern import GapBounds, parse_pattern


def test_two_piece_graph_links_first_and_last_predecessor():
    p = parse_pattern(helpers.DUAL_PATTERN)
    graph = build_implicit_gap_graph(p, helpers.DUAL_TEXT)
    assert graph.layer(1) == [3, 5, 7]
    # the later final-piece occurrence (position 14) is not relevant
    assert list(graph.links(2)) == [(9, 3, 7)]
    assert list(graph.edges()) == [(2, 9, 3), (2, 9, 7)]


def test_single_predecessor_collapses_to_one_edge():
    p = parse_pattern("A.{0,0}B")
    graph = build_implicit_gap_graph(p, b"AB")
    assert list(graph.links(2)) == [(2, 1, 1)]
    assert list(graph.edges()) == [(2, 2, 1)]


def test_three_piece_graph_structure():
    """Full node/edge inventory for a 31-character instance."""
    p = parse_pattern(helpers.GRAPH_PATTERN)
    graph = build_implicit_gap_graph(p, helpers.GRAPH_TEXT)
    assert graph.layer(1) == [1, 5, 6, 7, 8, 10, 12, 13, 15, 22, 25, 27]
    # the middle-layer occurrence at 21 has no compatible predecessor
    assert graph.layer(2) == [3, 4, 9, 16, 19, 23, 24, 26, 29, 31]
    assert graph.layer(3) == [14, 20, 30]
    links = {(layer, end): (first, last)
             for layer in (2, 3) for end, first, last in graph.links(layer)}
    assert links == {
        (2, 3): (1, 1), (2, 4): (1, 1), (2, 9): (5, 8), (2, 16): (12, 15),
        (2, 19): (15, 15), (2, 23): (22, 22), (2, 24): (22, 22),
        (2, 26): (22, 25), (2, 29): (25, 27), (2, 31): (27, 27),
        (3, 14): (3, 9), (3, 20): (9, 16), (3, 30): (19, 26),
    }
    assert links == first_last_compatible(p, helpers.GRAPH_TEXT)
    assert all(first <= last for first, last in links.values())


def test_example_pattern_final_layer_nodes():
    p = parse_pattern(helpers.EXAMPLE_PATTERN)
    graph = build_implicit_gap_graph(p, helpers.EXAMPLE_TEXT)
    assert graph.layer(3) == [17, 28, 31]


def test_no_match_graph_has_empty_final_layer():
    p = parse_pattern("A.{0,1}Q")
    graph = build_implicit_gap_graph(p, helpers.EXAMPLE_TEXT)
    assert graph.layer(1) != []
    assert graph.layer(2) == []


def test_unbounded_gap_rejected():
    p = parse_pattern("A.{0,*}B")
    with pytest.raises(ValueError):
        build_implicit_gap_graph(p, b"AB")
    with pytest.raises(ValueError):
        tail_span_bounds(p)


def test_tail_span_bounds():
    p = helpers.make_pattern(["X", "XY", "YZ"], [(3, 7), (1, 6)])
    assert tail_span_bounds(p) == (17, 8, 0)
    assert tail_span_bounds(parse_pattern("ACGT")) == (0,)


def test_max_dual_ranges_value():
    assert max_dual_ranges(GapBounds(1, 5), next_sublen=1) == 7


def test_purge_dead_nodes_by_layer_horizon():
    """``feed`` purges a layer before searching it and before appending to it."""
    p = helpers.make_pattern(["X", "XY", "YZ"], [(3, 7), (1, 6)])
    builder = GraphBuilder(p, prune=True)
    builder.feed(OccEvent(3, (1,)))
    builder.feed(OccEvent(10, (1, 2)))  # the layer-2 node at 10 links to 3
    assert builder.layer(1) == [3, 10]
    assert list(builder.links(2)) == [(10, 3, 3)]
    # horizons: layer 1 dies after 10+17, layer 2 after 10+8
    builder.feed(OccEvent(18, (3,)))  # searching layer 2 keeps 10
    assert builder.layer(2) == [10]
    builder.feed(OccEvent(19, (3,)))
    assert builder.layer(2) == []
    assert builder.counters.nodes_purged == 1
    builder.feed(OccEvent(27, (1,)))  # appending to layer 1 drops 3, keeps 10
    assert builder.layer(1) == [10, 27]
    builder.feed(OccEvent(28, (1,)))
    assert builder.layer(1) == [27, 28]
    assert builder.counters.nodes_purged == 3


def _feed_graph(builder, pattern, text):
    build_automaton(pattern.subpatterns).stream(text, builder.feed)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9))
def test_graph_nodes_are_exactly_the_relevant_occurrences(seed):
    rng = random.Random(seed)
    pattern, text = helpers.random_instance(rng, max_text=200)
    graph = build_implicit_gap_graph(pattern, text)
    relevant = brute_force_relevant(pattern, text)
    for layer in range(1, pattern.num_subpatterns + 1):
        assert graph.layer(layer) == relevant[layer - 1]


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9))
def test_graph_links_match_oracle_and_stay_convex(seed):
    rng = random.Random(seed)
    pattern, text = helpers.random_instance(rng, max_text=150)
    graph = build_implicit_gap_graph(pattern, text)
    k = pattern.num_subpatterns
    links = {(layer, end): (first, last)
             for layer in range(2, k + 1) for end, first, last in graph.links(layer)}
    expected = first_last_compatible(pattern, text)
    assert links == expected
    for (layer, end), (first, last) in links.items():
        prev = graph.layer(layer - 1)
        for pred in prev[prev.index(first):prev.index(last) + 1]:
            assert is_compatible(pattern, layer, pred, end)
    # the pruned builder searches only the nodes it still retains
    if k == 1:
        return
    relevant = brute_force_relevant(pattern, text)
    handed: list[int] = []

    def on_match(node):
        end, first, last = node
        handed.append(end)
        # the links are absolute indices; the layer list starts at its base
        prev, base = pruned.layer(k - 1), pruned._base[k - 1]
        assert (prev[first - base], prev[last - base]) == expected[(k, end)]
        run = prev[first - base:last - base + 1]
        assert run == [pred for pred in relevant[k - 2]
                       if is_compatible(pattern, k, pred, end)]

    pruned = GraphBuilder(pattern, prune=True, on_match=on_match)
    _feed_graph(pruned, pattern, text)
    assert handed == relevant[k - 1]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_dual_list_peaks_respect_bound(seed):
    rng = random.Random(seed)
    pattern, text = helpers.random_instance(rng, max_text=250)
    builder = GraphBuilder(pattern)
    _feed_graph(builder, pattern, text)
    for layer in range(2, pattern.num_subpatterns + 1):
        bound = max_dual_ranges(pattern.gaps[layer - 2],
                                len(pattern.subpatterns[layer - 1]))
        assert builder.counters.peak_dual_ranges[layer - 2] <= bound
