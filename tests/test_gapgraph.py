"""Predecessor graph: node links, pruning."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from vlgmatch.automaton import build_automaton
from vlgmatch.gapgraph import (GraphBuilder, GraphNode, build_implicit_gap_graph,
                               max_dual_ranges, tail_span_bounds)
from vlgmatch.oracle import (brute_force_relevant, first_last_compatible,
                             is_compatible)
from vlgmatch.pattern import GapBounds, parse_pattern


def test_two_piece_graph_links_first_and_last_predecessor():
    p = parse_pattern(helpers.DUAL_PATTERN)
    graph = build_implicit_gap_graph(p, helpers.DUAL_TEXT)
    assert graph.end_positions(1) == [3, 5, 7]
    # the later final-piece occurrence (position 14) is not relevant
    assert [(n.endpos, n.first.endpos, n.last.endpos, n.out_degree)
            for n in graph.layer(2)] == [(9, 3, 7, 2)]


def test_single_predecessor_collapses_to_one_edge():
    p = parse_pattern("A.{0,0}B")
    graph = build_implicit_gap_graph(p, b"AB")
    node = graph.layer(2)[0]
    assert node.first is node.last
    assert node.out_degree == 1


def test_three_piece_graph_structure():
    """Full node/edge inventory for a 31-character instance."""
    p = parse_pattern(helpers.GRAPH_PATTERN)
    graph = build_implicit_gap_graph(p, helpers.GRAPH_TEXT)
    assert graph.end_positions(1) == [1, 5, 6, 7, 8, 10, 12, 13, 15, 22, 25, 27]
    # the middle-layer occurrence at 21 has no compatible predecessor
    assert graph.end_positions(2) == [3, 4, 9, 16, 19, 23, 24, 26, 29, 31]
    assert graph.end_positions(3) == [14, 20, 30]
    links = {(n.layer, n.endpos): (n.first.endpos, n.last.endpos)
             for n in graph.nodes() if n.layer > 1}
    assert links == {
        (2, 3): (1, 1), (2, 4): (1, 1), (2, 9): (5, 8), (2, 16): (12, 15),
        (2, 19): (15, 15), (2, 23): (22, 22), (2, 24): (22, 22),
        (2, 26): (22, 25), (2, 29): (25, 27), (2, 31): (27, 27),
        (3, 14): (3, 9), (3, 20): (9, 16), (3, 30): (19, 26),
    }
    assert links == first_last_compatible(p, helpers.GRAPH_TEXT)
    assert all(n.out_degree <= 2 for n in graph.nodes())


def test_example_pattern_final_layer_nodes():
    p = parse_pattern(helpers.EXAMPLE_PATTERN)
    graph = build_implicit_gap_graph(p, helpers.EXAMPLE_TEXT)
    assert graph.end_positions(3) == [17, 28, 31]


def test_no_match_graph_has_empty_final_layer():
    p = parse_pattern("A.{0,1}Q")
    graph = build_implicit_gap_graph(p, helpers.EXAMPLE_TEXT)
    assert graph.end_positions(1) != []
    assert graph.end_positions(2) == []


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
    p = helpers.make_pattern(["X", "XY", "YZ"], [(3, 7), (1, 6)])
    builder = GraphBuilder(p, prune=True)
    layer1 = GraphNode(1, 10, 0)
    layer2 = GraphNode(2, 10, 0, layer1, layer1)
    builder._nodes[1].append(layer1)
    builder._nodes[2].append(layer2)
    builder._live = 2
    # horizons: layer 1 dies after 10+17, layer 2 after 10+8
    assert builder.purge_dead_nodes(18) == 0
    assert builder.purge_dead_nodes(19) == 1
    assert builder._nodes[2] == []
    assert builder.purge_dead_nodes(27) == 0
    assert builder.purge_dead_nodes(28) == 1
    assert builder._nodes[1] == []
    assert builder.counters.nodes_purged == 2


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
        assert graph.end_positions(layer) == relevant[layer - 1]


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9))
def test_graph_links_match_oracle_and_stay_convex(seed):
    rng = random.Random(seed)
    pattern, text = helpers.random_instance(rng, max_text=150)
    graph = build_implicit_gap_graph(pattern, text)
    links = {(n.layer, n.endpos): (n.first.endpos, n.last.endpos)
             for n in graph.nodes() if n.layer > 1}
    expected = first_last_compatible(pattern, text)
    assert links == expected
    for node in graph.nodes():
        if node.layer == 1:
            continue
        for pred in graph.run_between(node.first, node.last):
            assert is_compatible(pattern, node.layer, pred.endpos, node.endpos)
    # the pruned builder searches only the nodes it still retains
    k = pattern.num_subpatterns
    if k == 1:
        return
    relevant = brute_force_relevant(pattern, text)
    handed: list[int] = []

    def on_match(node):
        handed.append(node.endpos)
        assert (node.first.endpos, node.last.endpos) == expected[(k, node.endpos)]
        run = [pred.endpos for pred in pruned.run_between(node.first, node.last)]
        assert run == [end for end in relevant[k - 2]
                       if is_compatible(pattern, k, end, node.endpos)]

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
