import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flow_reference import (
    _exhaustive_graphs,
    _max_degree,
    _random_feasible_graph,
    brute_force_min_cut,
    build_flow_network,
    defect,
    flow_selftest,
    infinite_capacity,
    max_flow_integral,
    min_split_cut,
    reference_complete_edges,
)
from liarminmax.core import TotalOrder
from liarminmax.graphs import OrderedMultigraph, added_edge_pairs, complete_edges
from liarminmax.oracles import TruthfulOracle
from liarminmax.sorters import balanced_quicksort, mergesort


def graph(s, *pairs):
    """The graph on positions 1..s with one edge per (lo, hi) pair listed."""
    edges = {}
    for pair in pairs:
        edges[pair] = edges.get(pair, 0) + 1
    return OrderedMultigraph(s, edges)


def random_feasible(seed, s, k):
    return _random_feasible_graph(random.Random(seed), s, k)


feasible_instances = st.builds(
    lambda seed, s, k: (random_feasible(seed, s, k), k),
    st.integers(0, 10**9),
    st.integers(2, 7),
    st.integers(0, 3),
)


def crossing_at(g, j):
    """Edges passing strictly over position ``j``: the per-position reference
    for the sweep in ``thickness``."""
    return sum(m for (a, b), m in g.edges.items() if a < j < b)


class TestDegrees:
    def test_path_degrees(self):
        left, right = graph(3, (1, 2), (2, 3)).degree_profile()
        assert left == [0, 0, 1, 1]
        assert right == [0, 1, 1, 0]

    def test_empty_graph_degrees(self):
        assert OrderedMultigraph(4).degree_profile() == ([0] * 5, [0] * 5)

    def test_multiplicity_weighted(self):
        left, right = OrderedMultigraph(3, {(1, 3): 2}).degree_profile()
        assert right[1] == 2
        assert left[3] == 2


class TestThickness:
    def test_path_has_no_spanning_edges(self):
        assert graph(4, (1, 2), (2, 3), (3, 4)).thickness() == 0

    def test_single_spanning_edge(self):
        assert graph(3, (1, 3)).thickness() == 1

    def test_overlapping_spans(self):
        assert graph(4, (1, 3), (2, 4), (1, 4)).thickness() == 2

    def test_tiny_graphs_are_flat(self):
        assert OrderedMultigraph(1).thickness() == 0
        assert graph(2, (1, 2)).thickness() == 0

    @given(feasible_instances)
    def test_sweep_matches_per_vertex_scan(self, instance):
        g, _ = instance
        naive = max((crossing_at(g, j) for j in range(2, g.s)), default=0)
        assert g.thickness() == naive


class TestDefect:
    """The reference's defect, which the completion self-test checks against 2t."""

    def test_empty_graph(self):
        assert defect(OrderedMultigraph(3), 0) == 4

    def test_full_path(self):
        assert defect(graph(3, (1, 2), (2, 3)), 0) == 0

    def test_single_edge_with_slack(self):
        assert defect(graph(2, (1, 2)), 1) == 2

    def test_closed_form(self):
        g = random_feasible(3, 6, 2)
        assert defect(g, 2) == 2 * 3 * (g.s - 1) - 2 * sum(g.edges.values())


class TestFlowNetwork:
    def test_empty_graph_capacities(self):
        net = build_flow_network(OrderedMultigraph(3), 0)
        assert [net.source_capacity(j) for j in (1, 2, 3)] == [1, 1, 1]
        assert [net.sink_capacity(j) for j in (1, 2, 3)] == [1, 1, 1]

    def test_spanning_edge_consumes_slack(self):
        net = build_flow_network(graph(3, (1, 3)), 0)
        assert net.source_capacity(1) == 0
        assert net.sink_capacity(3) == 0
        assert net.source_capacity(2) == net.source_capacity(3) == 1
        assert net.sink_capacity(1) == net.sink_capacity(2) == 1

    def test_two_positions_k1(self):
        net = build_flow_network(OrderedMultigraph(2), 1)
        assert net.source_capacity(1) == net.source_capacity(2) == 2
        assert net.sink_capacity(1) == net.sink_capacity(2) == 2
        pair_arcs = [
            (u, v, c) for u, v, c in net.arcs if u != net.source and v != net.sink
        ]
        assert len(pair_arcs) == 1
        assert pair_arcs[0][2] == net.infinite

    def test_infinite_encoding(self):
        assert infinite_capacity(3, 0) == 4
        net = build_flow_network(OrderedMultigraph(3), 0)
        assert net.pair_capacity(1, 3) == 4


class TestMaxFlow:
    @pytest.mark.parametrize(
        "g, k, value",
        [
            (OrderedMultigraph(3), 0, 2),
            (OrderedMultigraph(3, {(1, 3): 1}), 0, 0),
            (OrderedMultigraph(3, {(1, 2): 1, (2, 3): 1}), 0, 0),
        ],
    )
    def test_values(self, g, k, value):
        assert max_flow_integral(build_flow_network(g, k))[0] == value

    def test_flow_respects_capacities_and_conservation(self):
        g = random_feasible(17, 6, 2)
        net = build_flow_network(g, 2)
        value, flows = max_flow_integral(net)
        inflow = {}
        outflow = {}
        for (u, v), f in flows.items():
            assert f >= 0
            outflow[u] = outflow.get(u, 0) + f
            inflow[v] = inflow.get(v, 0) + f
        for j in range(1, 7):
            assert inflow.get(("right", j), 0) == outflow.get(("right", j), 0)
            assert inflow.get(("left", j), 0) == outflow.get(("left", j), 0)
        assert outflow.get("source", 0) == value == inflow.get("sink", 0)
        for j in range(1, 7):
            assert flows.get(("source", ("right", j)), 0) <= net.source_capacity(j)
            assert flows.get((("left", j), "sink"), 0) <= net.sink_capacity(j)


class TestMinSplitCut:
    @pytest.mark.parametrize(
        "g, k, value",
        [
            (OrderedMultigraph(3), 0, 2),
            (OrderedMultigraph(3, {(1, 3): 1}), 0, 0),
            (OrderedMultigraph(4), 1, 6),
        ],
    )
    def test_closed_form_values(self, g, k, value):
        assert min_split_cut(g, k) == value


@settings(max_examples=120, deadline=None)
@given(feasible_instances)
def test_flow_value_identity(instance):
    # max flow == split-cut minimum == (k+1)(s-1) - e - t == exhaustive min cut
    g, k = instance
    target = (k + 1) * (g.s - 1) - sum(g.edges.values()) - g.thickness()
    net = build_flow_network(g, k)
    value, _ = max_flow_integral(net)
    assert value == target
    assert min_split_cut(g, k) == target
    assert brute_force_min_cut(net) == target


class TestCompleteEdges:
    def test_empty_path_completion(self):
        full = complete_edges(OrderedMultigraph(3), 0)
        assert full.edges == {(1, 2): 1, (2, 3): 1}

    def test_spanning_edge_needs_patches(self):
        full = complete_edges(OrderedMultigraph(3, {(1, 3): 1}), 0)
        assert full.edges == {(1, 2): 1, (1, 3): 1, (2, 3): 1}
        assert sum(full.edges.values()) == 3  # exactly (k+1)(s-1) + t

    def test_already_complete_pair(self):
        full = complete_edges(OrderedMultigraph(2, {(1, 2): 1}), 0)
        assert full.edges == {(1, 2): 1}

    def test_two_positions_k1(self):
        full = complete_edges(OrderedMultigraph(2), 1)
        assert full.edges == {(1, 2): 2}

    def test_needs_two_positions(self):
        with pytest.raises(ValueError):
            complete_edges(OrderedMultigraph(1), 0)

    def test_one_degree_profile_per_completion(self, monkeypatch):
        profiled = []
        profile = OrderedMultigraph.degree_profile
        monkeypatch.setattr(
            OrderedMultigraph, "degree_profile", lambda g: profiled.append(g) or profile(g)
        )
        complete_edges(OrderedMultigraph(4, {(1, 3): 1, (2, 4): 1}), 1)
        assert len(profiled) == 1

    def test_added_pairs_listing(self):
        base = OrderedMultigraph(3, {(1, 3): 1})
        full = complete_edges(base, 0)
        assert added_edge_pairs(base, full) == [(1, 2), (2, 3)]

    @pytest.mark.parametrize(
        "base, completed",
        [
            # A base pair missing from the completed graph.
            (OrderedMultigraph(3, {(1, 3): 1}), OrderedMultigraph(3, {(1, 2): 1})),
            # A base pair whose multiplicity shrank.
            (OrderedMultigraph(2, {(1, 2): 2}), OrderedMultigraph(2, {(1, 2): 1})),
        ],
    )
    def test_added_pairs_need_the_base_contained(self, base, completed):
        with pytest.raises(ValueError, match="not contained"):
            added_edge_pairs(base, completed)


def reference_added_edge_pairs(base, completed):
    """Every pair of the completed graph in ascending order, each repeated by
    its growth: the reference listing for ``added_edge_pairs``."""
    pairs = []
    for pair in sorted(completed.edges):
        pairs.extend([pair] * (completed.edges[pair] - base.edges.get(pair, 0)))
    return pairs


def assert_lists_like_the_reference(g, k):
    full = complete_edges(g, k)
    assert added_edge_pairs(g, full) == reference_added_edge_pairs(g, full), (g, k)


@pytest.mark.parametrize("sort", [mergesort, balanced_quicksort])
def test_added_pairs_of_sort_graph_completions_match_the_reference(sort):
    rng = random.Random(13)
    for k in range(6):
        for s in range(2, 17):
            for _ in range(3):
                order = TotalOrder.shuffled(s, rng)
                g = sort(list(range(s)), TruthfulOracle(order, record=False)).graph
                assert_lists_like_the_reference(g, k)


def test_added_pairs_of_over_degree_completions_match_the_reference():
    for s in range(2, 5):
        for g in _exhaustive_graphs(s, 2):
            for k in range(min(4, _max_degree(g) - 1)):
                assert_lists_like_the_reference(g, k)


@pytest.mark.parametrize("k", range(6))
def test_a_pair_graph_adds_k_copies_of_its_edge(k):
    pair = graph(2, (1, 2))
    assert added_edge_pairs(pair, complete_edges(pair, k)) == [(1, 2)] * k


@settings(max_examples=120, deadline=None)
@given(feasible_instances)
def test_completion_guarantees(instance):
    g, k = instance
    cap = k + 1
    t = g.thickness()
    full = complete_edges(g, k)
    for pair, mult in g.edges.items():
        assert full.edges.get(pair, 0) >= mult
    left, right = full.degree_profile()
    assert all(left[j] >= cap for j in range(2, g.s + 1))
    assert all(right[j] >= cap for j in range(1, g.s))
    edges = sum(full.edges.values())
    assert edges <= cap * (g.s - 1) + t
    assert edges == sum(g.edges.values()) + len(added_edge_pairs(g, full))


def assert_completes_like_the_reference(g, k):
    """The completion matches the clamped max-flow reference edge for edge,
    keeps the input, and gives every position k+1 neighbors per side."""
    full = complete_edges(g, k)
    assert full.edges == reference_complete_edges(g, k).edges, (g, k)
    assert all(full.edges.get(pair, 0) >= mult for pair, mult in g.edges.items())
    left, right = full.degree_profile()
    assert min(left[2:]) >= k + 1 and min(right[1 : g.s]) >= k + 1


def test_over_degree_completion_matches_the_reference():
    # Every graph on up to four positions with multiplicities up to 2, at
    # each k <= 3 that some degree of it exceeds k+1.
    checked = 0
    for s in range(2, 5):
        for g in _exhaustive_graphs(s, 2):
            for k in range(min(4, _max_degree(g) - 1)):
                assert_completes_like_the_reference(g, k)
                checked += 1
    assert checked == 2016


@pytest.mark.parametrize("sort", [mergesort, balanced_quicksort])
def test_sort_graph_completion_past_k_plus_2(sort):
    # Groups larger than k+2, whose sort degrees may exceed k+1.
    rng = random.Random(11)
    for k in range(6):
        for s in range(k + 3, 17):
            for _ in range(5):
                order = TotalOrder.shuffled(s, rng)
                g = sort(list(range(s)), TruthfulOracle(order, record=False)).graph
                assert_completes_like_the_reference(g, k)


def test_flow_selftest_small_grid():
    report = flow_selftest(max_s=5, max_k=2, random_instances=300, seed=2, exhaustive_s=4)
    assert report.passed
    assert report.exhaustive_checked > 100
    assert report.random_checked == 300
