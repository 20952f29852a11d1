import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flow_reference import (
    OrderedMultigraph,
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
    sort_graph,
    union,
)
from liarminmax.core import TotalOrder
from liarminmax.graphs import added_edge_pairs, complete_edges
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
        added = complete_edges(OrderedMultigraph(3), 0)
        assert added == {(1, 2): 1, (2, 3): 1}

    def test_spanning_edge_needs_patches(self):
        base = OrderedMultigraph(3, {(1, 3): 1})
        added = complete_edges(base, 0)
        assert added == {(1, 2): 1, (2, 3): 1}
        assert sum(union(base, added).edges.values()) == 3  # exactly (k+1)(s-1) + t

    @pytest.mark.parametrize("k, m", [(k, m) for k in range(4) for m in range(k + 3)])
    def test_pair_completion(self, k, m):
        # Every multiplicity of the one pair, over-degree inputs (m > k+1)
        # included, which the flow self-test skips.
        edges = {(1, 2): m} if m else {}
        base = OrderedMultigraph(2, dict(edges))
        added = complete_edges(base, k)
        assert added == ({(1, 2): k + 1 - m} if m < k + 1 else {})
        assert base.edges == edges
        assert added_edge_pairs(added) == [(1, 2)] * max(0, k + 1 - m)

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
        added = complete_edges(OrderedMultigraph(3, {(1, 3): 1}), 0)
        assert added_edge_pairs(added) == [(1, 2), (2, 3)]


def reference_added_edge_pairs(g, k):
    """The max-flow completion minus ``g``, one entry per added copy, in
    ascending order: the reference listing for ``added_edge_pairs``."""
    full = reference_complete_edges(g, k).edges
    pairs = []
    for pair in sorted(full):
        pairs += [pair] * (full[pair] - g.edges.get(pair, 0))
    return pairs


def assert_lists_like_the_reference(g, k):
    assert added_edge_pairs(complete_edges(g, k)) == reference_added_edge_pairs(g, k), (g, k)


@pytest.mark.parametrize("sort", [mergesort, balanced_quicksort])
def test_added_pairs_of_sort_graph_completions_match_the_reference(sort):
    rng = random.Random(13)
    for k in range(6):
        for s in range(2, 17):
            for _ in range(3):
                order = TotalOrder.shuffled(s, rng)
                out = sort(list(range(s)), TruthfulOracle(order, record=False))
                g = sort_graph(out)
                assert_lists_like_the_reference(g, k)
                assert complete_edges(out, k) == complete_edges(g, k), (s, k)


def test_added_pairs_of_over_degree_completions_match_the_reference():
    for s in range(2, 5):
        for g in _exhaustive_graphs(s, 2):
            for k in range(min(4, _max_degree(g) - 1)):
                assert_lists_like_the_reference(g, k)


@pytest.mark.parametrize("k", range(6))
def test_a_pair_graph_adds_k_copies_of_its_edge(k):
    assert added_edge_pairs(complete_edges(graph(2, (1, 2)), k)) == [(1, 2)] * k


@settings(max_examples=120, deadline=None)
@given(feasible_instances)
def test_completion_guarantees(instance):
    g, k = instance
    cap = k + 1
    t = g.thickness()
    added = complete_edges(g, k)
    assert all(m > 0 for m in added.values())
    full = union(g, added)
    left, right = full.degree_profile()
    assert all(left[j] >= cap for j in range(2, g.s + 1))
    assert all(right[j] >= cap for j in range(1, g.s))
    edges = sum(full.edges.values())
    assert edges <= cap * (g.s - 1) + t
    assert edges == sum(g.edges.values()) + len(added_edge_pairs(added))


def assert_completes_like_the_reference(g, k):
    """The input plus the completion matches the clamped max-flow reference
    edge for edge and gives every position k+1 neighbors per side, and the
    input is left as it was."""
    before = dict(g.edges)
    full = union(g, complete_edges(g, k))
    assert g.edges == before, (g, k)
    assert full.edges == reference_complete_edges(g, k).edges, (g, k)
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
                out = sort(list(range(s)), TruthfulOracle(order, record=False))
                g = sort_graph(out)
                assert_completes_like_the_reference(g, k)
                assert complete_edges(out, k) == complete_edges(g, k), (s, k)


@pytest.mark.parametrize("sort", [mergesort, balanced_quicksort])
def test_completion_leaves_a_sort_outcome_as_it_was(sort):
    # The benchmark's tracer keeps the first argument of every completion
    # and reads its thickness() when the trial ends, so the completion must
    # not write the outcome's profile, which is the outcome's own.  Pairs
    # share one profile, and groups past k+2 have degrees above k+1.
    rng = random.Random(17)
    for s in (2, 3, 5, 8, 17, 33):
        for k in (0, 1, 4, 32):
            order = TotalOrder.shuffled(s, rng)
            out = sort(list(range(s)), TruthfulOracle(order, record=False))
            left, right = out.degree_profile()
            before = (left.copy(), right.copy()), out.thickness()
            assert before[1] == sort_graph(out).thickness()
            added = complete_edges(out, k)
            assert (out.degree_profile(), out.thickness()) == before, (s, k)
            assert out.degree_profile()[0] is left
            assert complete_edges(out, k) == added


def test_flow_selftest_small_grid():
    report = flow_selftest(max_s=5, max_k=2, random_instances=300, seed=2, exhaustive_s=4)
    assert report.passed
    assert report.exhaustive_checked > 100
    assert report.random_checked == 300
