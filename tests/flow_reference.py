"""Reference solvers for the edge completion, kept beside the tests.

The runtime completes a comparison graph with a greedy sweep and a patch to
the extreme positions (:func:`liarminmax.graphs.complete_edges`).  This
module keeps the general construction the sweep replaces -- a flow network, a
breadth-first augmenting-path max-flow, the closed-form split-cut minimum and
an exhaustive min-cut -- so each can check the others and the sweep.  The
completion must agree with the max-flow one edge for edge, not just in edge
count: breadth-first augmentation always takes source -> smallest i with
slack -> smallest j > i with slack -> sink, and that greedy is already
maximum.  A degree above k+1 leaves no slack, so the network clamps each
slack at zero; the slacks and the defect are computed here, apart from the
runtime's completion.  A sort keeps only its graph's degree profile, so the
edge-level graphs these references take (:class:`OrderedMultigraph`) live
here, and so does the sort graph they compare against (:func:`sort_graph`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from liarminmax.graphs import complete_edges, profile_thickness


@dataclass
class OrderedMultigraph:
    """Loopless multigraph on positions 1..s; edges stored as (lo, hi) -> multiplicity.

    The references and the graph tests build their inputs from it; the
    runtime completes a sort's degree profile and keeps no edges.
    """

    s: int
    edges: dict[tuple[int, int], int] = field(default_factory=dict)

    def degree_profile(self) -> tuple[list[int], list[int]]:
        """(left, right) degree lists, 1-indexed; index 0 is unused.

        A position's left (right) degree is the multiplicity-weighted count of
        its edges to smaller (larger) positions.
        """
        left = [0] * (self.s + 1)
        right = [0] * (self.s + 1)
        for (a, b), m in self.edges.items():
            right[a] += m
            left[b] += m
        return left, right

    def thickness(self) -> int:
        return profile_thickness(*self.degree_profile())


def infinite_capacity(s: int, k: int) -> int:
    """Stand-in for an unbounded arc: strictly above any cut using finite arcs only."""
    return (k + 1) * s + 1


class FlowNetwork:
    """The completion network for a comparison graph.

    Node layout: a single source feeds one *right-slot* node per position
    (arc capacity = how many more right neighbors that position may take);
    one *left-slot* node per position drains into the sink (capacity = how
    many more left neighbors it may take); and every pair i < j is linked
    right-slot(i) -> left-slot(j) with effectively unlimited capacity.
    Augmenting flow therefore picks extra edges that use up right capacity
    at the lower endpoint and left capacity at the upper one.

    Internal node ids: source = 0, right-slot(j) = j, left-slot(j) = s + j,
    sink = 2s + 1.
    """

    def __init__(self, s: int, k: int, right_slack: list[int], left_slack: list[int]) -> None:
        self.s = s
        self.k = k
        self.infinite = infinite_capacity(s, k)
        self.source = 0
        self.sink = 2 * s + 1
        self._right_slack = right_slack
        self._left_slack = left_slack
        arcs: list[tuple[int, int, int]] = []
        for j in range(1, s + 1):
            arcs.append((self.source, j, right_slack[j]))
        for i in range(1, s + 1):
            for j in range(i + 1, s + 1):
                arcs.append((i, s + j, self.infinite))
        for j in range(1, s + 1):
            arcs.append((s + j, self.sink, left_slack[j]))
        self.arcs = arcs

    def node_count(self) -> int:
        return 2 * self.s + 2

    def source_capacity(self, j: int) -> int:
        """Capacity of the source arc into right-slot(j)."""
        return self._right_slack[j]

    def sink_capacity(self, j: int) -> int:
        """Capacity of the arc from left-slot(j) into the sink."""
        return self._left_slack[j]

    def pair_capacity(self, i: int, j: int) -> int:
        if not 1 <= i < j <= self.s:
            raise ValueError(f"({i}, {j}) is not an ordered pair of positions")
        return self.infinite

    def label(self, node: int):
        if node == self.source:
            return "source"
        if node == self.sink:
            return "sink"
        if node <= self.s:
            return ("right", node)
        return ("left", node - self.s)


def _clamped_slack(graph: OrderedMultigraph, k: int) -> tuple[list[int], list[int]]:
    """(left, right) slack lists, 1-indexed: how far each degree falls short
    of k+1, and zero for a degree of k+1 or more."""
    left, right = graph.degree_profile()
    cap = k + 1
    return [max(0, cap - d) for d in left], [max(0, cap - d) for d in right]


def defect(graph: OrderedMultigraph, k: int) -> int:
    """Total shortfall of left and right degrees below k+1.  When every
    degree is at most k+1 it equals 2(k+1)(s-1) minus twice the edge count."""
    left_slack, right_slack = _clamped_slack(graph, k)
    return sum(right_slack[1 : graph.s]) + sum(left_slack[2:])


def build_flow_network(graph: OrderedMultigraph, k: int) -> FlowNetwork:
    """Network whose max flow selects the cheapest completion edges."""
    left_slack, right_slack = _clamped_slack(graph, k)
    return FlowNetwork(graph.s, k, right_slack, left_slack)


def max_flow_integral(net: FlowNetwork) -> tuple[int, dict[tuple, int]]:
    """Integral maximum source-sink flow by shortest augmenting paths.

    Capacities are small integers and the value is at most (k+1)(s-1), so a
    plain breadth-first augmenting search is plenty.  Returns the flow value
    and a per-arc flow map keyed by node labels.
    """
    n = net.node_count()
    to: list[int] = []
    residual: list[int] = []
    adjacency: list[list[int]] = [[] for _ in range(n)]

    def add_arc(u: int, v: int, capacity: int) -> None:
        adjacency[u].append(len(to))
        to.append(v)
        residual.append(capacity)
        adjacency[v].append(len(to))
        to.append(u)
        residual.append(0)

    for u, v, capacity in net.arcs:
        add_arc(u, v, capacity)

    source, sink = net.source, net.sink
    value = 0
    while True:
        parent_arc = [-1] * n
        parent_arc[source] = -2
        queue = [source]
        head = 0
        while head < len(queue) and parent_arc[sink] == -1:
            u = queue[head]
            head += 1
            for arc in adjacency[u]:
                v = to[arc]
                if residual[arc] > 0 and parent_arc[v] == -1:
                    parent_arc[v] = arc
                    queue.append(v)
        if parent_arc[sink] == -1:
            break
        bottleneck = None
        v = sink
        while v != source:
            arc = parent_arc[v]
            if bottleneck is None or residual[arc] < bottleneck:
                bottleneck = residual[arc]
            v = to[arc ^ 1]
        v = sink
        while v != source:
            arc = parent_arc[v]
            residual[arc] -= bottleneck
            residual[arc ^ 1] += bottleneck
            v = to[arc ^ 1]
        value += bottleneck

    flows: dict[tuple, int] = {}
    for index, (u, v, capacity) in enumerate(net.arcs):
        flows[(net.label(u), net.label(v))] = capacity - residual[2 * index]
    return value, flows


def min_split_cut(graph: OrderedMultigraph, k: int) -> int:
    """Minimum cut capacity over the per-position split cuts, in closed form.

    The cut that splits at position i keeps the source plus right-slots i..s
    and left-slots (i+1)..s on the source side; its capacity is the right
    slack below i plus the left slack above i, which is (s-1)(k+1) - sum of
    right degrees below i - sum of left degrees above i when every degree is
    at most k+1.
    """
    left_slack, right_slack = _clamped_slack(graph, k)
    suffix_left = sum(left_slack[1:])
    prefix_right = 0
    best = None
    for i in range(1, graph.s + 1):
        suffix_left -= left_slack[i]
        value = prefix_right + suffix_left
        if best is None or value < best:
            best = value
        prefix_right += right_slack[i]
    return best


# Per-size tables for the exhaustive cut enumeration: membership bits of the
# right-slot and left-slot nodes for every subset mask, plus the number of
# pair arcs each mask cuts (pair arcs do not depend on the instance).
_BRUTE_FORCE_TABLES: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _brute_force_tables(s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    cached = _BRUTE_FORCE_TABLES.get(s)
    if cached is None:
        masks = np.arange(1 << (2 * s), dtype=np.int64)
        right_in = np.empty((masks.size, s), dtype=np.int32)
        left_in = np.empty((masks.size, s), dtype=np.int32)
        for j in range(s):
            right_in[:, j] = (masks >> j) & 1
            left_in[:, j] = (masks >> (s + j)) & 1
        # pairs_cut[mask] = #{(i, j): i < j, right-slot(i) in S, left-slot(j) not in S}
        left_out_suffix = np.cumsum((1 - left_in)[:, ::-1], axis=1)[:, ::-1]
        pairs_cut = np.zeros(masks.size, dtype=np.int32)
        for i in range(s - 1):
            pairs_cut += right_in[:, i] * left_out_suffix[:, i + 1]
        cached = (right_in, left_in, pairs_cut)
        _BRUTE_FORCE_TABLES[s] = cached
    return cached


def brute_force_min_cut(net: FlowNetwork) -> int:
    """Independent min-cut oracle: enumerate every source-side node subset.

    The source is always in, the sink always out; the remaining 2s nodes run
    through all subsets.  A source arc is cut when its right-slot is outside
    the subset, a sink arc when its left-slot is inside, and a pair arc when
    its endpoints straddle the boundary.  The infinite-capacity stand-in
    keeps any subset cutting a pair arc strictly above every finite cut, so
    it never masks the true minimum.
    """
    s = net.s
    right_in, left_in, pairs_cut = _brute_force_tables(s)
    right_slack = np.array([net.source_capacity(j) for j in range(1, s + 1)], dtype=np.int64)
    left_slack = np.array([net.sink_capacity(j) for j in range(1, s + 1)], dtype=np.int64)
    total = (
        int(right_slack.sum())
        - right_in @ right_slack
        + left_in @ left_slack
        + net.infinite * pairs_cut.astype(np.int64)
    )
    return int(total.min())


def flow_completion(
    graph: OrderedMultigraph, k: int, flows: dict[tuple, int] | None = None
) -> OrderedMultigraph:
    """The graph plus the max-flow-selected edges.

    No degree is pushed past k+1 (the arc capacities guarantee it).  When
    every input degree is at most k+1, the remaining defect is exactly twice
    the thickness of the input graph.
    Flow edges are folded in ascending (i, j) order so the result is
    reproducible.
    """
    if flows is None:
        _, flows = max_flow_integral(build_flow_network(graph, k))
    edges = dict(graph.edges)
    for i in range(1, graph.s + 1):
        for j in range(i + 1, graph.s + 1):
            flow = flows.get((("right", i), ("left", j)), 0)
            if flow:
                edges[(i, j)] = edges.get((i, j), 0) + flow
    return OrderedMultigraph(graph.s, edges)


def sort_graph(outcome) -> OrderedMultigraph:
    """The comparison graph of a sort's ``outcome``: each pair its answers
    compare, once, as an edge between the two output positions.  The
    runtime keeps only this graph's degree profile."""
    position = {element: index for index, element in enumerate(outcome.output, 1)}
    edges = {}
    for lo, hi in outcome.answers:
        p, q = position[lo], position[hi]
        edges[(min(p, q), max(p, q))] = 1
    return OrderedMultigraph(len(outcome.output), edges)


def union(graph: OrderedMultigraph, added: dict[tuple[int, int], int]) -> OrderedMultigraph:
    """``graph`` with the ``added`` edges on top: the completed graph, from
    the input and what :func:`liarminmax.graphs.complete_edges` returns."""
    edges = dict(graph.edges)
    for pair, m in added.items():
        edges[pair] = edges.get(pair, 0) + m
    return OrderedMultigraph(graph.s, edges)


def reference_complete_edges(
    graph: OrderedMultigraph, k: int, flows: dict[tuple, int] | None = None
) -> OrderedMultigraph:
    """:func:`flow_completion` plus the patch to positions 1 and s that
    ``complete_edges`` applies: left shortfalls connect to position 1, right
    shortfalls to position s, each pass in ascending position order."""
    if graph.s < 2:
        raise ValueError("completion needs at least two positions")
    completed = flow_completion(graph, k, flows)
    edges = completed.edges
    cap = k + 1
    left, _ = completed.degree_profile()
    for j in range(2, graph.s + 1):
        need = cap - left[j]
        if need > 0:
            edges[(1, j)] = edges.get((1, j), 0) + need
    _, right = completed.degree_profile()
    for j in range(1, graph.s):
        need = cap - right[j]
        if need > 0:
            edges[(j, graph.s)] = edges.get((j, graph.s), 0) + need
    return completed


# --- completion self-test ---------------------------------------------------


@dataclass
class FlowSelftestReport:
    exhaustive_checked: int = 0
    random_checked: int = 0
    failures: list[tuple[str, int, str]] = field(default_factory=list)  # (graph repr, k, problem)

    @property
    def passed(self) -> bool:
        return not self.failures


def _check_completion_instance(graph: OrderedMultigraph, k: int) -> str | None:
    """All completion guarantees for one (graph, k) instance, cross-checked
    against the exhaustive min-cut and the max-flow completion; returns a
    description of the first violation, or None."""
    s = graph.s
    e = sum(graph.edges.values())
    t = graph.thickness()
    target = (k + 1) * (s - 1) - e - t
    net = build_flow_network(graph, k)
    value, flows = max_flow_integral(net)
    if value != target:
        return f"flow value {value} != (k+1)(s-1)-e-t = {target}"
    split = min_split_cut(graph, k)
    if split != target:
        return f"split-cut minimum {split} != {target}"
    brute = brute_force_min_cut(net)
    if brute != target:
        return f"brute-force min cut {brute} != {target}"
    star = flow_completion(graph, k, flows)
    left, right = star.degree_profile()
    cap = k + 1
    if any(left[j] > cap or right[j] > cap for j in range(1, s + 1)):
        return "flow completion overshot a degree bound"
    if defect(star, k) != 2 * t:
        return f"flow completion defect {defect(star, k)} != 2t = {2 * t}"
    before = dict(graph.edges)
    added = complete_edges(graph, k)
    if graph.edges != before:
        return "complete_edges changed its input"
    if any(m <= 0 for m in added.values()):
        return "complete_edges returned an edge with no copies"
    full = union(graph, added)
    if full.edges != reference_complete_edges(graph, k, flows).edges:
        return "complete_edges differs from the max-flow completion"
    left, right = full.degree_profile()
    if any(left[j] < cap for j in range(2, s + 1)):
        return "a non-first position is short of left neighbors"
    if any(right[j] < cap for j in range(1, s)):
        return "a non-last position is short of right neighbors"
    limit = (k + 1) * (s - 1) + t
    e = sum(full.edges.values())
    if e > limit:
        return f"completed graph has {e} edges, limit {limit}"
    return None


def _exhaustive_graphs(s: int, max_multiplicity: int):
    pairs = [(a, b) for a in range(1, s + 1) for b in range(a + 1, s + 1)]
    for mults in product(range(max_multiplicity + 1), repeat=len(pairs)):
        edges = {pair: m for pair, m in zip(pairs, mults) if m}
        yield OrderedMultigraph(s, edges)


def _max_degree(graph: OrderedMultigraph) -> int:
    left, right = graph.degree_profile()
    return max(max(left), max(right))


def _random_feasible_graph(rng: random.Random, s: int, k: int) -> OrderedMultigraph:
    edges: dict[tuple[int, int], int] = {}
    left = [0] * (s + 1)
    right = [0] * (s + 1)
    cap = k + 1
    for _ in range(rng.randint(0, cap * (s - 1))):
        a = rng.randint(1, s - 1)
        b = rng.randint(a + 1, s)
        if right[a] < cap and left[b] < cap:
            edges[(a, b)] = edges.get((a, b), 0) + 1
            right[a] += 1
            left[b] += 1
    return OrderedMultigraph(s, edges)


def flow_selftest(
    max_s: int = 8,
    max_k: int = 3,
    random_instances: int = 10_000,
    seed: int = 0,
    exhaustive_s: int = 5,
    exhaustive_k: int = 2,
    exhaustive_multiplicity: int = 2,
) -> FlowSelftestReport:
    """Exhaustive small instances plus seeded random ones, all cross-checked
    against the brute-force min-cut."""
    if exhaustive_s > 5 or max_s > 8:
        raise ValueError("brute-force min-cut enumeration is capped at s=5 exhaustive, s=8 random")
    report = FlowSelftestReport()
    for s in range(2, exhaustive_s + 1):
        for graph in _exhaustive_graphs(s, exhaustive_multiplicity):
            worst = _max_degree(graph)
            for k in range(exhaustive_k + 1):
                if worst > k + 1:
                    continue
                problem = _check_completion_instance(graph, k)
                report.exhaustive_checked += 1
                if problem is not None:
                    report.failures.append((repr(graph), k, problem))
    rng = random.Random(seed)
    for _ in range(random_instances):
        s = rng.randint(2, max_s)
        k = rng.randint(0, max_k)
        graph = _random_feasible_graph(rng, s, k)
        problem = _check_completion_instance(graph, k)
        report.random_checked += 1
        if problem is not None:
            report.failures.append((repr(graph), k, problem))
    return report
