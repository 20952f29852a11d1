"""Ordered multigraphs over sorted positions and the greedy edge completion.

A sort of ``s`` elements leaves behind a graph on positions ``1..s`` (one edge
per compared pair, drawn in output order).  The verification step must extend
that graph so every position other than the first has at least ``k+1``
neighbors to its left and every position other than the last at least ``k+1``
to its right, adding as few edges as possible.  Picking those edges is a
max-flow problem on a convex bipartite graph, which one greedy sweep solves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

__all__ = [
    "OrderedMultigraph",
    "added_edge_pairs",
    "complete_edges",
]


@dataclass
class OrderedMultigraph:
    """Loopless multigraph on positions 1..s; edges stored as (lo, hi) -> multiplicity."""

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
        """Maximum, over interior positions, of the number of edges spanning it."""
        left, right = self.degree_profile()
        # Edges over j = edges over j-1 + edges leaving j-1 - edges ending at j.
        return max(accumulate((right[j - 1] - left[j] for j in range(2, self.s)), initial=0))


def complete_edges(graph: OrderedMultigraph, k: int) -> OrderedMultigraph:
    """Extend the graph so every position has at least k+1 certified
    neighbors per side.

    Position i can take k+1 minus its right degree more right neighbors and
    position j k+1 minus its left degree more left neighbors; a degree of
    k+1 or more leaves no slack (zero or negative), and nothing is added
    there.  An added edge (i, j) with i < j spends one slack of each.
    Position i may pair with any j in i+1..s, a suffix of the positions, so
    the pairing graph is convex and greedy matching is a maximum one (Glover
    1967): walk i upward and hand its slack to the smallest j > i with slack
    left.  The j pointer never moves back, so the sweep is O(s + added
    edges), and it never pushes a degree past k+1.  Then patch the remaining
    slack with edges to the extreme positions -- left shortfalls connect to
    position 1, right shortfalls to position s, each pass in ascending
    position order.

    The graph is profiled once.  The result contains the input as a
    sub-multigraph and satisfies the degree floor on both sides, whatever
    the input degrees.  When every input degree is at most k+1 (a sort of at
    most k+2 elements), the sweep leaves twice the thickness of the input
    and the result has at most (k+1)(s-1) + thickness(graph) edges in total.

    At s = 2 the sweep raises the one pair (1, 2) to k+1 copies when it has
    fewer and adds nothing else, whatever the input multiplicity; that is
    computed directly, without the profile.
    """
    s = graph.s
    if s < 2:
        raise ValueError("completion needs at least two positions")
    cap = k + 1
    if s == 2:
        m = graph.edges.get((1, 2), 0)
        return OrderedMultigraph(2, {(1, 2): m if m > cap else cap})
    # The profile's degrees are raised in place as edges are added; a
    # position's slack is k+1 minus its current degree.  Plain comparisons
    # stand in for min() and max(), whose calls cost more than a pair's sweep.
    left, right = graph.degree_profile()
    edges = dict(graph.edges)
    j = 2
    for i in range(1, s):
        slack = cap - right[i]
        if j <= i:
            j = i + 1
        while slack > 0 and j <= s:
            take = cap - left[j]
            if take > 0:
                if take > slack:
                    take = slack
                edges[(i, j)] = edges.get((i, j), 0) + take
                slack -= take
                left[j] += take
            if left[j] >= cap:
                j += 1
        right[i] = cap - slack
    for j in range(2, s + 1):
        need = cap - left[j]
        if need > 0:
            edges[(1, j)] = edges.get((1, j), 0) + need
            right[1] += need
    for j in range(1, s):
        need = cap - right[j]
        if need > 0:
            edges[(j, s)] = edges.get((j, s), 0) + need
    return OrderedMultigraph(s, edges)


def added_edge_pairs(
    base: OrderedMultigraph, completed: OrderedMultigraph
) -> list[tuple[int, int]]:
    """Edges of ``completed`` beyond ``base``, one entry per copy, ascending.

    Raises ``ValueError`` unless ``base`` is a sub-multigraph of
    ``completed``: each of its pairs must be there with at least its
    multiplicity.  Only the pairs whose multiplicity grew are sorted, and a
    ``completed`` of one pair (any graph on two positions) needs no sort.
    """
    old, new = base.edges, completed.edges
    if len(new) == 1:
        # Contained: ``base`` holds this pair at most m times, and no other.
        ((pair, m),) = new.items()
        before = old.get(pair, 0)
        if m < before or len(old) != (pair in old):
            raise ValueError("base graph is not contained in the completed graph")
        return [pair] * (m - before)
    get = old.get
    grown = []
    fresh = 0
    for pair, m in new.items():
        before = get(pair)
        if before is None:
            fresh += 1
            grown.append(pair)
        elif m != before:
            grown.append(pair)
    # Every pair of ``completed`` that is not fresh is a pair of ``base``, so
    # the counts agree exactly when no pair of ``base`` is missing.
    if len(new) - fresh != len(old):
        raise ValueError("base graph is not contained in the completed graph")
    grown.sort()
    pairs: list[tuple[int, int]] = []
    for pair in grown:
        extra = new[pair] - get(pair, 0)
        if extra < 0:
            raise ValueError("base graph is not contained in the completed graph")
        pairs += [pair] * extra
    return pairs
