"""The greedy edge completion over a sort's output positions.

A sort of ``s`` elements compares pairs of positions ``1..s`` of its output
(one edge per compared pair), and the completion and the thickness read only
that comparison graph's degree profile: each position's count of neighbors
to its left and to its right.  The verification step adds as
few edges as possible so that, in the graph plus the added edges, every
position other than the first has at least ``k+1`` neighbors to its left and
every position other than the last at least ``k+1`` to its right; together
they have at most ``(k+1)(s-1)`` edges plus the graph's thickness when no
degree of the graph exceeds ``k+1``.  Picking those edges is a max-flow
problem on a convex bipartite graph, which one greedy sweep solves; the
completion returns only the added edges, as a plain ``{(i, j): copies}``
dict, and leaves its input as it is.
"""

from __future__ import annotations

from itertools import accumulate

__all__ = [
    "added_edge_pairs",
    "complete_edges",
    "profile_thickness",
]


def profile_thickness(left: list[int], right: list[int]) -> int:
    """Maximum, over interior positions, of the number of edges spanning it,
    read from the (left, right) degree lists of a graph on positions
    1..len(left)-1."""
    # Edges over j = edges over j-1 + edges leaving j-1 - edges ending at j.
    return max(accumulate((right[j - 1] - left[j] for j in range(2, len(left) - 1)), initial=0))


def complete_edges(graph, k: int) -> dict[tuple[int, int], int]:
    """The edges that give every position of the graph at least k+1
    certified neighbors per side, as a dict from each added pair (i, j),
    i < j, to its number of copies, every count positive.

    ``graph`` is anything with a position count ``s`` and a
    ``degree_profile()`` of (left, right) degree lists, 1-indexed: at run
    time a sort's :class:`~liarminmax.sorters.SortOutcome`.

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

    The graph is profiled once, and neither it nor its profile is written.
    The input plus the result satisfies the degree floor on both sides,
    whatever the input degrees.  When every input degree is at most k+1 (a
    sort of at most k+2 elements), the sweep leaves twice the thickness T of
    the input, and the input and the result together have at most
    (k+1)(s-1) + T edges.

    At s = 2 the sweep adds k+1-m copies of the one pair (1, 2) when the
    input has m < k+1 of them, and nothing otherwise; that is computed
    directly from position 1's right degree, m, with no sweep.
    """
    s = graph.s
    if s < 2:
        raise ValueError("completion needs at least two positions")
    cap = k + 1
    if s == 2:
        m = graph.degree_profile()[1][1]
        return {(1, 2): cap - m} if m < cap else {}
    # The degrees are copied and raised in place as edges are added; a
    # position's slack is k+1 minus its current degree.  Plain comparisons
    # stand in for min() and max(), whose calls cost more than a pair's sweep.
    left, right = graph.degree_profile()
    left, right = left.copy(), right.copy()
    edges: dict[tuple[int, int], int] = {}
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
                edges[(i, j)] = take  # the sweep meets each pair once
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
    return edges


def added_edge_pairs(edges: dict[tuple[int, int], int]) -> list[tuple[int, int]]:
    """The pairs of ``edges``, a completion's result, one entry per copy, in
    ascending order: the check list of a group step that asks one query per
    check, for an oracle outside :data:`~liarminmax.oracles.BATCHED` (a
    proxy such as the benchmark's tracing tap, which counts the added edges
    as the length of this list).  A batched oracle takes ``edges`` as it is.

    A single pair (any completion on two positions that adds an edge) needs
    no sort.
    """
    if len(edges) == 1:
        ((pair, m),) = edges.items()
        return [pair] * m
    pairs: list[tuple[int, int]] = []
    for pair in sorted(edges):
        pairs += [pair] * edges[pair]
    return pairs
