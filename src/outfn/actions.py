"""Ready-made group actions on the stock graphs.

Symmetric and alternating groups permute rose petals or cage edges by
index; the full signed groups add the petal flip (on roses) and the
vertex swap that reverses every edge (on cages).  All actions come with
explicit presentations so they can be relation-checked.
"""

from __future__ import annotations

from . import graphs
from . import symreps
from .graphs import Graph, GraphAction, GraphAut


def _index_aut(graph: Graph, perm) -> GraphAut:
    """Move the m-th edge in graph order onto the perm[m]-th, both counted
    from 1 as in one-line form, fixing every vertex."""
    edges = graph.edges
    return GraphAut(graph, {v: v for v in graph.vertices},
                    {e: edges[perm[m] - 1] for m, e in enumerate(edges)}, {})


def _swaps(graph: Graph) -> dict:
    """The adjacent transpositions s1..s(|E|-1) of the edges in graph order."""
    maps = {}
    for i in range(1, len(graph.edges)):
        perm = list(range(1, len(graph.edges) + 1))
        perm[i - 1], perm[i] = i + 1, i
        maps[f"s{i}"] = _index_aut(graph, perm)
    return maps


def _alternating(graph: Graph, k: int) -> dict:
    """The 3-cycles t3..tk, t_i = (1 2 i), acting alike on each
    consecutive block of k edges."""
    blocks = range(0, len(graph.edges), k)
    return {f"t{i}": _index_aut(graph, [b + m for b in blocks
                                        for m in symreps.three_cycle(i, k)])
            for i in range(3, k + 1)}


def symmetric_rose(k: int) -> GraphAction:
    g = graphs.rose(k)
    return GraphAction(g, symreps.symmetric_group(k), _swaps(g))


def alternating_rose(k: int) -> GraphAction:
    g = graphs.rose(k)
    return GraphAction(g, symreps.alternating_group(k), _alternating(g, k))


def signed_rose(n: int) -> GraphAction:
    """The full symmetry group of the rose: permutations plus petal flips."""
    g = graphs.rose(n)
    e1 = GraphAut(g, {"v": "v"}, {e: e for e in g.edges}, {"p1": True})
    return GraphAction(g, symreps.signed_permutation_group(n), {**_swaps(g), "e1": e1})


def symmetric_cage(k: int) -> GraphAction:
    g = graphs.cage(k)
    return GraphAction(g, symreps.symmetric_group(k), _swaps(g))


def alternating_cage(k: int) -> GraphAction:
    g = graphs.cage(k)
    return GraphAction(g, symreps.alternating_group(k), _alternating(g, k))


def trivial_action(graph: Graph) -> GraphAction:
    """The one-element group acting on anything."""
    return GraphAction(graph, symreps.trivial_group(), {})


def vertex_swap(g: Graph) -> GraphAut:
    """On a cage: exchange the vertices and reverse every edge."""
    verts = list(g.vertices)
    if len(verts) != 2 or any(g.is_loop(e) for e in g.edges):
        raise ValueError("vertex swap is defined on cages")
    a, b = verts
    return GraphAut(g, {a: b, b: a}, {e: e for e in g.edges},
                    {e: True for e in g.edges})


def cage_full(k: int) -> GraphAction:
    """The full symmetry group of the k-cage: edge permutations and the
    central vertex swap reversing every edge."""
    g = graphs.cage(k)
    return GraphAction(g, symreps.cage_group(k), {**_swaps(g), "delta": vertex_swap(g)})


def cage_central_alternating(k: int) -> GraphAction:
    """Alternating edge permutations of the k-cage together with the
    central vertex swap; the direct product A_k x Z_2."""
    g = graphs.cage(k)
    desc = symreps.with_central_involution(symreps.alternating_group(k))
    return GraphAction(g, desc, {**_alternating(g, k), "xi": vertex_swap(g)})


def petal_flip_involution(g: Graph) -> GraphAut:
    """Reverse every petal of a rose, fixing the vertex."""
    if len(g.vertices) != 1 or not all(g.is_loop(e) for e in g.edges):
        raise ValueError("petal flip is defined on roses")
    return GraphAut(g, {v: v for v in g.vertices}, {e: e for e in g.edges},
                    {e: True for e in g.edges})


def strand_swap(g: Graph) -> GraphAut:
    """Exchange each edge with the one other edge of the same ends (iota,
    tau), fixing every vertex: on a daisy chain, the two strands of every
    doubled edge."""
    pairs: dict = {}
    for e in g.edges:
        pairs.setdefault(g.ends[e], []).append(e)
    if any(len(pair) != 2 for pair in pairs.values()):
        raise ValueError("strand swap needs every edge to have exactly one "
                         "other edge with the same ends")
    emap = {}
    for a, b in pairs.values():
        emap[a], emap[b] = b, a
    return GraphAut(g, {v: v for v in g.vertices}, emap, {})


def parity_involution(g: Graph) -> GraphAut:
    """The distinguished central-type involution on a cage with n + 1 edges.

    For even n it is the vertex swap; for odd n the vertex swap after the
    exchange of the first two edges in graph order.  The exchange keeps
    each edge's direction, so after the swap it flips the two edges
    exactly when they have the same ends.
    """
    swap = vertex_swap(g)
    if len(g.edges) % 2:
        return swap
    if not g.edges:
        raise ValueError("a cage needs at least one edge")
    first, second = g.edges[:2]
    same = g.ends[first] == g.ends[second]
    return GraphAut(g, swap.vmap, {**swap.emap, first: second, second: first},
                    {**swap.flips, first: same, second: same})

