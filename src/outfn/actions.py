"""Ready-made group actions on the stock graphs.

Symmetric and alternating groups permute rose petals or cage edges by
index; the full signed groups add the petal flip (on roses) and the
vertex swap that reverses every edge (on cages).  All actions come with
explicit presentations so they can be relation-checked.  The branching
check restricts the homology of the symmetric cage action, which
realises the standard module, to one letter fewer.
"""

from __future__ import annotations

from . import graphs
from . import symreps
from .graphs import Graph, GraphAction, GraphAut


def _adjacent_swap(i: int, k: int) -> dict:
    out = {m: m for m in range(1, k + 1)}
    out[i], out[i + 1] = i + 1, i
    return out


def _perm_aut(graph: Graph, labels, perm, vmap=None, flip_all=False) -> GraphAut:
    """Lift an index permutation to the listed edges.

    ``labels[m]`` is the edge carrying index m; indices missing from the
    permutation are fixed.
    """
    emap = {e: e for e in graph.edges}
    for m, target in perm.items():
        emap[labels[m]] = labels[target]
    vmap = vmap or {v: v for v in graph.vertices}
    flips = {e: True for e in graph.edges} if flip_all else {}
    return GraphAut(graph, vmap, emap, flips)


def _index_labels(prefix: str, k: int) -> dict:
    return {m: f"{prefix}{m}" for m in range(1, k + 1)}


def symmetric_rose(k: int) -> GraphAction:
    g = graphs.rose(k)
    labels = _index_labels("p", k)
    maps = {f"s{i}": _perm_aut(g, labels, _adjacent_swap(i, k))
            for i in range(1, k)}
    return GraphAction(g, symreps.symmetric_group(k), maps)


def alternating_rose(k: int) -> GraphAction:
    g = graphs.rose(k)
    labels = _index_labels("p", k)
    maps = {}
    for i in range(3, k + 1):
        perm = {m: v for m, v in enumerate(symreps.three_cycle(i, k), start=1)}
        maps[f"t{i}"] = _perm_aut(g, labels, perm)
    return GraphAction(g, symreps.alternating_group(k), maps)


def signed_rose(n: int) -> GraphAction:
    """The full symmetry group of the rose: permutations plus petal flips."""
    g = graphs.rose(n)
    labels = _index_labels("p", n)
    maps = {f"s{i}": _perm_aut(g, labels, _adjacent_swap(i, n))
            for i in range(1, n)}
    maps["e1"] = GraphAut(g, {"v": "v"}, {e: e for e in g.edges}, {"p1": True})
    return GraphAction(g, symreps.signed_permutation_group(n), maps)


def symmetric_cage(k: int) -> GraphAction:
    g = graphs.cage(k)
    labels = _index_labels("c", k)
    maps = {f"s{i}": _perm_aut(g, labels, _adjacent_swap(i, k))
            for i in range(1, k)}
    return GraphAction(g, symreps.symmetric_group(k), maps)


def alternating_cage(k: int) -> GraphAction:
    g = graphs.cage(k)
    labels = _index_labels("c", k)
    maps = {}
    for i in range(3, k + 1):
        perm = {m: v for m, v in enumerate(symreps.three_cycle(i, k), start=1)}
        maps[f"t{i}"] = _perm_aut(g, labels, perm)
    return GraphAction(g, symreps.alternating_group(k), maps)


def alternating_doubled_cage(k: int) -> GraphAction:
    """A_k on the 2k-cage acting the same way on both halves.

    Two edge orbits of size k; useful for the multiplicity-counting
    checks with several orbits.
    """
    g = graphs.cage(2 * k)
    labels = _index_labels("c", 2 * k)
    maps = {}
    for i in range(3, k + 1):
        cyc = symreps.three_cycle(i, k)
        perm = {m: cyc[m - 1] for m in range(1, k + 1)}
        perm.update({k + m: k + cyc[m - 1] for m in range(1, k + 1)})
        maps[f"t{i}"] = _perm_aut(g, labels, perm)
    return GraphAction(g, symreps.alternating_group(k), maps)


def trivial_action(graph: Graph) -> GraphAction:
    """The one-element group acting on anything."""
    return GraphAction(graph, symreps.trivial_group(), {})


def trivial_alternating_action(graph: Graph, k: int) -> GraphAction:
    """A_k acting trivially: every generator is the identity automorphism."""
    desc = symreps.alternating_group(k)
    maps = {name: graphs.identity_aut(graph) for name in desc.generators}
    return GraphAction(graph, desc, maps)


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
    base = symmetric_cage(k)
    maps = dict(base.maps)
    maps["delta"] = vertex_swap(base.graph)
    return GraphAction(base.graph, symreps.cage_group(k), maps)


def cage_central_alternating(k: int) -> GraphAction:
    """Alternating edge permutations of the k-cage together with the
    central vertex swap; the direct product A_k x Z_2."""
    base = alternating_cage(k)
    maps = dict(base.maps)
    maps["xi"] = vertex_swap(base.graph)
    desc = symreps.with_central_involution(symreps.alternating_group(k))
    return GraphAction(base.graph, desc, maps)


def petal_flip_involution(g: Graph) -> GraphAut:
    """Reverse every petal of a rose, fixing the vertex."""
    if len(g.vertices) != 1 or not all(g.is_loop(e) for e in g.edges):
        raise ValueError("petal flip is defined on roses")
    return GraphAut(g, {v: v for v in g.vertices}, {e: e for e in g.edges},
                    {e: True for e in g.edges})


def strand_swap(g: Graph) -> GraphAut:
    """Swap the two strands of every doubled edge of a daisy chain."""
    emap = {}
    for e in g.edges:
        name = str(e)
        if name.endswith("a"):
            emap[e] = name[:-1] + "b"
        elif name.endswith("b"):
            emap[e] = name[:-1] + "a"
        else:
            raise ValueError("strand swap is defined on daisy chains")
    return GraphAut(g, {v: v for v in g.vertices}, emap, {})


def parity_involution(n: int) -> "GraphAut":
    """The distinguished central-type involution on the (n+1)-cage.

    For even n it is the vertex swap; for odd n the vertex swap composed
    with the transposition of the first two edges.
    """
    g = graphs.cage(n + 1)
    swap = vertex_swap(g)
    if n % 2 == 0:
        return swap
    labels = _index_labels("c", n + 1)
    trans = _perm_aut(g, labels, _adjacent_swap(1, n + 1))
    return swap * trans


def branching_check(n: int) -> dict:
    """Restrict the (n+1)-letter standard module to n letters.

    The standard module is realised concretely on the cycle space of
    the graph with two vertices and n+1 parallel edges; restriction to
    the subgroup fixing the last edge must contain the standard and
    trivial modules once each and nothing else.

    For n = 3 the signed standard module has the same character as the
    standard one (the partition (2,1) is self-conjugate), so it is
    excluded from the "nothing else" clause there.
    """
    if n < 3:
        raise ValueError("needs rank at least 3")
    big = graphs.induced_rep(symmetric_cage(n + 1))
    if not big.verify_relations():
        raise AssertionError("cage action fails its defining relations")
    small = symreps.FiniteRep(
        symreps.symmetric_group(n), big.dim,
        {f"s{i}": big.generators[f"s{i}"] for i in range(1, n)},
    )
    if not small.verify_relations():
        raise AssertionError("restricted rep fails its defining relations")
    expected = {"standard": 1, "trivial": 1, "determinant": 0, "signed_standard": 0}
    got = {}
    for name in expected:
        if n == 3 and name == "signed_standard":
            continue
        got[name] = symreps.multiplicity(small, name, n)
    ok = all(got[k] == v for k, v in expected.items() if k in got)
    return {"n": n, "multiplicities": got, "ok": ok}
