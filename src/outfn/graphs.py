"""Finite multigraphs, finite group actions on them, and cycle-space
homology.

A graph is a finite set of vertices and directed edges (loops and
parallel edges allowed); orientation is the ordered pair (iota, tau) of
endpoints.  The first homology over the rationals is realised as edge
weightings balanced at every vertex, i.e. the kernel of the incidence
matrix, and group elements act on it through signed edge permutations:
an edge mapped with a reversed orientation picks up a minus sign.

On top of that sit the combinatorial certificates used by the rest of
the package, each polynomial in the size of the graph and in the number
of generators of the acting group: admissibility via forest edge
orbits, minimal-loop lengths by breadth-first search and the
obstruction witnesses built from them, loop-flipping involutions checked
on a cycle basis, and the splitting of a graph into two trees exchanged
by such an involution.  Trivial multiplicities and equivariant
orientations come from the generators alone: a vector is fixed by the
group exactly when every generator fixes it, and an invariant
orientation exists exactly when the generators never carry an edge's
two darts (its two oriented copies) into one orbit.  The cage lemma's
perfectness check grows the commutator subgroup as a stabiliser chain
from the generators; no check lists the group.
"""

from __future__ import annotations

import itertools

from .linalg import Matrix
from .symreps import FiniteRep, GroupDescriptor


# ---------------------------------------------------------------------------
# graphs


def _union_find(items):
    """Disjoint sets over ``items``; returns the pair ``(find, union)``.

    ``union(a, b)`` merges the class of a into the class of b and returns
    False when both already lie in one class.
    """
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b) -> bool:
        a, b = find(a), find(b)
        if a == b:
            return False
        parent[a] = b
        return True

    return find, union


class Graph:
    __slots__ = ("vertices", "edges", "ends")

    def __init__(self, vertices: tuple, edges: tuple, ends: dict):
        self.vertices = vertices
        self.edges = edges
        self.ends = ends  # edge -> (iota, tau)
        vset = set(vertices)
        if len(vset) != len(vertices):
            raise ValueError("duplicate vertex ids")
        if len(set(edges)) != len(edges):
            raise ValueError("duplicate edge ids")
        for kind, ids in (("vertex", vertices), ("edge", edges)):
            printed = {}
            for x in ids:
                if printed.setdefault(str(x), x) != x:
                    raise ValueError(f"{kind} ids {printed[str(x)]!r} and {x!r} print alike")
        for e in edges:
            io, ta = ends[e]
            if io not in vset or ta not in vset:
                raise ValueError(f"edge {e!r} has a missing endpoint")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.vertices, self.edges, self.ends)
                == (other.vertices, other.edges, other.ends))

    def iota(self, e):
        return self.ends[e][0]

    def tau(self, e):
        return self.ends[e][1]

    def is_loop(self, e) -> bool:
        io, ta = self.ends[e]
        return io == ta

    def valence(self, v) -> int:
        total = 0
        for e in self.edges:
            io, ta = self.ends[e]
            total += (io == v) + (ta == v)
        return total

    def edges_at(self, v) -> list:
        return [e for e in self.edges if v in self.ends[e]]

    def component_count(self) -> int:
        find, union = _union_find(self.vertices)
        for e in self.edges:
            union(*self.ends[e])
        return len({find(v) for v in self.vertices})

    def is_connected(self) -> bool:
        return self.component_count() <= 1

    def rank(self) -> int:
        return len(self.edges) - len(self.vertices) + self.component_count()

    def incidence_matrix(self) -> Matrix:
        """Rows indexed by vertices, columns by edges; tau minus iota.

        Loop columns vanish, so the kernel is exactly the space of edge
        weightings balanced at every vertex.
        """
        vindex = {v: i for i, v in enumerate(self.vertices)}
        rows = [[0] * len(self.edges) for _ in self.vertices]
        for j, e in enumerate(self.edges):
            io, ta = self.ends[e]
            rows[vindex[ta]][j] += 1
            rows[vindex[io]][j] -= 1
        return Matrix(rows, cols=len(self.edges))

    def to_json(self):
        return {
            "vertices": list(self.vertices),
            "edges": [{"id": e, "iota": self.ends[e][0], "tau": self.ends[e][1]}
                      for e in self.edges],
        }

    @classmethod
    def from_json(cls, obj) -> "Graph":
        edges = [rec["id"] for rec in obj["edges"]]
        ends = {rec["id"]: (rec["iota"], rec["tau"]) for rec in obj["edges"]}
        return cls(tuple(obj["vertices"]), tuple(edges), ends)


def make_graph(vertices, edge_records) -> Graph:
    """Build a graph from ``(id, iota, tau)`` triples."""
    edges = tuple(e for e, _, _ in edge_records)
    ends = {e: (io, ta) for e, io, ta in edge_records}
    return Graph(tuple(vertices), edges, ends)


# -- builders ----------------------------------------------------------------


def rose(n: int) -> Graph:
    """One vertex, n loops."""
    if n < 1:
        raise ValueError("a rose needs at least one petal")
    return make_graph(["v"], [(f"p{i}", "v", "v") for i in range(1, n + 1)])


def cage(n: int) -> Graph:
    """Two vertices joined by n parallel edges, all directed alike."""
    if n < 1:
        raise ValueError("a cage needs at least one edge")
    return make_graph(["u", "w"], [(f"c{i}", "u", "w") for i in range(1, n + 1)])


def daisy_chain(k: int) -> Graph:
    """A k-cycle with every edge doubled."""
    if k < 2:
        raise ValueError("a daisy chain needs at least two joints")
    verts = [f"v{i}" for i in range(1, k + 1)]
    recs = []
    for i in range(1, k + 1):
        a, b = f"v{i}", f"v{i % k + 1}"
        recs.append((f"d{i}a", a, b))
        recs.append((f"d{i}b", a, b))
    return make_graph(verts, recs)


def barbell() -> Graph:
    """Two loops joined by a bridge; the bridge separates."""
    return make_graph(["u", "w"],
                      [("lu", "u", "u"), ("lw", "w", "w"), ("b", "u", "w")])


def cover_of_rose(n: int) -> Graph:
    """The connected 2-fold cover of the n-rose trivialised off the last petal.

    Two vertices; the last petal lifts to the two connecting edges, the
    other petals lift to a loop at each vertex.  Rank is 2n - 1.
    """
    if n < 2:
        raise ValueError("needs rank at least 2")
    recs = []
    for i in range(1, n):
        recs.append((f"x{i}", "o0", "o0"))
        recs.append((f"y{i}", "o1", "o1"))
    recs.append(("n0", "o0", "o1"))
    recs.append(("n1", "o1", "o0"))
    return make_graph(["o0", "o1"], recs)


# ---------------------------------------------------------------------------
# graph automorphisms and actions


class GraphAut:
    """A graph automorphism with per-edge orientation bookkeeping.

    ``flips[e]`` is True when the image of e carries the reversed
    orientation, i.e. iota(g.e) = g.tau(e) instead of g.iota(e).
    """

    __slots__ = ("graph", "vmap", "emap", "flips")

    def __init__(self, graph: Graph, vmap: dict, emap: dict, flips: dict):
        self.graph = graph
        self.vmap = vmap
        self.emap = emap
        self.flips = flips
        if set(vmap) != set(graph.vertices) or set(vmap.values()) != set(graph.vertices):
            raise ValueError("vertex map is not a permutation")
        if set(emap) != set(graph.edges) or set(emap.values()) != set(graph.edges):
            raise ValueError("edge map is not a permutation")
        unknown = set(flips) - set(graph.edges)
        if unknown:
            raise ValueError(f"flips name unknown edges: {sorted(map(str, unknown))}")
        for e in graph.edges:
            io, ta = graph.ends[e]
            im_io, im_ta = graph.ends[emap[e]]
            flip = bool(flips.get(e, False))
            want = (vmap[ta], vmap[io]) if flip else (vmap[io], vmap[ta])
            if (im_io, im_ta) != want:
                raise ValueError(f"incidence equivariance fails at edge {e!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.graph, self.vmap, self.emap, self.flips)
                == (other.graph, other.vmap, other.emap, other.flips))

    def flip(self, e) -> bool:
        return bool(self.flips.get(e, False))

    def __mul__(self, other: "GraphAut") -> "GraphAut":
        """Composition: other first, then self."""
        if self.graph != other.graph:
            raise ValueError("automorphisms of different graphs")
        g = self.graph
        vmap = {v: self.vmap[other.vmap[v]] for v in g.vertices}
        emap = {e: self.emap[other.emap[e]] for e in g.edges}
        flips = {e: other.flip(e) ^ self.flip(other.emap[e]) for e in g.edges}
        return GraphAut(g, vmap, emap, flips)

    def is_identity(self) -> bool:
        return (all(v == w for v, w in self.vmap.items())
                and all(e == f for e, f in self.emap.items())
                and not any(self.flips.values()))

    def to_json(self):
        return {
            "vertex_map": {str(k): v for k, v in self.vmap.items()},
            "edge_map": {str(k): v for k, v in self.emap.items()},
            "flips": {str(e): bool(f) for e, f in self.flips.items() if f},
        }


def identity_aut(graph: Graph) -> GraphAut:
    return GraphAut(graph, {v: v for v in graph.vertices},
                    {e: e for e in graph.edges}, {})


def _darts(graph: Graph) -> dict:
    """The point of the dart (e, +1) of each edge e; (e, -1) is the next."""
    return {e: len(graph.vertices) + 2 * j for j, e in enumerate(graph.edges)}


def _points(aut: GraphAut) -> tuple:
    """The automorphism as a faithful permutation of the vertices (points
    0 to |V| - 1, in graph order) and the darts: the dart (e, d) goes to
    (g.e, d), or to (g.e, -d) when g flips e."""
    g, dart = aut.graph, _darts(aut.graph)
    image = [g.vertices.index(aut.vmap[v]) for v in g.vertices]
    for e in g.edges:
        d = dart[aut.emap[e]]
        image += [d + 1, d] if aut.flip(e) else [d, d + 1]
    return tuple(image)


def _then(a: tuple, b: tuple) -> tuple:
    """The point permutation a followed by b."""
    return tuple(b[p] for p in a)


def _inverse(a: tuple) -> tuple:
    return tuple(sorted(range(len(a)), key=a.__getitem__))


def _sift(chain: list, g: tuple, level: int = 0) -> tuple:
    """g stripped through the chain from ``level`` on, and the level whose
    orbit it left (``len(chain)`` when it left none)."""
    for i in range(level, len(chain)):
        base, _, back = chain[i]
        if g[base] not in back:
            return g, i
        g = _then(g, back[g[base]])
    return g, len(chain)


def _closure(gens: list, by: list) -> list:
    """A stabiliser chain of the least group that holds ``gens`` and is
    normalised by every permutation in ``by``.

    Level i is (base point, generators, transversal); its group fixes the
    base points above it, and the transversal maps each orbit point q to
    the inverse of an element carrying the base to q.  A residue left at
    level ``stop`` joins the levels from the one it entered to ``stop``;
    each extends its orbit and queues its new Schreier generators for the
    next level, and level 0 also queues the residue's conjugates by ``by``.
    """
    chain: list = []
    todo = [(0, g) for g in gens]
    while todo:
        level, h = todo.pop()
        h, stop = _sift(chain, h, level)
        identity = tuple(range(len(h)))
        if h == identity:
            continue
        if level == 0:
            todo += [(0, _then(_then(_inverse(b), h), b)) for b in by]
        if stop == len(chain):
            base = next(p for p in identity if h[p] != p)
            chain.append((base, [], {base: identity}))
        for i in range(level, stop + 1):
            base, strong, back = chain[i]
            strong.append(h)
            orbit, known = list(back), len(back)
            for k, p in enumerate(orbit):  # the orbit grows while it is read
                u = _inverse(back[p])
                for s in strong if k >= known else [h]:
                    us = _then(u, s)
                    if us[base] in back:
                        todo.append((i + 1, _then(us, back[us[base]])))
                    else:
                        back[us[base]] = _inverse(us)
                        orbit.append(us[base])
    return chain


def graph_aut_from_json(graph: Graph, obj) -> GraphAut:
    """Inverse of ``GraphAut.to_json``: JSON keys are strings, so each key
    is read back as the vertex or edge id that prints as it."""
    vids = {str(v): v for v in graph.vertices}
    eids = {str(e): e for e in graph.edges}
    return GraphAut(
        graph,
        {vids.get(k, k): v for k, v in obj["vertex_map"].items()},
        {eids.get(k, k): v for k, v in obj["edge_map"].items()},
        {eids.get(k, k): bool(v) for k, v in obj.get("flips", {}).items()},
    )


class GraphAction:
    """A group acting on a graph through named generator automorphisms."""

    __slots__ = ("graph", "group", "maps")

    def __init__(self, graph: Graph, group: GroupDescriptor, maps: dict):
        self.graph = graph
        self.group = group
        self.maps = maps  # generator name -> GraphAut
        for name in group.generators:
            if name not in maps:
                raise ValueError(f"no automorphism supplied for generator {name!r}")

    def aut_of(self, word) -> GraphAut:
        acc = identity_aut(self.graph)
        for name in word:
            acc = acc * self.maps[name]
        return acc

    def failed_relations(self) -> list:
        return [rel for rel in self.group.relations
                if not self.aut_of(rel).is_identity()]

    def verify_relations(self) -> bool:
        return not self.failed_relations()

    def edge_orbits(self) -> list:
        """Orbits of edges, each sorted by ``str``, in the graph order of
        their first edges."""
        find, union = _union_find(self.graph.edges)
        for name in self.group.generators:
            for e, f in self.maps[name].emap.items():
                union(e, f)
        orbits: dict = {}
        for e in self.graph.edges:
            orbits.setdefault(find(e), []).append(e)
        return [sorted(orbit, key=str) for orbit in orbits.values()]

    def to_json(self):
        return {
            "group": self.group.to_json(),
            "maps": {name: aut.to_json() for name, aut in self.maps.items()},
        }


def action_from_json(graph: Graph, obj) -> GraphAction:
    group = GroupDescriptor.from_json(obj["group"])
    maps = {name: graph_aut_from_json(graph, rec)
            for name, rec in obj["maps"].items()}
    return GraphAction(graph, group, maps)


# ---------------------------------------------------------------------------
# homology


class CycleBasis:
    """A basis of the balanced edge weightings, one column per cycle."""

    __slots__ = ("graph", "matrix")

    def __init__(self, graph: Graph, matrix: Matrix):
        self.graph = graph
        self.matrix = matrix  # |E| x dim
        if matrix.rows != len(graph.edges):
            raise ValueError("column length must match the edge count")
        if not (graph.incidence_matrix() * matrix).is_zero():
            raise ValueError("columns are not balanced at every vertex")
        if matrix.cols != graph.rank():
            raise ValueError("wrong number of independent cycles")

    @property
    def dim(self) -> int:
        return self.matrix.cols


def h1_basis(graph: Graph) -> CycleBasis:
    """Exact kernel of the incidence matrix."""
    return CycleBasis(graph, graph.incidence_matrix().kernel_basis())


def signed_edge_matrix(aut: GraphAut) -> Matrix:
    """Push-forward of edge weightings; orientation reversal negates."""
    g = aut.graph
    eindex = {e: i for i, e in enumerate(g.edges)}
    m = [[0] * len(g.edges) for _ in g.edges]
    for e in g.edges:
        m[eindex[aut.emap[e]]][eindex[e]] = -1 if aut.flip(e) else 1
    return Matrix(m, cols=len(g.edges))


def induced_matrix(aut: GraphAut, basis: CycleBasis) -> Matrix:
    """Matrix of the automorphism on homology, in the given cycle basis."""
    if basis.dim == 0:
        raise ValueError("homology is trivial; no induced matrix")
    pushed = signed_edge_matrix(aut) * basis.matrix
    coords = basis.matrix.solve(pushed)
    if coords is None:
        raise AssertionError("pushed cycle left the cycle space")
    return coords


def induced_rep(action: GraphAction) -> FiniteRep:
    """Package the homology action of every generator as a matrix rep."""
    basis = h1_basis(action.graph)
    gens = {name: induced_matrix(aut, basis) for name, aut in action.maps.items()}
    return FiniteRep(action.group, basis.dim, gens)


def trivial_multiplicity(action: GraphAction) -> int:
    """Multiplicity of the trivial module in the homology action.

    The vectors fixed by the group are those fixed by every generator.
    The cycle basis B has full column rank, so B x is fixed by s exactly
    when (P_s B - B) x = 0, with P_s the signed edge matrix of s; the
    multiplicity is dim H1 minus the rank of those blocks stacked over
    the generators.
    """
    cycles = h1_basis(action.graph).matrix
    moved = []
    for name in action.group.generators:
        moved += (signed_edge_matrix(action.maps[name]) * cycles - cycles).data
    return cycles.cols - Matrix(moved, cols=cycles.cols).rank()


# ---------------------------------------------------------------------------
# collapsing


class CollapseResult:
    __slots__ = ("quotient", "cycle_map", "source_basis", "quotient_basis")

    def __init__(self, quotient: Graph, cycle_map: Matrix,
                 source_basis: CycleBasis, quotient_basis: CycleBasis):
        self.quotient = quotient
        self.cycle_map = cycle_map    # quotient cycle coords x source cycle coords
        self.source_basis = source_basis
        self.quotient_basis = quotient_basis


def collapse(graph: Graph, edge_subset) -> CollapseResult:
    """Collapse each component of the chosen subgraph to a point.

    The induced map on cycle spaces forgets the collapsed coordinates:
    column j of ``cycle_map`` holds the quotient coordinates of the
    surviving rows of source cycle j.  The map is onto the quotient's
    cycle space; deciding that is left to the caller.
    """
    chosen = set(edge_subset)
    unknown = chosen - set(graph.edges)
    if unknown:
        raise ValueError(f"unknown edges: {sorted(map(str, unknown))}")
    find, union = _union_find(graph.vertices)
    for e in chosen:
        union(*graph.ends[e])
    new_vertices = tuple(sorted({find(v) for v in graph.vertices}, key=str))
    survivors = [e for e in graph.edges if e not in chosen]
    recs = [(e, find(graph.iota(e)), find(graph.tau(e))) for e in survivors]
    quotient = make_graph(new_vertices, recs)

    src = h1_basis(graph)
    dst = h1_basis(quotient)
    eindex = {e: i for i, e in enumerate(graph.edges)}
    pushed = Matrix([src.matrix.data[eindex[e]] for e in survivors], cols=src.dim)
    cycle_map = dst.matrix.solve(pushed)
    if cycle_map is None:
        raise AssertionError("projected cycle is not balanced downstairs")
    return CollapseResult(quotient, cycle_map, src, dst)


# ---------------------------------------------------------------------------
# minimal loops


def min_loop_through_edge(graph: Graph, e) -> int | None:
    """Length of the shortest simple loop through e; None if e separates.

    A loop edge is a loop of length one; otherwise the shortest loop is
    e followed by a shortest path between its endpoints avoiding e.
    """
    if e not in graph.ends:
        raise ValueError(f"unknown edge {e!r}")
    start, goal = graph.ends[e]
    if start == goal:
        return 1
    neighbours = {v: [] for v in graph.vertices}
    for f in graph.edges:
        if f != e:
            a, b = graph.ends[f]
            neighbours[a].append(b)
            neighbours[b].append(a)
    distance = {start: 0}
    queue = [start]
    for v in queue:  # the queue grows while it is read: breadth first
        for w in neighbours[v]:
            if w not in distance:
                distance[w] = distance[v] + 1
                queue.append(w)
    return distance[goal] + 1 if goal in distance else None


def separating_edges(graph: Graph) -> list:
    return [e for e in graph.edges if min_loop_through_edge(graph, e) is None]


def admissibility_obstruction(graph: Graph):
    """A witness (edge, endpoint) ruling out admissibility, or None.

    The witness property: every other edge meeting the chosen endpoint
    has a different minimal simple-loop length than the witness edge.
    Separating edges are skipped here; they are a diagnosis of their
    own (see ``separating_edges``).
    """
    table = {e: min_loop_through_edge(graph, e) for e in graph.edges}
    for e in graph.edges:
        if table[e] is None:
            continue
        for x in dict.fromkeys(graph.ends[e]):
            others = [f for f in graph.edges_at(x) if f != e]
            if all(table[f] != table[e] for f in others):
                return (e, x)
    return None


# ---------------------------------------------------------------------------
# admissibility


def is_forest(graph: Graph, edge_subset) -> bool:
    # a loop edge, or an edge inside one component, closes a cycle
    _, union = _union_find(graph.vertices)
    return all(union(*graph.ends[e]) for e in edge_subset)


def invariant_forests(action: GraphAction) -> list:
    """The edge orbits that are forests, each sorted.

    Every invariant edge set is a union of orbits, and every subset of
    a forest is a forest, so there is a nonempty invariant forest
    exactly when this list is nonempty.
    """
    return [o for o in action.edge_orbits() if is_forest(action.graph, o)]


def is_admissible(action: GraphAction) -> bool:
    """Connected, no valence-2 vertices, and no invariant nontrivial forest."""
    g = action.graph
    if not g.is_connected():
        return False
    if any(g.valence(v) == 2 for v in g.vertices):
        return False
    return not invariant_forests(action)


# ---------------------------------------------------------------------------
# loop-flipping involutions and the double tree


def flips_all_simple_loops(graph: Graph, xi: GraphAut) -> bool:
    """Does the involution send every simple loop to itself reversed?

    A loop is flipped exactly when its edge vector is negated by the
    signed push-forward; simple loops span the cycle space, so this
    holds for all of them exactly when it holds on a cycle basis.
    """
    if xi.graph != graph:
        raise ValueError("xi is an automorphism of another graph")
    if not (xi * xi).is_identity():
        raise ValueError("xi must be an involution")
    cycles = h1_basis(graph).matrix
    return signed_edge_matrix(xi) * cycles == -cycles


class DoubleTree:
    """Splitting of a graph along the fixed set of a loop-flipping involution.

    All data lives on the subdivided graph in which every edge inverted
    by the involution has been cut at its midpoint.
    """

    __slots__ = ("subdivided", "xi", "d_vertices", "d_edges", "f_vertices", "f_edges")

    def __init__(self, subdivided: Graph, xi: GraphAut, d_vertices: frozenset,
                 d_edges: frozenset, f_vertices: frozenset, f_edges: frozenset):
        self.subdivided = subdivided
        self.xi = xi
        self.d_vertices = d_vertices
        self.d_edges = d_edges
        self.f_vertices = f_vertices
        self.f_edges = f_edges

    def d_prime_edges(self) -> frozenset:
        return frozenset(self.xi.emap[e] for e in self.d_edges)

    def d_prime_vertices(self) -> frozenset:
        return frozenset(self.xi.vmap[v] for v in self.d_vertices)

    def conclusions(self) -> dict:
        """Structural check of the four claims describing the splitting."""
        g = self.subdivided
        d_sub = _subgraph(g, self.d_vertices, self.d_edges)
        dp_edges = self.d_prime_edges()
        dp_vertices = self.d_prime_vertices()
        dp_sub = _subgraph(g, dp_vertices, dp_edges)
        tree = d_sub.is_connected() and len(d_sub.edges) == len(d_sub.vertices) - 1
        mirror_tree = (dp_sub.is_connected()
                       and len(dp_sub.edges) == len(dp_sub.vertices) - 1)
        union = (self.d_vertices | dp_vertices == set(g.vertices)
                 and self.d_edges | dp_edges == set(g.edges))
        inter = (self.d_vertices & dp_vertices == self.f_vertices
                 and self.d_edges & dp_edges == self.f_edges)
        return {"d_is_tree": tree, "union_covers": union,
                "intersection_is_fixed_set": inter, "mirror_is_tree": mirror_tree}


def _subgraph(graph: Graph, vertices, edges) -> Graph:
    recs = [(e, graph.iota(e), graph.tau(e)) for e in graph.edges if e in edges]
    return make_graph(sorted(vertices, key=str), recs)


def subdivide_inverted_edges(graph: Graph, xi: GraphAut):
    """Cut every xi-inverted edge at its midpoint.

    Returns the subdivided graph, the lifted involution, and the set of
    new midpoint vertices.  After the cut no edge is both fixed and
    orientation-reversed, so the fixed set is a subcomplex.
    """
    inverted = [e for e in graph.edges if xi.emap[e] == e and xi.flip(e)]
    verts = list(graph.vertices) + [("mid", e) for e in inverted]
    recs = []
    for e in graph.edges:
        if e in inverted:
            recs.append((("half", e, 0), graph.iota(e), ("mid", e)))
            recs.append((("half", e, 1), ("mid", e), graph.tau(e)))
        else:
            recs.append((e, graph.iota(e), graph.tau(e)))
    sub = make_graph(verts, recs)

    vmap = {v: xi.vmap[v] for v in graph.vertices}
    for e in inverted:
        vmap[("mid", e)] = ("mid", e)
    emap = {}
    flips = {}
    for e in graph.edges:
        if e in inverted:
            # the two halves are exchanged, each reversing direction
            emap[("half", e, 0)] = ("half", e, 1)
            emap[("half", e, 1)] = ("half", e, 0)
            flips[("half", e, 0)] = True
            flips[("half", e, 1)] = True
        else:
            target = xi.emap[e]
            if target in inverted:
                raise AssertionError("involution maps a plain edge to a cut edge")
            emap[e] = target
            flips[e] = xi.flip(e)
    lifted = GraphAut(sub, vmap, emap, flips)
    return sub, lifted, frozenset(("mid", e) for e in inverted)


def double_tree_decomposition(graph: Graph, xi: GraphAut) -> DoubleTree | None:
    """Split the graph into a tree and its mirror image under xi.

    None when xi does not flip every simple loop; otherwise the graph
    must be connected and have an edge.  The complement of the fixed set
    falls apart into components paired off by xi; one component per
    pair, together with the fixed set, forms D.  The lemma says D and
    xi.D are trees, D union xi.D is the whole graph and D intersect xi.D
    is the fixed set; ``DoubleTree.conclusions`` tests these four claims,
    and deciding them is left to the caller.
    """
    if not flips_all_simple_loops(graph, xi):
        return None
    if not graph.is_connected():
        raise ValueError("graph must be connected")
    if not graph.edges:
        raise ValueError("graph must have at least one edge")

    sub, lifted, midpoints = subdivide_inverted_edges(graph, xi)
    f_vertices = frozenset(v for v in sub.vertices if lifted.vmap[v] == v)
    f_edges = frozenset(e for e in sub.edges
                        if lifted.emap[e] == e and not lifted.flip(e))

    movable = [e for e in sub.edges if e not in f_edges]
    find, union = _union_find(movable)
    by_vertex: dict = {}
    for e in movable:
        for v in sub.ends[e]:
            if v not in f_vertices:
                by_vertex.setdefault(v, []).append(e)
    for group in by_vertex.values():
        for e in group[1:]:
            union(group[0], e)

    components: dict = {}
    for e in movable:
        components.setdefault(find(e), set()).add(e)

    comps = list(components.values())
    claimed = set()
    chosen = []
    for comp in sorted(comps, key=lambda c: sorted(map(str, c))):
        key = frozenset(comp)
        if key in claimed:
            continue
        mirror = frozenset(lifted.emap[e] for e in comp)
        if mirror == key:
            raise AssertionError("a complement component is xi-invariant")
        claimed.add(key)
        claimed.add(mirror)
        chosen.append(comp)

    d_edges = set(f_edges)
    for comp in chosen:
        d_edges |= comp
    d_vertices = set(f_vertices)
    for e in d_edges:
        d_vertices.update(sub.ends[e])
    # fixed vertices incident only to mirrored components still belong to D
    return DoubleTree(sub, lifted, frozenset(d_vertices), frozenset(d_edges),
                      f_vertices, f_edges)


# ---------------------------------------------------------------------------
# orientation equivariance on roses, and cage multiplicities


def invariant_orientation(action: GraphAction) -> dict:
    """Equivariant orientation data for a group acting on a rose.

    The generators permute the darts (e, +1) and (e, -1) of the edges,
    as in ``_points``.  Some element stabilises e and reverses it exactly
    when both darts of e lie in one orbit; the first such edge is the
    obstruction.  Otherwise the orientation gives e the sign +1 exactly
    when (e, +1) lies in the orbit of (rep, +1), rep being the first edge
    of e's orbit.  The orbit count equals the multiplicity of the trivial
    module in homology when the orientation exists; both are reported.
    """
    g = action.graph
    if len(g.vertices) != 1 or not all(g.is_loop(e) for e in g.edges):
        raise ValueError("orientation equivariance is implemented for roses")
    dart = _darts(g)
    find, union = _union_find(range(len(g.vertices) + 2 * len(g.edges)))
    for name in action.group.generators:
        for p, q in enumerate(_points(action.maps[name])):
            union(p, q)
    obstruction = next((e for e in g.edges if find(dart[e]) == find(dart[e] + 1)), None)
    orbits = action.edge_orbits()
    orientation = None
    if obstruction is None:
        rep = {e: orbit[0] for orbit in orbits for e in orbit}
        orientation = {e: 1 if find(dart[e]) == find(dart[rep[e]]) else -1
                       for e in g.edges}
    mult = trivial_multiplicity(action)
    return {
        "orientation": orientation,
        "obstruction_edge": obstruction,
        "orbit_count": len(orbits),
        "trivial_multiplicity": mult,
        "counts_match": obstruction is None and len(orbits) == mult,
    }


def is_perfect(action: GraphAction) -> bool:
    """Is the acting image its own commutator subgroup N?

    N is the normal closure of the generators' commutators, built as a
    stabiliser chain on the points of ``_points`` (Sims 1970; Seress,
    Permutation Group Algorithms, CUP 2003, ch. 4 and section 2.3).  The
    image is perfect exactly when every generator sifts into N.
    """
    gens = [_points(action.maps[name]) for name in action.group.generators]
    commutators = [_then(_then(a, b), _then(_inverse(a), _inverse(b)))
                   for a, b in itertools.combinations(gens, 2)]
    chain = _closure(commutators, gens)
    return all(_sift(chain, g)[0] == tuple(range(len(g))) for g in gens)


def cage_trivial_multiplicity_check(action: GraphAction) -> dict:
    """On a cage, trivial multiplicity must be the orbit count minus one.

    Stated for perfect acting groups (they cannot swap the two cage
    vertices); the acting image is checked to be perfect.  As for the
    other lemmas, the caller checks the action's defining relations.
    """
    g = action.graph
    if len(set(g.vertices)) != 2 or any(g.is_loop(e) for e in g.edges):
        raise ValueError("not a cage")
    if not is_perfect(action):
        raise ValueError("the acting image is not perfect")
    orbits = action.edge_orbits()
    mult = trivial_multiplicity(action)
    return {
        "orbit_count": len(orbits),
        "trivial_multiplicity": mult,
        "ok": mult == len(orbits) - 1,
    }
