"""Finite multigraphs, finite group actions on them, and cycle-space
homology.

A graph is a finite set of vertices and directed edges (loops and
parallel edges allowed); orientation is the ordered pair (iota, tau) of
endpoints.  The first homology over the rationals is realised as edge
weightings balanced at every vertex, i.e. the kernel of the incidence
matrix, which ``h1_basis`` returns as a plain ``Matrix`` (a row per
edge, a column per cycle); ``collapse`` returns the quotient graph and
the induced map on cycle spaces as a matrix.

A graph automorphism is read in one form, its permutation of the
vertices and darts (``GraphAut.points``, built once when it is
checked).  Relations and perfectness compose these permutations, edge
orbits and invariant orientations read one union-find over the
generators' points, and a cycle is pushed by moving each edge's row to
its image's row, negated when the image is reversed.

On top of that sit the certificates, each polynomial in the size of the
graph and in the number of generators: admissibility via forest edge
orbits, loop-flipping involutions checked on a cycle basis, the
splitting of a graph into two trees exchanged by such an involution,
and the trivial multiplicities and invariant orientations of the rose
and cage lemmas.  The cage lemma's perfectness check grows the
commutator subgroup as a stabiliser chain from the generators; no check
lists the group.
"""

from __future__ import annotations

import functools
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
    ``points`` is the same automorphism as a faithful permutation of the
    vertices (points 0 to |V| - 1, in graph order) and the darts, the
    dart (e_j, +1) of the j-th edge being point |V| + 2j and (e_j, -1)
    the next: (e, d) goes to (g.e, d), or to (g.e, -d) when g flips e.
    """

    __slots__ = ("graph", "vmap", "emap", "flips", "points")

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
        point = {v: i for i, v in enumerate(graph.vertices)}  # apart from dart: ids may coincide
        dart = {e: len(point) + 2 * j for j, e in enumerate(graph.edges)}
        points = [point[vmap[v]] for v in graph.vertices]
        for e in graph.edges:
            io, ta = graph.ends[e]
            im_io, im_ta = graph.ends[emap[e]]
            flip = bool(flips.get(e, False))
            want = (vmap[ta], vmap[io]) if flip else (vmap[io], vmap[ta])
            if (im_io, im_ta) != want:
                raise ValueError(f"incidence equivariance fails at edge {e!r}")
            d = dart[emap[e]]
            points += [d + 1, d] if flip else [d, d + 1]
        self.points = tuple(points)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.graph, self.vmap, self.emap, self.flips)
                == (other.graph, other.vmap, other.emap, other.flips))

    def flip(self, e) -> bool:
        return bool(self.flips.get(e, False))


def _then(a: tuple, b: tuple) -> tuple:
    """The point permutation a followed by b."""
    return tuple([b[p] for p in a])


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
    """The automorphism ``{"vertex_map", "edge_map", "flips"}`` of an
    action file.  JSON keys are strings, so each key is read back as the
    vertex or edge id that prints as it.  A flip must be a JSON boolean;
    an edge left out of ``flips`` keeps its orientation."""
    vids = {str(v): v for v in graph.vertices}
    eids = {str(e): e for e in graph.edges}
    flips = obj.get("flips", {})
    for k, v in flips.items():
        if not isinstance(v, bool):
            raise ValueError(f"flip of edge {k!r} is {v!r}, not true or false")
    return GraphAut(
        graph,
        {vids.get(k, k): v for k, v in obj["vertex_map"].items()},
        {eids.get(k, k): v for k, v in obj["edge_map"].items()},
        {eids.get(k, k): v for k, v in flips.items()},
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

    def failed_relations(self) -> list:
        """The relations whose words do not act as the identity, in order.

        A word acts as the composite of its letters, the rightmost applied
        first; it is folded over the generators' point permutations.
        """
        points = {name: self.maps[name].points for name in self.group.generators}
        identity = tuple(range(len(self.graph.vertices) + 2 * len(self.graph.edges)))
        return [rel for rel in self.group.relations
                if functools.reduce(_then, map(points.get, reversed(rel)), identity)
                != identity]

    def _dart_roots(self) -> dict:
        """Each edge's darts (e, +1) and (e, -1) as the roots of their
        orbits, in one union-find over the points of the generators."""
        g = self.graph
        find, union = _union_find(range(len(g.vertices) + 2 * len(g.edges)))
        for name in self.group.generators:
            for p, q in enumerate(self.maps[name].points):
                union(p, q)
        darts = range(len(g.vertices), len(g.vertices) + 2 * len(g.edges), 2)
        return {e: (find(d), find(d + 1)) for e, d in zip(g.edges, darts)}

    def edge_orbits(self) -> list:
        """Orbits of edges, each sorted by ``str``, in the graph order of
        their first edges.  The darts of an edge orbit fill one or two dart
        orbits and no others, so the smaller root of its darts names it."""
        orbits: dict = {}
        for e, darts in self._dart_roots().items():
            orbits.setdefault(min(darts), []).append(e)
        return [sorted(orbit, key=str) for orbit in orbits.values()]


def action_from_json(graph: Graph, obj) -> GraphAction:
    group = GroupDescriptor.from_json(obj["group"])
    maps = {name: graph_aut_from_json(graph, rec)
            for name, rec in obj["maps"].items()}
    return GraphAction(graph, group, maps)


# ---------------------------------------------------------------------------
# homology


def h1_basis(graph: Graph) -> Matrix:
    """Exact kernel of the incidence matrix: one row per edge, one column
    per cycle."""
    return graph.incidence_matrix().kernel_basis()


def push(aut: GraphAut, weights: Matrix) -> Matrix:
    """Edge weightings (a row per edge) pushed along the automorphism: the
    row of e goes to the row of g.e, negated when g flips e."""
    nv, rows = len(aut.graph.vertices), [None] * weights.rows
    for row, d in zip(weights.data, aut.points[nv::2]):  # the image of each (e, +1)
        rows[(d - nv) // 2] = [-x for x in row] if (d - nv) % 2 else row
    return Matrix(rows, cols=weights.cols)


def induced_matrix(aut: GraphAut, basis: Matrix) -> Matrix:
    """Matrix of the automorphism on homology, in the given cycle basis."""
    if basis.cols == 0:
        raise ValueError("homology is trivial; no induced matrix")
    coords = basis.solve(push(aut, basis))
    if coords is None:
        raise AssertionError("pushed cycle left the cycle space")
    return coords


def induced_rep(action: GraphAction) -> FiniteRep:
    """Package the homology action of every generator as a matrix rep."""
    basis = h1_basis(action.graph)
    gens = {name: induced_matrix(aut, basis) for name, aut in action.maps.items()}
    return FiniteRep(action.group, basis.cols, gens)


def trivial_multiplicity(action: GraphAction) -> int:
    """Multiplicity of the trivial module in the homology action.

    The vectors fixed by the group are those fixed by every generator.
    The cycle basis B has full column rank, so B x is fixed by s exactly
    when (s.B - B) x = 0, with s.B the push of B along s; the
    multiplicity is dim H1 minus the rank of those blocks stacked over
    the generators.
    """
    cycles = h1_basis(action.graph)
    moved = []
    for name in action.group.generators:
        moved += (push(action.maps[name], cycles) - cycles).data
    return cycles.cols - Matrix(moved, cols=cycles.cols).rank()


# ---------------------------------------------------------------------------
# collapsing


def collapse(graph: Graph, edge_subset) -> tuple:
    """Collapse each component of the chosen subgraph to a point; returns
    ``(quotient, cycle_map)``.

    The induced map on cycle spaces forgets the collapsed coordinates:
    column j of ``cycle_map`` holds the quotient coordinates of the
    surviving rows of source cycle j, so its columns count the source
    cycles and its rows the quotient's.  The map is onto the quotient's
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
    eindex = {e: i for i, e in enumerate(graph.edges)}
    pushed = Matrix([src.data[eindex[e]] for e in survivors], cols=src.cols)
    cycle_map = h1_basis(quotient).solve(pushed)
    if cycle_map is None:
        raise AssertionError("projected cycle is not balanced downstairs")
    return quotient, cycle_map


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


def admissibility_conditions(action: GraphAction) -> list:
    """The three conditions of admissibility, each as ``(name, holds,
    details)``: connected, no valence-2 vertices, and no invariant
    nontrivial forest.  A loop counts twice in its vertex's valence."""
    g = action.graph
    valences = dict.fromkeys(g.vertices, 0)
    for e in g.edges:
        io, ta = g.ends[e]
        valences[io] += 1
        valences[ta] += 1
    forests = invariant_forests(action)
    return [
        ("graph is connected", g.is_connected(), None),
        ("no valence-2 vertices", 2 not in valences.values(),
         {"valences": {str(v): k for v, k in valences.items()}}),
        ("no invariant nontrivial forest", not forests,
         {"forests": [list(map(str, f)) for f in forests]}),
    ]


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
    p = xi.points
    if _then(p, p) != tuple(range(len(p))):
        raise ValueError("xi must be an involution")
    cycles = h1_basis(graph)
    return push(xi, cycles) == -cycles


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
        dp_edges = self.d_prime_edges()
        dp_vertices = self.d_prime_vertices()
        # an acyclic edge set with ends in V and |V| - 1 edges spans V
        tree = is_forest(g, self.d_edges) and len(self.d_edges) == len(self.d_vertices) - 1
        mirror_tree = is_forest(g, dp_edges) and len(dp_edges) == len(dp_vertices) - 1
        union = (self.d_vertices | dp_vertices == set(g.vertices)
                 and self.d_edges | dp_edges == set(g.edges))
        inter = (self.d_vertices & dp_vertices == self.f_vertices
                 and self.d_edges & dp_edges == self.f_edges)
        return {"d_is_tree": tree, "union_covers": union,
                "intersection_is_fixed_set": inter, "mirror_is_tree": mirror_tree}


def subdivide_inverted_edges(graph: Graph, xi: GraphAut):
    """Cut every xi-inverted edge at its midpoint, in one pass over the edges.

    Returns the subdivided graph and the lifted involution, which fixes
    the midpoints and swaps the halves of each cut edge.  No uncut edge
    maps to a cut one: a cut edge is its own image, and ``GraphAut``
    checks that the edge map is a permutation.  After the cut no edge is
    both fixed and orientation-reversed, so the fixed set is a subcomplex.
    """
    verts, vmap = list(graph.vertices), dict(xi.vmap)
    recs, emap, flips = [], {}, {}
    for e in graph.edges:
        io, ta = graph.ends[e]
        if xi.emap[e] == e and xi.flip(e):
            mid, h0, h1 = ("mid", e), ("half", e, 0), ("half", e, 1)
            verts.append(mid)
            vmap[mid] = mid
            recs += [(h0, io, mid), (h1, mid, ta)]
            # the two halves are exchanged, each reversing direction
            emap[h0], emap[h1] = h1, h0
            flips[h0] = flips[h1] = True
        else:
            recs.append((e, io, ta))
            emap[e] = xi.emap[e]
            flips[e] = xi.flip(e)
    sub = make_graph(verts, recs)
    return sub, GraphAut(sub, vmap, emap, flips)


def double_tree_decomposition(graph: Graph, xi: GraphAut) -> DoubleTree | None:
    """Split the graph into a tree and its mirror image under xi.

    None when xi does not flip every simple loop; otherwise the graph
    must be connected and have an edge.  The complement of the fixed set
    falls apart into components paired off by xi; the first of each pair
    by sorted edge names, with the fixed set, forms D.  The lemma says D
    and xi.D are trees, D union xi.D is the whole graph and D intersect
    xi.D is the fixed set; ``DoubleTree.conclusions`` tests these four
    claims, and deciding them is left to the caller.
    """
    if not flips_all_simple_loops(graph, xi):
        return None
    if not graph.is_connected():
        raise ValueError("graph must be connected")
    if not graph.edges:
        raise ValueError("graph must have at least one edge")

    sub, lifted = subdivide_inverted_edges(graph, xi)
    f_vertices = frozenset(v for v in sub.vertices if lifted.vmap[v] == v)
    f_edges = frozenset(e for e in sub.edges
                        if lifted.emap[e] == e and not lifted.flip(e))

    movable = [e for e in sub.edges if e not in f_edges]
    find, union = _union_find(movable)
    first: dict = {}  # vertex off the fixed set -> first moved edge there
    for e in movable:
        for v in sub.ends[e]:
            if v not in f_vertices:
                union(first.setdefault(v, e), e)
    components: dict = {}
    for e in movable:
        components.setdefault(find(e), set()).add(e)

    # xi maps components to components, so a mirrored one is skipped whole
    d_edges, mirrored = set(f_edges), set()
    for comp in sorted(components.values(), key=lambda c: sorted(map(str, c))):
        if comp <= mirrored:
            continue
        mirror = {lifted.emap[e] for e in comp}
        if mirror == comp:
            raise AssertionError("a complement component is xi-invariant")
        mirrored |= mirror
        d_edges |= comp
    d_vertices = f_vertices.union(*(sub.ends[e] for e in d_edges))
    # fixed vertices incident only to mirrored components still belong to D
    return DoubleTree(sub, lifted, frozenset(d_vertices), frozenset(d_edges),
                      f_vertices, f_edges)


# ---------------------------------------------------------------------------
# orientation equivariance on roses, and cage multiplicities


def invariant_orientation(action: GraphAction) -> dict:
    """Equivariant orientation data for a group acting on a rose.

    The generators permute the darts (e, +1) and (e, -1) of the edges
    (see ``GraphAut``).  Some element stabilises e and reverses it exactly
    when both darts of e lie in one orbit; the first such edge is the
    obstruction.  Otherwise the orientation gives e the sign +1 exactly
    when (e, +1) lies in the orbit of (rep, +1), rep being the first edge
    of e's orbit.  The orbit count equals the multiplicity of the trivial
    module in homology when the orientation exists; both are reported.
    Any graph but a rose of at least one petal is refused.
    """
    g = action.graph
    if len(g.vertices) != 1 or not g.edges or not all(g.is_loop(e) for e in g.edges):
        raise ValueError("orientation equivariance is implemented for roses")
    roots = action._dart_roots()
    obstruction = next((e for e, (plus, minus) in roots.items() if plus == minus), None)
    rep = {}  # the name of each orbit -> its first edge by str
    for e in sorted(g.edges, key=str):
        rep.setdefault(min(roots[e]), e)
    orientation = None
    if obstruction is None:
        orientation = {e: 1 if plus == roots[rep[min(plus, minus)]][0] else -1
                       for e, (plus, minus) in roots.items()}
    mult = trivial_multiplicity(action)
    return {
        "orientation": orientation,
        "obstruction_edge": obstruction,
        "orbit_count": len(rep),
        "trivial_multiplicity": mult,
        "counts_match": obstruction is None and len(rep) == mult,
    }


def is_perfect(action: GraphAction) -> bool:
    """Is the acting image its own commutator subgroup N?

    N is the normal closure of the generators' commutators, built as a
    stabiliser chain on the generators' ``points`` (Sims 1970; Seress,
    Permutation Group Algorithms, CUP 2003, ch. 4 and section 2.3).  The
    image is perfect exactly when every generator sifts into N.
    """
    gens = [action.maps[name].points for name in action.group.generators]
    commutators = [_then(_then(a, b), _then(_inverse(a), _inverse(b)))
                   for a, b in itertools.combinations(gens, 2)]
    chain = _closure(commutators, gens)
    return all(_sift(chain, g)[0] == tuple(range(len(g))) for g in gens)


def cage_trivial_multiplicity_check(action: GraphAction) -> dict:
    """On a cage, trivial multiplicity must be the orbit count minus one.

    A cage is a graph of two vertices and at least one edge, none of them
    a loop; any other graph is refused.  The lemma is stated for perfect
    acting groups (they cannot swap the two cage vertices); the acting
    image is checked to be perfect.  As for the other lemmas, the caller
    checks the action's defining relations.
    """
    g = action.graph
    if len(g.vertices) != 2 or not g.edges or any(g.is_loop(e) for e in g.edges):
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
