"""Shared builders and independent oracles used across the tests."""

from __future__ import annotations

import argparse
import importlib.util
import itertools
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from outfn import cli, cover, graphs, linalg, symreps, words


def benchmark_inputs():
    """The benchmark's input writers, ``perfbench/inputs.py``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("benchmark_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def argparse_oracle() -> argparse.ArgumentParser:
    """The argparse tree that ``outfn`` once read its argv with: an
    independent reading of the same command table."""
    parser = argparse.ArgumentParser(
        prog="outfn",
        description="exact verification toolkit for outer automorphism "
                    "groups of free groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gersten", help="finite presentation relator suite")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cli.cmd_gersten)

    p = sub.add_parser("decompose",
                       help="eigenspace decomposition and containment laws "
                            "for a supplied matrix representation")
    p.add_argument("--rep", required=True)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cli.cmd_decompose)

    p = sub.add_parser("section4",
                       help="exact case tables for the double-cover "
                            "representation of the functional stabiliser")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cli.cmd_section4)

    p = sub.add_parser("induce",
                       help="build the induced representation, run the "
                            "relator suite and the non-factoring certificate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cli.cmd_induce)

    p = sub.add_parser("graph", help="graph-side checks")
    p.add_argument("subaction",
                   choices=["admissible", "homology", "rose-lemma",
                            "cage-lemma", "double-tree", "collapse"])
    p.add_argument("--builtin", default=None,
                   help="rose:N | cage:N | daisy:N | cover:N | barbell")
    p.add_argument("--group", default=None,
                   help="SN | AN | WN | GN | BN | trivial")
    p.add_argument("--xi", default=None,
                   help=" | ".join(cli._INVOLUTIONS))
    p.add_argument("--edges", default=None, help="comma separated edge ids")
    p.add_argument("--file", default=None)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cli.cmd_graph)

    return parser


def oracle_simple_cycles(g):
    """Simple cycles as edge subsets: every touched vertex has degree
    exactly two and the touched subgraph is connected.  Independent of
    the DFS enumeration in the library."""
    out = []
    for r in range(1, len(g.edges) + 1):
        for combo in itertools.combinations(g.edges, r):
            deg = {}
            for e in combo:
                io, ta = g.ends[e]
                deg[io] = deg.get(io, 0) + 1
                deg[ta] = deg.get(ta, 0) + 1
            if any(d != 2 for d in deg.values()):
                continue
            verts = list(deg)
            parent = {v: v for v in verts}

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            for e in combo:
                io, ta = g.ends[e]
                a, b = find(io), find(ta)
                if a != b:
                    parent[a] = b
            if len({find(v) for v in verts}) == 1:
                out.append(frozenset(combo))
    return out


def oracle_min_loop(g, e):
    lengths = [len(c) for c in oracle_simple_cycles(g) if e in c]
    return min(lengths) if lengths else None


@dataclass(frozen=True)
class SimpleLoop:
    """A simple loop: cyclic edge path repeating no vertex.

    ``steps`` lists (edge, direction) with direction +1 when the edge
    is traversed from iota to tau; loops of length one (a single loop
    edge) and two (a pair of parallel edges) are included.
    """

    steps: tuple
    edge_set: frozenset

    def __len__(self):
        return len(self.steps)

    def edge_vector(self, graph) -> list:
        v = [0] * len(graph.edges)
        index = {e: i for i, e in enumerate(graph.edges)}
        for e, d in self.steps:
            v[index[e]] += d
        return v


def simple_loops(graph) -> list:
    """Every simple loop, up to rotation and reversal, by depth-first
    walks from the lowest vertex of each loop; two loops are the same
    exactly when they use the same edge set."""
    loops = []
    seen = set()
    for e in graph.edges:
        if graph.is_loop(e):
            key = frozenset([e])
            if key not in seen:
                seen.add(key)
                loops.append(SimpleLoop(((e, 1),), key))

    order = {v: i for i, v in enumerate(graph.vertices)}
    at = {}
    for e in graph.edges:
        if not graph.is_loop(e):
            io, ta = graph.ends[e]
            at.setdefault(io, []).append((e, ta, 1))
            at.setdefault(ta, []).append((e, io, -1))

    def walk(start, current, used_edges, steps, visited):
        for e, other, d in at.get(current, ()):
            if e in used_edges:
                continue
            if other == start:
                if len(steps) >= 1:
                    key = frozenset(used_edges | {e})
                    if key not in seen:
                        seen.add(key)
                        loops.append(SimpleLoop(tuple(steps + [(e, d)]), key))
                continue
            if order[other] <= order[start] or other in visited:
                continue
            walk(start, other, used_edges | {e}, steps + [(e, d)],
                 visited | {other})

    for start in graph.vertices:
        walk(start, start, frozenset(), [], frozenset())

    loops.sort(key=lambda l: (len(l), sorted(map(str, l.edge_set))))
    return loops


def oracle_homology_trace(aut) -> int:
    """Trace of a graph automorphism on rational first homology.

    By the Hopf trace formula tr(g|H1) = tr(g|C1) - tr(g|C0) + tr(g|H0):
    fixed edges count +1, or -1 when reversed; fixed vertices count 1;
    components mapped to themselves count 1.
    """
    g = aut.graph
    component = {}
    for v in g.vertices:
        if v in component:
            continue
        component[v] = v
        stack = [v]
        while stack:
            x = stack.pop()
            for e in g.edges_at(x):
                for y in g.ends[e]:
                    if y not in component:
                        component[y] = v
                        stack.append(y)
    edges = sum(-1 if aut.flip(e) else 1 for e in g.edges if aut.emap[e] == e)
    vertices = sum(aut.vmap[v] == v for v in g.vertices)
    components = sum(component[aut.vmap[v]] == v
                     for v in g.vertices if component[v] == v)
    return edges - vertices + components


def oracle_subdivide_inverted_edges(graph, xi):
    """Cut every xi-inverted edge at its midpoint, in two passes over the
    edges: the subdivided graph, the lifted involution and the midpoints."""
    inverted = [e for e in graph.edges if xi.emap[e] == e and xi.flip(e)]
    verts = list(graph.vertices) + [("mid", e) for e in inverted]
    recs = []
    for e in graph.edges:
        if e in inverted:
            recs.append((("half", e, 0), graph.iota(e), ("mid", e)))
            recs.append((("half", e, 1), ("mid", e), graph.tau(e)))
        else:
            recs.append((e, graph.iota(e), graph.tau(e)))
    sub = graphs.make_graph(verts, recs)

    vmap = {v: xi.vmap[v] for v in graph.vertices}
    for e in inverted:
        vmap[("mid", e)] = ("mid", e)
    emap = {}
    flips = {}
    for e in graph.edges:
        if e in inverted:
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
    lifted = graphs.GraphAut(sub, vmap, emap, flips)
    return sub, lifted, frozenset(("mid", e) for e in inverted)


def oracle_double_tree(graph, xi):
    """The double tree built from per-vertex lists of the moved edges,
    choosing the components first and collecting D after."""
    if not graphs.flips_all_simple_loops(graph, xi):
        return None
    if not graph.is_connected():
        raise ValueError("graph must be connected")
    if not graph.edges:
        raise ValueError("graph must have at least one edge")

    sub, lifted, midpoints = oracle_subdivide_inverted_edges(graph, xi)
    f_vertices = frozenset(v for v in sub.vertices if lifted.vmap[v] == v)
    f_edges = frozenset(e for e in sub.edges
                        if lifted.emap[e] == e and not lifted.flip(e))

    movable = [e for e in sub.edges if e not in f_edges]
    find, union = graphs._union_find(movable)
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
    return graphs.DoubleTree(sub, lifted, frozenset(d_vertices), frozenset(d_edges),
                             f_vertices, f_edges)


def oracle_valence(graph, v) -> int:
    """Edge ends at v, from a scan of every edge; a loop counts twice."""
    return sum((io == v) + (ta == v) for io, ta in map(graph.ends.get, graph.edges))


def _aut_key(aut):
    g = aut.graph
    return (tuple(aut.vmap[v] for v in g.vertices),
            tuple(aut.emap[e] for e in g.edges),
            tuple(aut.flip(e) for e in g.edges))


def oracle_identity(graph):
    return graphs.GraphAut(graph, {v: v for v in graph.vertices},
                           {e: e for e in graph.edges}, {})


def oracle_is_identity(aut) -> bool:
    g = aut.graph
    return _aut_key(aut) == (g.vertices, g.edges, (False,) * len(g.edges))


def oracle_compose(a, b):
    """The automorphism a after b, composed on the vertex, edge and flip
    maps."""
    assert a.graph == b.graph, "automorphisms of different graphs"
    g = a.graph
    return graphs.GraphAut(g, {v: a.vmap[b.vmap[v]] for v in g.vertices},
                           {e: a.emap[b.emap[e]] for e in g.edges},
                           {e: b.flip(e) ^ a.flip(b.emap[e]) for e in g.edges})


def oracle_word_aut(action, word):
    """The automorphism a word names: its letters composed, the rightmost
    applied first."""
    acc = oracle_identity(action.graph)
    for name in word:
        acc = oracle_compose(acc, action.maps[name])
    return acc


def _aut_inverse(aut):
    g = aut.graph
    return graphs.GraphAut(g, {w: v for v, w in aut.vmap.items()},
                           {f: e for e, f in aut.emap.items()},
                           {aut.emap[e]: aut.flip(e) for e in g.edges})


def oracle_elements(action) -> list:
    """Every element of the generated group, as graph automorphisms, by
    closing the identity under left multiplication by the generators."""
    ident = oracle_identity(action.graph)
    found = {_aut_key(ident): ident}
    frontier = [ident]
    gens = [action.maps[name] for name in action.group.generators]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = oracle_compose(g, cur)
            k = _aut_key(nxt)
            if k not in found:
                found[k] = nxt
                frontier.append(nxt)
    return list(found.values())


def oracle_is_perfect(action) -> bool:
    """Is the enumerated group its own commutator subgroup?

    The commutator subgroup is the normal closure of the commutators of
    the generators.  The closure is grown from the identity by right
    multiplication with those commutators and conjugation by the
    generators, and stops once it has every element.
    """
    elements = oracle_elements(action)
    gens = [action.maps[name] for name in action.group.generators]
    inverses = [_aut_inverse(g) for g in gens]
    commutators = [oracle_compose(oracle_compose(gens[i], gens[j]),
                                  oracle_compose(inverses[i], inverses[j]))
                   for i in range(len(gens)) for j in range(i)]
    ident = oracle_identity(action.graph)
    found = {_aut_key(ident)}
    frontier = [ident]
    while frontier and len(found) < len(elements):
        cur = frontier.pop()
        images = [oracle_compose(cur, c) for c in commutators]
        images += [oracle_compose(oracle_compose(g, cur), gi)
                   for g, gi in zip(gens, inverses)]
        for nxt in images:
            k = _aut_key(nxt)
            if k not in found:
                found.add(k)
                frontier.append(nxt)
    return len(found) == len(elements)


def oracle_trivial_multiplicity(action) -> int:
    """The homology trace averaged over the enumerated group."""
    elements = oracle_elements(action)
    value, rest = divmod(sum(map(oracle_homology_trace, elements)), len(elements))
    assert rest == 0 and value >= 0
    return value


def oracle_orientation_obstruction(action):
    """The first edge, in graph order, that some enumerated element fixes
    and reverses; None when no element does."""
    reversed_edges = {e for aut in oracle_elements(action) for e in action.graph.edges
                      if aut.emap[e] == e and aut.flip(e)}
    return next((e for e in action.graph.edges if e in reversed_edges), None)


def oracle_edge_orbits(action) -> list:
    """Edge orbits by breadth-first search from each edge not yet seen,
    in graph order; each orbit sorted by ``str``."""
    gens = [action.maps[name] for name in action.group.generators]
    seen = set()
    orbits = []
    for e in action.graph.edges:
        if e in seen:
            continue
        orbit = {e}
        frontier = [e]
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = g.emap[cur]
                if nxt not in orbit:
                    orbit.add(nxt)
                    frontier.append(nxt)
        seen |= orbit
        orbits.append(sorted(orbit, key=str))
    return orbits


def _oracle_perm_aut(graph, prefix, perm):
    """Edge ``prefix<m>`` goes to ``prefix<perm[m]>``; other edges and
    every vertex are fixed."""
    emap = {e: e for e in graph.edges}
    for m, target in perm.items():
        emap[f"{prefix}{m}"] = f"{prefix}{target}"
    return graphs.GraphAut(graph, {v: v for v in graph.vertices}, emap, {})


def _oracle_swaps(graph, prefix, k) -> dict:
    maps = {}
    for i in range(1, k):
        perm = {m: m for m in range(1, k + 1)}
        perm[i], perm[i + 1] = i + 1, i
        maps[f"s{i}"] = _oracle_perm_aut(graph, prefix, perm)
    return maps


def _oracle_three_cycles(graph, prefix, k, blocks=1) -> dict:
    """t_i = (1 2 i) for i = 3..k, on each of ``blocks`` runs of k edges."""
    maps = {}
    for i in range(3, k + 1):
        perm = {}
        for b in range(blocks):
            perm.update({b * k + 1: b * k + 2, b * k + 2: b * k + i, b * k + i: b * k + 1})
        maps[f"t{i}"] = _oracle_perm_aut(graph, prefix, perm)
    return maps


def _oracle_vertex_swap(graph):
    return graphs.GraphAut(graph, {"u": "w", "w": "u"}, {e: e for e in graph.edges},
                           {e: True for e in graph.edges})


def oracle_builtin_action(name, letter, k):
    """``(generators, maps)`` of the builtin action of the group with
    the given letter (S, A, W, G, B) on ``rose:k`` or ``cage:k``, written
    out from the petal and cage-edge indices."""
    g = graphs.rose(k) if name == "rose" else graphs.cage(k)
    prefix = "p" if name == "rose" else "c"
    swaps, cycles = _oracle_swaps(g, prefix, k), _oracle_three_cycles(g, prefix, k)
    if letter == "S":
        return tuple(swaps), swaps
    if letter == "A":
        return tuple(cycles), cycles
    if letter == "W":
        e1 = graphs.GraphAut(g, {"v": "v"}, {e: e for e in g.edges}, {"p1": True})
        return ("e1",) + tuple(swaps), {**swaps, "e1": e1}
    if letter == "G":
        return ("delta",) + tuple(swaps), {**swaps, "delta": _oracle_vertex_swap(g)}
    assert letter == "B"
    return tuple(cycles) + ("xi",), {**cycles, "xi": _oracle_vertex_swap(g)}


def oracle_doubled_cage_maps(k) -> dict:
    """A_k on the 2k-cage, the same 3-cycles on both halves."""
    return _oracle_three_cycles(graphs.cage(2 * k), "c", k, blocks=2)


def oracle_parity_involution(n):
    """The vertex swap of the (n+1)-cage, after the swap of c1 and c2 at odd n."""
    g = graphs.cage(n + 1)
    if n % 2 == 0:
        return _oracle_vertex_swap(g)
    emap = {e: e for e in g.edges}
    emap["c1"], emap["c2"] = "c2", "c1"
    return oracle_compose(_oracle_vertex_swap(g), graphs.GraphAut(
        g, {v: v for v in g.vertices}, emap, {}))


def perm_matrix(perm, n) -> linalg.Matrix:
    """Column j is the image basis vector of e_j under the permutation."""
    return linalg.Matrix(
        [[Fraction(1 if perm[j] == i + 1 else 0) for j in range(n)]
         for i in range(n)]
    )


def transvection(i, j, n) -> linalg.Matrix:
    """e_i -> e_i + e_j, the abelianised right multiplication."""
    m = [[Fraction(1 if a == b else 0) for b in range(n)] for a in range(n)]
    m[j - 1][i - 1] = Fraction(1)
    return linalg.Matrix(m)


def flip_matrix(i, n) -> linalg.Matrix:
    m = [[Fraction(1 if a == b else 0) for b in range(n)] for a in range(n)]
    m[i - 1][i - 1] = Fraction(-1)
    return linalg.Matrix(m)


def signed_permutation_rep(n) -> symreps.FiniteRep:
    """The natural representation of the signed permutation group."""
    gens = {"e1": flip_matrix(1, n)}
    for i in range(1, n):
        p = list(range(1, n + 1))
        p[i - 1], p[i] = p[i], p[i - 1]
        gens[f"s{i}"] = perm_matrix(tuple(p), n)
    return symreps.FiniteRep(symreps.signed_permutation_group(n), n, gens)


def with_transvections(rep: symreps.FiniteRep, n,
                       build=transvection) -> symreps.FiniteRep:
    """Adjoin rho matrices to a signed permutation rep (same carrier)."""
    gens = dict(rep.generators)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                gens[f"rho{i}{j}"] = build(i, j, n)
    desc = symreps.GroupDescriptor(rep.group.name + "+rho", tuple(gens),
                                   rep.group.relations)
    return symreps.FiniteRep(desc, rep.dim, gens)


def exterior_square_rep(n) -> symreps.FiniteRep:
    """Signed permutations acting on the exterior square of the carrier."""
    base = signed_permutation_rep(n)
    d = n * (n - 1) // 2
    gens = {name: linalg.exterior_square(m) for name, m in base.generators.items()}
    return symreps.FiniteRep(base.group, d, gens)


def symmetric_group_perm_rep(n) -> symreps.FiniteRep:
    gens = {}
    for i in range(1, n):
        p = list(range(1, n + 1))
        p[i - 1], p[i] = p[i], p[i - 1]
        gens[f"s{i}"] = perm_matrix(tuple(p), n)
    return symreps.FiniteRep(symreps.symmetric_group(n), n, gens)


def determinant_rep(n) -> symreps.FiniteRep:
    gens = {f"s{i}": linalg.Matrix([[Fraction(-1)]]) for i in range(1, n)}
    return symreps.FiniteRep(symreps.symmetric_group(n), 1, gens)


# ---------------------------------------------------------------------------
# Nielsen generators and the kernel generators as certified products, and
# mod-2 functionals as tuples: the constructions that the token words and
# bitmasks replaced


def generator(n, kind, i=None, j=None) -> words.Automorphism:
    """The Nielsen generator that the token ``(kind, i, j)`` names, as a
    certified automorphism of rank n."""
    return words.automorphism(n, [((kind, i, j), 1)])


def flip_one_exponent(monkeypatch, target):
    """Patch the suite, as ``words`` reads it for ``check_suite``, so that
    the relator labelled ``target`` has its second letter inverted."""
    suite = words.gersten_relators

    def flipped(n):
        for family, label, word in suite(n):
            if (family, label) == target:
                word = [word[0], (word[1][0], -word[1][1])] + word[2:]
            yield family, label, word
    monkeypatch.setattr(words, "gersten_relators", flipped)


def spelt_out(word) -> list:
    """A token word with each quarter-turn letter ``("tau", k, None)``
    written out as ``words.quarter_turn(k)``, or as its inverse word."""
    out = []
    for token, e in word:
        if token[0] == "tau":
            turn = words.quarter_turn(token[1])
            out += turn if e > 0 else words._inv_word(turn)
        else:
            out.append((token, e))
    return out


def oracle_token_images(n, token_word) -> list:
    """The forward images of a token word as letter tuples, by substitution.

    Each letter's generator (or its inverse) is written out as the
    images of a_1..a_n, and ``acc * g`` sends a_k to acc(g(a_k)), so
    the rightmost letter acts first.  Words are concatenated and then
    freely reduced by ``reduce_word``; ``words._join`` is not used.
    """
    gens = [(k,) for k in range(1, n + 1)]
    acc = list(gens)
    for (kind, i, j), e in token_word:
        g = list(gens)
        if kind in ("rho", "lam"):
            aj = (j,) if e > 0 else (-j,)
            g[i - 1] = (i,) + aj if kind == "rho" else aj + (i,)
        elif kind == "eps":
            g[i - 1] = (-i,)
        elif kind == "sigma":
            g[i - 1], g[j - 1] = (j,), (i,)
        elif kind == "sigma_star":
            g = [(-i,) if k == i else (k, -i) for k in range(1, n + 1)]
        else:
            assert kind == "delta", kind
            g = [(-k,) for k in range(1, n + 1)]
        acc = [_substitute(acc, w, n) for w in g]
    return acc


def _substitute(images, w, n) -> tuple:
    """The word w with each a_k replaced by ``images[k - 1]``, reduced."""
    out = ()
    for x in w:
        img = images[abs(x) - 1]
        out += img if x > 0 else tuple(-y for y in reversed(img))
    return reduce_word(out, n)


def partial_conjugation(i, j, n) -> words.Automorphism:
    """rho_ij * lam_ij^-1: conjugates a_i by a_j, fixes the rest."""
    return words.rho(i, j, n) * generator(n, "lam", i, j).inverse()


def transvection_commutator(i, j, k, n) -> words.Automorphism:
    """[rho_ij, rho_ik], a generator of the kernel of abelianisation."""
    a, b = words.rho(i, j, n), words.rho(i, k, n)
    return a * b * a.inverse() * b.inverse()


def oracle_minus_eigenspace_matrix(imgs) -> linalg.Matrix:
    """Restriction to the (-1)-eigenspace of the deck involution, through
    the Schreier rewrite: in the basis alpha_i = x_i - y_i, the image of
    alpha_i is cover column x_i minus cover column y_i.  Commutation with
    the deck involution is asserted while extracting the restriction.
    ``imgs`` are the forward images of the automorphism."""
    n = len(imgs)
    m = cover.cover_matrix(imgs).data
    d = 2 * n - 1
    out = [[0] * (n - 1) for _ in range(n - 1)]
    for i in range(n - 1):
        xi, yi = i, n - 1 + i
        # image of alpha_{i+1}: column xi minus column yi
        col = [m[r][xi] - m[r][yi] for r in range(d)]
        if col[d - 1] != 0:
            raise AssertionError("deck commutation fails: z component survives")
        for l in range(n - 1):
            if col[l] != -col[n - 1 + l]:
                raise AssertionError("deck commutation fails: not anti-invariant")
            out[l][i] = col[l]
    return linalg.Matrix(out)


def oracle_kernel_generators(n) -> list:
    """``(label, automorphism)``: partial conjugations, then commutators."""
    out = [(f"partial conjugation i={i},j={j}", partial_conjugation(i, j, n))
           for i, j in itertools.permutations(range(1, n + 1), 2)]
    out += [(f"commutator i={i},j={j},k={k}", transvection_commutator(i, j, k, n))
            for i, j, k in itertools.permutations(range(1, n + 1), 3)]
    return out


def functional_to_mask(s) -> int:
    return sum(1 << i for i, bit in enumerate(s) if bit % 2)


def mask_to_functional(mask, n) -> tuple:
    return tuple((mask >> i) & 1 for i in range(n))


def oracle_act_on_functional(a, s) -> tuple:
    """s -> s o ab2(a^-1), through the integer abelianisation of the
    certified inverse."""
    m = words.abelianize(a.backward).data
    n = a.rank
    return tuple(int(sum(s[l] * m[l][k] for l in range(n))) % 2 for k in range(n))


def oracle_act_on_mask(a, mask) -> int:
    return functional_to_mask(oracle_act_on_functional(a, mask_to_functional(mask, a.rank)))


# ---------------------------------------------------------------------------
# words from raw letter sequences: the oracle of the seam test in
# ``words._join``, and the builder of raw test input


def reduce_word(letters, rank: int) -> tuple:
    """Freely reduce a raw letter sequence to a letter tuple.

    Stack-based cancellation; the result does not depend on the order in
    which adjacent inverse pairs are removed (confluence of free
    reduction).  It validates every letter, even one that cancels.
    """
    out = []
    for x in letters:
        if not isinstance(x, int) or x == 0 or abs(x) > rank:
            raise ValueError(f"letter {x!r} out of range for rank {rank}")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


# ---------------------------------------------------------------------------
# the input files of the CLI, written from library objects


def to_json(obj):
    """The JSON form in which the CLI reads ``obj``.

    A graph is a ``graph --file`` graph, an action a whole action file
    (graph, group and maps), an automorphism one entry of its ``maps``,
    and a rep a ``decompose --rep`` file.  JSON keys are strings, so map
    keys are written as the ids print; matrices write themselves.
    """
    if isinstance(obj, graphs.Graph):
        return {"vertices": list(obj.vertices),
                "edges": [{"id": e, "iota": obj.ends[e][0], "tau": obj.ends[e][1]}
                          for e in obj.edges]}
    if isinstance(obj, graphs.GraphAut):
        return {"vertex_map": {str(k): v for k, v in obj.vmap.items()},
                "edge_map": {str(k): v for k, v in obj.emap.items()},
                "flips": {str(e): bool(f) for e, f in obj.flips.items() if f}}
    if isinstance(obj, graphs.GraphAction):
        return {"graph": to_json(obj.graph), "group": to_json(obj.group),
                "maps": {name: to_json(aut) for name, aut in obj.maps.items()}}
    if isinstance(obj, symreps.GroupDescriptor):
        return {"name": obj.name, "generators": list(obj.generators),
                "relations": [list(r) for r in obj.relations]}
    if isinstance(obj, symreps.FiniteRep):
        return {"group": to_json(obj.group), "dim": obj.dim,
                "generators": {k: v.to_json() for k, v in obj.generators.items()}}
    raise TypeError(f"no JSON form for {type(obj).__name__}")
