"""Graphs, homology, simple loops, admissibility, flips, double trees."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import (oracle_builtin_action, oracle_doubled_cage_maps,
                      oracle_edge_orbits, oracle_elements, oracle_homology_trace,
                      oracle_is_perfect, oracle_min_loop,
                      oracle_orientation_obstruction, oracle_parity_involution,
                      oracle_simple_cycles, oracle_trivial_multiplicity,
                      simple_loops)
from outfn import actions, cli, graphs, symreps
from outfn.linalg import Matrix


def random_multigraph(rng, max_edges=16):
    nv = rng.randint(1, 8)
    ne = rng.randint(0, max_edges)
    verts = [f"v{i}" for i in range(nv)]
    recs = [(f"e{i}", rng.choice(verts), rng.choice(verts)) for i in range(ne)]
    return graphs.make_graph(verts, recs)


def alternating_doubled_cage(k: int) -> graphs.GraphAction:
    """A_k on the 2k-cage acting the same way on both halves.

    Two edge orbits of size k; useful for the multiplicity-counting
    checks with several orbits.
    """
    g = graphs.cage(2 * k)
    return graphs.GraphAction(g, symreps.alternating_group(k), actions._alternating(g, k))


def trivial_alternating_action(graph: graphs.Graph, k: int) -> graphs.GraphAction:
    """A_k acting trivially: every generator is the identity automorphism."""
    desc = symreps.alternating_group(k)
    maps = {name: graphs.identity_aut(graph) for name in desc.generators}
    return graphs.GraphAction(graph, desc, maps)


def stock_actions():
    return [actions.symmetric_rose(3), actions.alternating_rose(4),
            actions.signed_rose(3), actions.symmetric_cage(4),
            actions.alternating_cage(5), alternating_doubled_cage(3),
            actions.cage_full(4), actions.cage_central_alternating(4)]


def two_cages_and_a_loop():
    """A disconnected graph with an action that swaps two components."""
    g = graphs.make_graph(
        ["u1", "w1", "u2", "w2", "x"],
        [("a1", "u1", "w1"), ("b1", "u1", "w1"),
         ("a2", "u2", "w2"), ("b2", "u2", "w2"), ("l", "x", "x")])
    fixed_x = {"x": "x"}
    swap = graphs.GraphAut(
        g, {"u1": "u2", "w1": "w2", "u2": "u1", "w2": "w1", **fixed_x},
        {"a1": "a2", "b1": "b2", "a2": "a1", "b2": "b1", "l": "l"}, {})
    reverse = graphs.GraphAut(
        g, {"u1": "w1", "w1": "u1", "u2": "w2", "w2": "u2", **fixed_x},
        {e: e for e in g.edges}, {e: e != "l" for e in g.edges})
    strands = graphs.GraphAut(
        g, {v: v for v in g.vertices},
        {"a1": "b1", "b1": "a1", "a2": "a2", "b2": "b2", "l": "l"}, {"l": True})
    desc = symreps.GroupDescriptor("D", ("s", "r", "t"), ())
    return graphs.GraphAction(g, desc, {"s": swap, "r": reverse, "t": strands})


def flips_every_listed_loop(g, xi):
    p = graphs.signed_edge_matrix(xi)
    return all(p * v == -v for v in (Matrix.from_columns([loop.edge_vector(g)])
                                     for loop in simple_loops(g)))


class TestBuilders:
    def test_cage(self):
        g = graphs.cage(7)
        assert len(g.vertices) == 2 and len(g.edges) == 7

    def test_cover_of_rose(self):
        g = graphs.cover_of_rose(5)
        assert len(g.vertices) == 2 and len(g.edges) == 10
        assert g.rank() == 9

    def test_tiny_rose(self):
        assert graphs.rose(1).rank() == 1

    def test_size_guards(self):
        with pytest.raises(ValueError):
            graphs.rose(0)
        with pytest.raises(ValueError):
            graphs.daisy_chain(1)

    def test_json_round_trip(self):
        g = graphs.daisy_chain(3)
        back = graphs.Graph.from_json(g.to_json())
        assert back == g


class TestHomology:
    def test_rose_loops_are_the_basis(self):
        basis = graphs.h1_basis(graphs.rose(4))
        assert basis.dim == 4
        assert basis.matrix == Matrix.identity(4)

    def test_cage_dimension(self):
        assert graphs.h1_basis(graphs.cage(6)).dim == 5

    def test_barbell_bridge_weight_vanishes(self):
        g = graphs.barbell()
        basis = graphs.h1_basis(g)
        assert basis.dim == 2
        row = g.edges.index("b")
        assert all(basis.matrix.data[row][j] == 0 for j in range(basis.dim))

    def test_dimension_formula_on_random_graphs(self):
        rng = random.Random(2718)
        for _ in range(60):
            g = random_multigraph(rng)
            if not g.edges:
                continue
            expected = len(g.edges) - len(g.vertices) + g.component_count()
            assert graphs.h1_basis(g).dim == expected

    def test_separating_edges_carry_no_weight(self):
        # oracle: an edge separates exactly when deleting it increases
        # the component count
        rng = random.Random(1729)
        for _ in range(30):
            g = random_multigraph(rng)
            if not g.edges:
                continue
            basis = graphs.h1_basis(g)
            for row, e in enumerate(g.edges):
                rest = graphs.make_graph(
                    g.vertices,
                    [(f, g.iota(f), g.tau(f)) for f in g.edges if f != e])
                separating = rest.component_count() > g.component_count()
                if separating:
                    assert all(basis.matrix.data[row][j] == 0
                               for j in range(basis.dim))


class TestInducedAction:
    def test_rose_permutation_matrices(self):
        act = actions.symmetric_rose(4)
        assert act.verify_relations()
        rep = graphs.induced_rep(act)
        assert rep.verify_relations()
        assert symreps.multiplicity(rep, "trivial", 4) == 1

    def test_flip_on_single_petal(self):
        g = graphs.rose(1)
        flip = actions.petal_flip_involution(g)
        m = graphs.induced_matrix(flip, graphs.h1_basis(g))
        assert m == Matrix([[Fraction(-1)]])

    def test_cage_character_is_fixed_points_minus_one(self):
        n = 5
        rep = graphs.induced_rep(actions.symmetric_cage(n))
        for lam in symreps.partitions(n):
            word = symreps.adjacent_factorization(
                symreps.class_representative(lam, n))
            tr = rep.matrix_of(word).trace()
            assert tr == symreps.named_character("standard", n, lam)

    def test_vertex_swap_acts_as_minus_identity(self):
        full = actions.cage_full(5)
        assert full.verify_relations()
        rep = graphs.induced_rep(full)
        assert rep.generators["delta"] == Matrix.identity(4).scale(-1)

    def test_homomorphism_property(self):
        act = actions.cage_full(4)
        basis = graphs.h1_basis(act.graph)
        rng = random.Random(31)
        names = list(act.maps)
        for _ in range(15):
            a, b = rng.choice(names), rng.choice(names)
            lhs = graphs.induced_matrix(act.maps[a] * act.maps[b], basis)
            rhs = (graphs.induced_matrix(act.maps[a], basis)
                   * graphs.induced_matrix(act.maps[b], basis))
            assert lhs == rhs

    def test_hopf_trace_matches_induced_matrix(self):
        for act in stock_actions() + [two_cages_and_a_loop()]:
            basis = graphs.h1_basis(act.graph)
            for aut in oracle_elements(act):
                assert (oracle_homology_trace(aut)
                        == graphs.induced_matrix(aut, basis).trace())

    def test_hopf_trace_counts_swapped_components(self):
        act = two_cages_and_a_loop()
        assert oracle_homology_trace(graphs.identity_aut(act.graph)) == 3
        assert oracle_homology_trace(act.maps["s"]) == 1


class TestCollapse:
    def test_cage_minus_edge_is_rose(self):
        res = graphs.collapse(graphs.cage(3), ["c1"])
        assert len(res.quotient.vertices) == 1
        assert len(res.quotient.edges) == 2
        assert all(res.quotient.is_loop(e) for e in res.quotient.edges)

    def test_barbell_bridge_collapse_is_isomorphism(self):
        res = graphs.collapse(graphs.barbell(), ["b"])
        assert res.source_basis.dim == res.quotient_basis.dim == 2
        assert res.cycle_map.rank() == 2

    def test_empty_collapse_is_identity(self):
        g = graphs.rose(3)
        res = graphs.collapse(g, [])
        assert res.quotient == g
        assert res.cycle_map.is_identity()

    def test_two_step_composition(self):
        g = graphs.daisy_chain(3)
        one = graphs.collapse(g, ["d1a"])
        two = graphs.collapse(one.quotient, ["d2a"])
        both = graphs.collapse(g, ["d1a", "d2a"])
        assert two.cycle_map * one.cycle_map == both.cycle_map

    def test_surjectivity_on_random_graphs(self):
        rng = random.Random(55)
        for _ in range(25):
            g = random_multigraph(rng)
            if not g.edges:
                continue
            subset = [e for e in g.edges if rng.random() < 0.4]
            res = graphs.collapse(g, subset)
            assert res.cycle_map.rank() == res.quotient_basis.dim


    def test_cycle_map_is_quotient_by_source(self):
        for g, edges, shape in ((graphs.cage(1), ["c1"], (0, 0)),
                                (graphs.barbell(), ["lu", "lw", "b"], (0, 2))):
            res = graphs.collapse(g, edges)
            assert res.cycle_map.shape == shape
            assert shape == (res.quotient_basis.dim, res.source_basis.dim)


class TestSimpleLoops:
    def test_cage_counts(self):
        for n in (2, 3, 4, 5):
            loops = simple_loops(graphs.cage(n))
            assert len(loops) == math.comb(n, 2)
            assert all(len(l) == 2 for l in loops)

    def test_rose_counts(self):
        loops = simple_loops(graphs.rose(4))
        assert len(loops) == 4
        assert all(len(l) == 1 for l in loops)

    def test_daisy_chain_counts(self):
        for k in (2, 3, 4):
            loops = simple_loops(graphs.daisy_chain(k))
            short = [l for l in loops if len(l) == 2]
            long = [l for l in loops if len(l) == k]
            if k == 2:
                # the strand loops coincide with the doubled-edge loops
                assert len(loops) == len(short) == 2 + 2 ** 2
            else:
                assert len(short) == k
                assert len(long) == 2 ** k
                assert len(loops) == k + 2 ** k

    def test_matches_subset_oracle(self):
        rng = random.Random(808)
        for _ in range(20):
            g = random_multigraph(rng)
            if len(g.edges) > 10:
                continue
            mine = {l.edge_set for l in simple_loops(g)}
            assert mine == set(oracle_simple_cycles(g))

    def test_loop_vectors_are_cycles(self):
        g = graphs.daisy_chain(3)
        inc = g.incidence_matrix()
        for l in simple_loops(g):
            assert (inc * Matrix.from_columns([l.edge_vector(g)])).is_zero()


class TestMinLoopAndObstruction:
    def test_cage_edges(self):
        assert graphs.min_loop_through_edge(graphs.cage(4), "c2") == 2

    def test_bridge_is_separating(self):
        assert graphs.min_loop_through_edge(graphs.barbell(), "b") is None
        assert graphs.separating_edges(graphs.barbell()) == ["b"]

    def test_rose_edge(self):
        assert graphs.min_loop_through_edge(graphs.rose(3), "p1") == 1

    def test_homogeneous_graphs_have_no_witness(self):
        assert graphs.admissibility_obstruction(graphs.cage(4)) is None
        assert graphs.admissibility_obstruction(graphs.rose(3)) is None

    def _doubled_triangle(self):
        return graphs.make_graph(
            ["a", "b", "c"],
            [("e1", "a", "b"), ("e2", "a", "b"),
             ("e3", "b", "c"), ("e4", "c", "a")])

    def test_heterogeneous_witness_matches_brute_force(self):
        g = self._doubled_triangle()
        witness = graphs.admissibility_obstruction(g)
        assert witness is not None
        # brute force via the subset oracle
        m = {e: oracle_min_loop(g, e) for e in g.edges}
        assert m == {"e1": 2, "e2": 2, "e3": 3, "e4": 3}
        brute = []
        for e in g.edges:
            if m[e] is None:
                continue
            for x in dict.fromkeys(g.ends[e]):
                others = [f for f in g.edges if f != e and x in g.ends[f]]
                if all(m[f] != m[e] for f in others):
                    brute.append((e, x))
        assert witness in brute
        assert witness == brute[0]

    def test_bfs_matches_subset_oracle_on_random_multigraphs(self):
        rng = random.Random(1103)
        for _ in range(80):
            g = random_multigraph(rng, max_edges=10)
            m = {e: oracle_min_loop(g, e) for e in g.edges}
            assert {e: graphs.min_loop_through_edge(g, e) for e in g.edges} == m
            assert graphs.separating_edges(g) == [e for e in g.edges if m[e] is None]
            brute = [(e, x) for e in g.edges if m[e] is not None
                     for x in dict.fromkeys(g.ends[e])
                     if all(m[f] != m[e] for f in g.edges
                            if f != e and x in g.ends[f])]
            assert graphs.admissibility_obstruction(g) == (brute[0] if brute else None)


class TestAdmissibility:
    def test_full_cage_action_is_admissible(self):
        assert graphs.is_admissible(actions.cage_full(5))
        assert graphs.invariant_forests(actions.cage_full(5)) == []

    def test_trivial_group_on_small_cage(self):
        act = actions.trivial_action(graphs.cage(2))
        forests = graphs.invariant_forests(act)
        assert forests  # every single edge is a forest
        assert not graphs.is_admissible(act)

    def test_barbell_always_rejected(self):
        act = actions.trivial_action(graphs.barbell())
        assert ["b"] in graphs.invariant_forests(act)
        assert not graphs.is_admissible(act)

    def test_rose_under_trivial_group_is_admissible(self):
        # loops are never forests, and the rose vertex has valence 2n >= 4
        act = actions.trivial_action(graphs.rose(2))
        assert graphs.invariant_forests(act) == []
        assert graphs.is_admissible(act)

    def test_forest_orbits_match_orbit_union_brute_force(self):
        rng = random.Random(4)
        small = [graphs.cage(2), graphs.cage(3), graphs.rose(2), graphs.barbell(),
                 graphs.daisy_chain(3), graphs.cover_of_rose(3)]
        small += [random_multigraph(rng, max_edges=8) for _ in range(30)]
        acts = [actions.trivial_action(g) for g in small]
        acts += [actions.cage_full(3), actions.symmetric_cage(3),
                 actions.signed_rose(2), actions.cage_central_alternating(4)]
        for act in acts:
            cycles = oracle_simple_cycles(act.graph)
            orbits = act.edge_orbits()
            brute = any(not any(c <= set(union) for c in cycles)
                        for r in range(1, len(orbits) + 1)
                        for combo in itertools.combinations(orbits, r)
                        for union in [[e for o in combo for e in o]])
            forests = graphs.invariant_forests(act)
            assert bool(forests) == brute
            assert all(f in orbits for f in forests)


class TestFlipsAndDoubleTree:
    def test_cage_vertex_swap_flips_everything(self):
        g = graphs.cage(4)
        assert graphs.flips_all_simple_loops(g, actions.vertex_swap(g))

    def test_identity_does_not_flip(self):
        g = graphs.rose(2)
        assert not graphs.flips_all_simple_loops(g, graphs.identity_aut(g))

    def test_non_involution_rejected(self):
        act = actions.symmetric_cage(3)
        three_cycle = act.maps["s1"] * act.maps["s2"]
        with pytest.raises(ValueError):
            graphs.flips_all_simple_loops(act.graph, three_cycle)

    def test_daisy_strand_swap(self):
        g = graphs.daisy_chain(3)
        sw = actions.strand_swap(g)
        # every doubled-edge loop is flipped, the long strand loops are
        # exchanged instead, so the global answer is negative
        p = graphs.signed_edge_matrix(sw)
        for l in simple_loops(g):
            v = Matrix.from_columns([l.edge_vector(g)])
            flipped = p * v == -v
            assert flipped == (len(l) == 2)
        assert not graphs.flips_all_simple_loops(g, sw)

    def test_cycle_basis_check_matches_per_loop_oracle(self):
        xis = []
        for act in (actions.cage_full(4), actions.signed_rose(3),
                    actions.symmetric_cage(4)):
            xis += [(act.graph, a) for a in oracle_elements(act) if (a * a).is_identity()]
        for k in range(1, 6):
            xis.append((graphs.cage(k), actions.vertex_swap(graphs.cage(k))))
            xis.append((graphs.rose(k), actions.petal_flip_involution(graphs.rose(k))))
            xis.append((graphs.cage(k + 1), actions.parity_involution(k)))
        for k in range(2, 5):
            xis.append((graphs.daisy_chain(k), actions.strand_swap(graphs.daisy_chain(k))))
        outcomes = set()
        for g, xi in xis:
            got = graphs.flips_all_simple_loops(g, xi)
            assert got == flips_every_listed_loop(g, xi)
            outcomes.add(got)
        assert outcomes == {True, False}

    def test_involution_of_another_graph_rejected(self):
        g = graphs.daisy_chain(3)
        xi = actions.parity_involution(5)   # lives on the 6-cage
        with pytest.raises(ValueError):
            graphs.flips_all_simple_loops(g, xi)
        with pytest.raises(ValueError):
            graphs.double_tree_decomposition(g, xi)

    def test_cage_double_tree_is_star(self):
        n = 5
        g = graphs.cage(n)
        dt = graphs.double_tree_decomposition(g, actions.vertex_swap(g))
        assert all(dt.conclusions().values())
        assert len(dt.f_vertices) == n          # one midpoint per edge
        assert len(dt.f_edges) == 0
        assert len(dt.d_edges) == n             # a star of half-edges
        d_sub_vertices = set(dt.d_vertices)
        assert len(d_sub_vertices) == n + 1

    def test_single_loop_reflection(self):
        g = graphs.rose(1)
        dt = graphs.double_tree_decomposition(g, actions.petal_flip_involution(g))
        assert len(dt.d_edges) == 1             # an arc: half the loop
        assert len(dt.f_vertices) == 2          # the vertex and the midpoint

    def test_two_petal_flip(self):
        g = graphs.rose(2)
        dt = graphs.double_tree_decomposition(g, actions.petal_flip_involution(g))
        assert len(dt.d_edges) == 2             # two arcs joined at the vertex
        assert len(dt.f_vertices) == 3
        assert all(dt.conclusions().values())

    def test_precondition_enforced(self):
        g = graphs.rose(2)
        assert graphs.double_tree_decomposition(g, graphs.identity_aut(g)) is None

    def test_flip_check_comes_first(self):
        # two components: the strand swap exchanges the petals at each
        # vertex, which flips no loop, so there is nothing to decompose;
        # flipping every petal flips every loop, but the graph is
        # disconnected
        g = graphs.make_graph(["u", "x"], [("d1a", "u", "u"), ("d1b", "u", "u"),
                                           ("d2a", "x", "x"), ("d2b", "x", "x")])
        assert graphs.double_tree_decomposition(g, actions.strand_swap(g)) is None
        flip = graphs.GraphAut(g, {v: v for v in g.vertices},
                               {e: e for e in g.edges}, {e: True for e in g.edges})
        with pytest.raises(ValueError, match="connected"):
            graphs.double_tree_decomposition(g, flip)

    def test_pointwise_fixed_edge(self):
        # a tripod whose two outer edges are exchanged and whose third
        # edge is fixed pointwise: no simple loops, so the flipping
        # hypothesis is vacuous and the fixed edge lands in both trees
        g = graphs.make_graph(
            ["c", "x", "y", "z"],
            [("p", "c", "x"), ("q", "c", "y"), ("r", "c", "z")])
        xi = graphs.GraphAut(
            g, {"c": "c", "x": "y", "y": "x", "z": "z"},
            {"p": "q", "q": "p", "r": "r"}, {})
        dt = graphs.double_tree_decomposition(g, xi)
        assert all(dt.conclusions().values())
        assert dt.f_edges == frozenset({"r"})
        assert dt.f_vertices == frozenset({"c", "z"})
        assert len(dt.d_edges) == 2


class TestInvariantOrientation:
    def test_alternating_on_rose(self):
        act = actions.alternating_rose(5)
        res = graphs.invariant_orientation(act)
        assert res["orientation"] is not None
        assert res["orbit_count"] == 1
        assert res["trivial_multiplicity"] == 1
        assert res["counts_match"]

    def test_trivial_group(self):
        res = graphs.invariant_orientation(actions.trivial_action(graphs.rose(3)))
        assert res["orientation"] is not None
        assert res["orbit_count"] == res["trivial_multiplicity"] == 3

    def test_flip_obstruction(self):
        g = graphs.rose(1)
        desc = symreps.GroupDescriptor("Z2", ("f",), (("f", "f"),))
        act = graphs.GraphAction(g, desc, {"f": actions.petal_flip_involution(g)})
        res = graphs.invariant_orientation(act)
        assert res["orientation"] is None
        assert res["obstruction_edge"] == "p1"

    def test_non_rose_rejected(self):
        with pytest.raises(ValueError):
            graphs.invariant_orientation(actions.symmetric_cage(3))


class TestCageMultiplicity:
    def test_transitive(self):
        out = graphs.cage_trivial_multiplicity_check(actions.alternating_cage(5))
        assert out == {"orbit_count": 1, "trivial_multiplicity": 0, "ok": True}

    def test_two_orbits(self):
        out = graphs.cage_trivial_multiplicity_check(
            alternating_doubled_cage(5))
        assert out == {"orbit_count": 2, "trivial_multiplicity": 1, "ok": True}

    def test_trivial_action_three_orbits(self):
        act = trivial_alternating_action(graphs.cage(3), 5)
        out = graphs.cage_trivial_multiplicity_check(act)
        assert out == {"orbit_count": 3, "trivial_multiplicity": 2, "ok": True}

    def test_requires_perfect_group(self):
        with pytest.raises(ValueError):
            graphs.cage_trivial_multiplicity_check(actions.symmetric_cage(4))

    def test_false_perfect_claim_rejected(self):
        # S4 has commutator subgroup A4; Z2 is abelian
        s4 = actions.symmetric_cage(4)
        g = graphs.cage(3)
        desc = symreps.GroupDescriptor("Z2", ("d",), (("d", "d"),))
        z2 = graphs.GraphAction(g, desc, {"d": actions.vertex_swap(g)})
        for act in (s4, z2):
            assert not oracle_is_perfect(act)
            with pytest.raises(ValueError, match="not perfect"):
                graphs.cage_trivial_multiplicity_check(act)

    def test_one_edge_cage(self):
        act = actions.trivial_action(graphs.cage(1))
        assert oracle_is_perfect(act)
        out = graphs.cage_trivial_multiplicity_check(act)
        assert out == {"orbit_count": 1, "trivial_multiplicity": 0, "ok": True}


def random_action(rng, graph):
    """One to three random generators, no relations: signed petal
    permutations on a rose, edge permutations with an optional vertex
    swap (reversing every edge) on a cage."""
    edges = list(graph.edges)
    maps = {}
    for i in range(rng.randint(1, 3)):
        images = rng.sample(edges, len(edges))
        emap = dict(zip(edges, images))
        vmap = {v: v for v in graph.vertices}
        if len(graph.vertices) == 1:
            flips = {e: rng.random() < 0.3 for e in edges}
        else:
            swap = rng.random() < 0.5
            if swap:
                u, w = graph.vertices
                vmap = {u: w, w: u}
            flips = {e: swap for e in edges}
        maps[f"g{i}"] = graphs.GraphAut(graph, vmap, emap, flips)
    desc = symreps.GroupDescriptor("R", tuple(maps), ())
    return graphs.GraphAction(graph, desc, maps)


def random_actions():
    rng = random.Random(6113)
    return [random_action(rng, build(k))
            for build, sizes in ((graphs.rose, range(1, 5)), (graphs.cage, range(2, 6)))
            for k in sizes for _ in range(5)]


def one_edge_cage():
    return actions.trivial_action(graphs.cage(1))


def single_petal_flip():
    g = graphs.rose(1)
    desc = symreps.GroupDescriptor("Z2", ("f",), (("f", "f"),))
    return graphs.GraphAction(g, desc, {"f": actions.petal_flip_involution(g)})


class TestGeneratorMultiplicity:
    """Multiplicities and orientations from the generators, against the
    trace average and the element scan over the enumerated group."""

    def _all(self):
        return (stock_actions() + [two_cages_and_a_loop(), one_edge_cage(),
                                   single_petal_flip()] + random_actions())

    def test_multiplicity_matches_trace_average(self):
        values = set()
        for act in self._all():
            got = graphs.trivial_multiplicity(act)
            assert got == oracle_trivial_multiplicity(act)
            values.add(got)
        assert {0, 1, 2} <= values

    def test_orientation_matches_element_scan(self):
        obstructed = set()
        for act in self._all():
            if len(act.graph.vertices) != 1:
                continue
            res = graphs.invariant_orientation(act)
            obstruction = oracle_orientation_obstruction(act)
            assert res["obstruction_edge"] == obstruction
            assert res["trivial_multiplicity"] == oracle_trivial_multiplicity(act)
            orbits = act.edge_orbits()
            assert res["orbit_count"] == len(orbits)
            assert res["counts_match"] == (
                obstruction is None and len(orbits) == res["trivial_multiplicity"])
            obstructed.add(obstruction is not None)
            if obstruction is not None:
                assert res["orientation"] is None
                continue
            orientation = res["orientation"]
            assert set(orientation) == set(act.graph.edges)
            assert all(orientation[orbit[0]] == 1 for orbit in orbits)
            for aut in act.maps.values():
                for e in act.graph.edges:
                    assert (orientation[aut.emap[e]]
                            == orientation[e] * (-1 if aut.flip(e) else 1))
        assert obstructed == {True, False}

    def test_no_group_enumeration(self):
        res = graphs.invariant_orientation(actions.alternating_rose(12))
        assert res["orbit_count"] == res["trivial_multiplicity"] == 1
        assert res["counts_match"]
        res = graphs.invariant_orientation(actions.signed_rose(6))
        assert res["obstruction_edge"] == "p1"
        assert graphs.trivial_multiplicity(actions.cage_full(7)) == 0
        assert graphs.trivial_multiplicity(alternating_doubled_cage(6)) == 1
        out = graphs.cage_trivial_multiplicity_check(actions.alternating_cage(12))
        assert out == {"orbit_count": 1, "trivial_multiplicity": 0, "ok": True}


def two_three_cycles():
    """A5 on the 5-cage generated by (1 2 3) and (3 4 5) alone; the
    conjugates of their commutator by (1 2 3) generate a proper subgroup."""
    g = graphs.cage(5)

    def cycle(i, j, k):
        emap = {e: e for e in g.edges}
        emap.update({f"c{i}": f"c{j}", f"c{j}": f"c{k}", f"c{k}": f"c{i}"})
        return graphs.GraphAut(g, {v: v for v in g.vertices}, emap, {})

    desc = symreps.GroupDescriptor("A5", ("a", "b"), ())
    return graphs.GraphAction(g, desc, {"a": cycle(1, 2, 3), "b": cycle(3, 4, 5)})


def perfectness_actions():
    """A5/A6 on cages, the doubled cage, A5 acting trivially, S4, S5 on
    a rose, G4, B5, W3, the one-edge cage and A5 from two generators."""
    return [actions.alternating_cage(5), actions.alternating_cage(6),
            alternating_doubled_cage(5),
            trivial_alternating_action(graphs.cage(3), 5),
            actions.symmetric_cage(4), actions.symmetric_rose(5),
            actions.cage_full(5), actions.cage_central_alternating(6),
            actions.signed_rose(3), one_edge_cage(), two_three_cycles()]


class TestPerfectness:
    """The stabiliser-chain perfectness check against the commutator
    closure over the enumerated group."""

    def test_matches_commutator_closure(self):
        verdicts = []
        for act in perfectness_actions() + random_actions():
            got = graphs.is_perfect(act)
            assert got == oracle_is_perfect(act)
            verdicts.append(got)
        assert verdicts[:11] == [True, True, True, True, False, False,
                                 False, False, False, True, True]
        assert set(verdicts[11:]) == {True, False}

    def test_chain_holds_the_group(self):
        for act in perfectness_actions() + random_actions():
            chain = graphs._closure(
                [graphs._points(act.maps[name]) for name in act.group.generators], [])
            elements = oracle_elements(act)
            assert math.prod(len(back) for _, _, back in chain) == len(elements)
            for aut in elements:
                residue, _ = graphs._sift(chain, graphs._points(aut))
                assert residue == tuple(range(len(residue)))


class TestSignedRose:
    def test_full_rose_symmetries(self):
        act = actions.signed_rose(4)
        assert act.verify_relations()
        rep = graphs.induced_rep(act)
        assert rep.verify_relations()
        assert rep.generators["e1"] == Matrix(
            [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])

    def test_central_alternating_cage(self):
        act = actions.cage_central_alternating(6)
        assert act.verify_relations()
        assert graphs.is_admissible(act)

    def test_parity_involution(self):
        # even rank: plain vertex swap, flips everything
        xi = actions.parity_involution(4)
        g = graphs.cage(5)
        assert graphs.flips_all_simple_loops(g, xi)
        # odd rank: composed with an edge swap, loops through the first
        # two edges are exchanged rather than flipped
        xi5 = actions.parity_involution(5)
        g6 = graphs.cage(6)
        assert (xi5 * xi5).is_identity()
        assert not graphs.flips_all_simple_loops(g6, xi5)


def relabelled(rng, action):
    """The action on a copy of its graph with fresh vertex and edge names
    and the edges listed in a shuffled order."""
    g = action.graph

    def fresh(prefix, items):
        numbers = rng.sample(range(10, 1000), len(items))
        return {x: f"{prefix}{m}" for x, m in zip(items, numbers)}

    vname, ename = fresh("v", g.vertices), fresh("e", g.edges)
    h = graphs.make_graph([vname[v] for v in g.vertices],
                          [(ename[e], vname[g.iota(e)], vname[g.tau(e)])
                           for e in rng.sample(g.edges, len(g.edges))])
    maps = {name: graphs.GraphAut(h, {vname[v]: vname[w] for v, w in aut.vmap.items()},
                                  {ename[e]: ename[f] for e, f in aut.emap.items()},
                                  {ename[e]: f for e, f in aut.flips.items()})
            for name, aut in action.maps.items()}
    return graphs.GraphAction(h, action.group, maps)


class TestEdgeOrbits:
    def test_union_find_matches_breadth_first_search(self):
        rng = random.Random(4242)
        acts = stock_actions() + [two_cages_and_a_loop()]
        acts += [relabelled(rng, act) for act in acts + random_actions()]
        out_of_str_order = 0
        for act in acts:
            orbits = act.edge_orbits()
            assert orbits == oracle_edge_orbits(act)
            out_of_str_order += orbits != sorted(orbits, key=lambda o: str(o[0]))
        # graph order, not the smallest member, orders the orbits
        assert out_of_str_order > 0


def _parts(aut):
    return aut.vmap, aut.emap, aut.flips


class TestBuiltinActions:
    """The stock builders against the actions written out by index."""

    def test_builtin_actions_match_the_oracle(self):
        for k in range(3, 8):
            for name, letter, size in (("rose", "S", k), ("rose", "A", k), ("rose", "W", k),
                                       ("cage", "S", k), ("cage", "A", k),
                                       ("cage", "G", k - 1), ("cage", "B", k - 1)):
                act = cli._builtin_action(f"{name}:{k}", f"{letter}{size}")
                gens, maps = oracle_builtin_action(name, letter, k)
                assert act.group.generators == gens
                assert list(act.maps) == list(maps)
                assert all(_parts(act.maps[s]) == _parts(maps[s]) for s in gens)

    def test_doubled_cage_and_parity_involution(self):
        for k in range(3, 8):
            maps = oracle_doubled_cage_maps(k)
            act = alternating_doubled_cage(k)
            assert list(act.maps) == list(maps) == list(act.group.generators)
            assert all(_parts(act.maps[s]) == _parts(maps[s]) for s in maps)
        for n in range(0, 8):
            got, want = actions.parity_involution(n), oracle_parity_involution(n)
            assert _parts(got) == _parts(want)


class TestActionSerialisation:
    def test_round_trip(self):
        for act in (actions.cage_full(3), actions.signed_rose(3),
                    actions.cage_central_alternating(5)):
            obj = act.to_json()
            obj["graph"] = act.graph.to_json()
            g = graphs.Graph.from_json(obj["graph"])
            back = graphs.action_from_json(g, obj)
            assert back.verify_relations()
            assert back.maps == act.maps
