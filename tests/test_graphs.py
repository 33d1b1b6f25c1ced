"""Graphs, homology, simple loops, admissibility, flips, double trees."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import (benchmark_inputs, oracle_builtin_action, oracle_compose,
                      oracle_double_tree, oracle_doubled_cage_maps, oracle_edge_orbits, oracle_elements, oracle_homology_trace,
                      oracle_identity, oracle_is_identity, oracle_is_perfect,
                      oracle_min_loop, oracle_orientation_obstruction,
                      oracle_parity_involution, oracle_simple_cycles,
                      oracle_subdivide_inverted_edges, oracle_trivial_multiplicity,
                      oracle_valence, oracle_word_aut, simple_loops, to_json)
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
    maps = {name: oracle_identity(graph) for name in desc.generators}
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
        back = graphs.Graph.from_json(to_json(g))
        assert back == g


class TestHomology:
    def test_rose_loops_are_the_basis(self):
        basis = graphs.h1_basis(graphs.rose(4))
        assert basis.cols == 4
        assert basis == Matrix.identity(4)

    def test_cage_dimension(self):
        assert graphs.h1_basis(graphs.cage(6)).cols == 5

    def test_barbell_bridge_weight_vanishes(self):
        g = graphs.barbell()
        basis = graphs.h1_basis(g)
        assert basis.cols == 2
        row = g.edges.index("b")
        assert all(basis.data[row][j] == 0 for j in range(basis.cols))

    def test_dimension_formula_on_random_graphs(self):
        rng = random.Random(2718)
        for _ in range(60):
            g = random_multigraph(rng)
            if not g.edges:
                continue
            expected = len(g.edges) - len(g.vertices) + g.component_count()
            basis = graphs.h1_basis(g)
            assert basis.shape == (len(g.edges), expected)
            assert (g.incidence_matrix() * basis).is_zero()

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
                    assert all(basis.data[row][j] == 0
                               for j in range(basis.cols))


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
            lhs = graphs.induced_matrix(oracle_compose(act.maps[a], act.maps[b]), basis)
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
        assert oracle_homology_trace(oracle_identity(act.graph)) == 3
        assert oracle_homology_trace(act.maps["s"]) == 1


class TestCollapse:
    def test_cage_minus_edge_is_rose(self):
        quotient, _ = graphs.collapse(graphs.cage(3), ["c1"])
        assert len(quotient.vertices) == 1
        assert len(quotient.edges) == 2
        assert all(quotient.is_loop(e) for e in quotient.edges)

    def test_barbell_bridge_collapse_is_isomorphism(self):
        _, cycle_map = graphs.collapse(graphs.barbell(), ["b"])
        assert cycle_map.shape == (2, 2)
        assert cycle_map.rank() == 2

    def test_empty_collapse_is_identity(self):
        g = graphs.rose(3)
        quotient, cycle_map = graphs.collapse(g, [])
        assert quotient == g
        assert cycle_map.is_identity()

    def test_two_step_composition(self):
        g = graphs.daisy_chain(3)
        quotient, one = graphs.collapse(g, ["d1a"])
        _, two = graphs.collapse(quotient, ["d2a"])
        _, both = graphs.collapse(g, ["d1a", "d2a"])
        assert two * one == both

    def test_surjectivity_on_random_graphs(self):
        rng = random.Random(55)
        for _ in range(25):
            g = random_multigraph(rng)
            if not g.edges:
                continue
            subset = [e for e in g.edges if rng.random() < 0.4]
            quotient, cycle_map = graphs.collapse(g, subset)
            assert cycle_map.shape == (graphs.h1_basis(quotient).cols,
                                       graphs.h1_basis(g).cols)
            assert cycle_map.rank() == cycle_map.rows


    def test_cycle_map_is_quotient_by_source(self):
        for g, edges, shape in ((graphs.cage(1), ["c1"], (0, 0)),
                                (graphs.barbell(), ["lu", "lw", "b"], (0, 2))):
            quotient, cycle_map = graphs.collapse(g, edges)
            assert cycle_map.shape == shape
            assert shape == (graphs.h1_basis(quotient).cols, graphs.h1_basis(g).cols)


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


def double_tree_corpus() -> list:
    """``(label, graph, involution)`` for every builtin involution the
    graph admits: cages and roses with 1 to 20 edges, daisy chains with 2
    to 20 joints, and the benchmark's relabelled cages."""
    builders = [("cage", graphs.cage, range(1, 21)), ("rose", graphs.rose, range(1, 21)),
                ("daisy", graphs.daisy_chain, range(2, 21))]
    cases = [(f"{name}:{k}", build(k), xi) for name, build, ks in builders
             for k in ks for xi in cli._INVOLUTIONS]
    inputs = benchmark_inputs()
    cases += [(f"cage_graph_file({seed}, {k})",
               graphs.Graph.from_json(inputs.cage_graph_file(seed, k)["graph"]), xi)
              for seed in range(1, 6) for k in (3, 5, 9, 16)
              for xi in ("vertex-swap", "def57")]
    corpus = []
    for label, g, name in cases:
        try:
            corpus.append((f"{label} {name}", g, cli._INVOLUTIONS[name](g)))
        except ValueError:
            pass  # the involution is not defined on this graph
    return corpus


def outcome(fn, *args):
    """What ``fn(*args)`` gives: its value, or the type and text it raises."""
    try:
        return fn(*args)
    except (ValueError, AssertionError) as exc:
        return type(exc), str(exc)


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

    def test_valences_match_a_per_vertex_count(self):
        rng = random.Random(33)
        small = [graphs.rose(k) for k in range(1, 6)] + [graphs.barbell()]
        small += [graphs.cover_of_rose(k) for k in range(2, 6)]
        small += [random_multigraph(rng) for _ in range(40)]
        assert any(g.is_loop(e) for g in small[-40:] for e in g.edges)
        for g in small:
            [_, (name, holds, details), _] = graphs.admissibility_conditions(
                actions.trivial_action(g))
            want = {str(v): oracle_valence(g, v) for v in g.vertices}
            assert list(details["valences"].items()) == list(want.items())
            assert holds == (2 not in want.values())

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
        assert not graphs.flips_all_simple_loops(g, oracle_identity(g))

    def test_non_involution_rejected(self):
        act = actions.symmetric_cage(3)
        three_cycle = oracle_compose(act.maps["s1"], act.maps["s2"])
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
            xis += [(act.graph, a) for a in oracle_elements(act)
                    if oracle_is_identity(oracle_compose(a, a))]
        for k in range(1, 6):
            xis.append((graphs.cage(k), actions.vertex_swap(graphs.cage(k))))
            xis.append((graphs.rose(k), actions.petal_flip_involution(graphs.rose(k))))
            xis.append((graphs.cage(k + 1), actions.parity_involution(graphs.cage(k + 1))))
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
        xi = actions.parity_involution(graphs.cage(6))
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
        assert graphs.double_tree_decomposition(g, oracle_identity(g)) is None

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

    def test_matches_the_two_pass_oracle(self):
        corpus = double_tree_corpus()
        results = set()
        for label, g, xi in corpus:
            sub, lifted = graphs.subdivide_inverted_edges(g, xi)
            assert (sub, lifted) == oracle_subdivide_inverted_edges(g, xi)[:2], label
            got = outcome(graphs.double_tree_decomposition, g, xi)
            want = outcome(oracle_double_tree, g, xi)
            if isinstance(want, graphs.DoubleTree):
                assert isinstance(got, graphs.DoubleTree), label
                for field in graphs.DoubleTree.__slots__:
                    assert getattr(got, field) == getattr(want, field), (label, field)
                assert list(got.subdivided.vertices) == list(want.subdivided.vertices)
                results.add("split")
            else:
                assert got == want, label
                results.add("none" if want is None else "raises")
        assert results == {"split", "none"}
        assert len(corpus) > 100


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


class TestPointRelations:
    """Relations and products on point permutations against the products
    of vertex, edge and flip maps."""

    def _with_relations(self, act, rng):
        """The action under extra relations: each generator's order, random
        words, and each of those words reversed."""
        gens = act.group.generators
        rels = list(act.group.relations)
        for name in gens:
            power = (name,)
            while not oracle_is_identity(oracle_word_aut(act, power)):
                power += (name,)
            rels.append(power)
        words = [tuple(rng.choice(gens) for _ in range(rng.randint(1, 6)))
                 for _ in range(6)] if gens else []
        rels += words + [w[::-1] for w in words]
        desc = symreps.GroupDescriptor(act.group.name, gens, tuple(rels))
        return graphs.GraphAction(act.graph, desc, act.maps)

    def test_failed_relations_match_the_oracle_product(self):
        rng = random.Random(5101)
        held = failed = 0
        for act in random_actions() + perfectness_actions():
            act = self._with_relations(act, rng)
            want = [rel for rel in act.group.relations
                    if not oracle_is_identity(oracle_word_aut(act, rel))]
            assert act.failed_relations() == want
            failed += len(want)
            held += len(act.group.relations) - len(want)
        assert held and failed

    def test_rightmost_letter_acts_first(self):
        # c = (ab)^-1, so abc = 1 while cba = b^-1 a^-1 b a, a commutator
        # that is not 1 since s1 and s2 do not commute
        act = actions.symmetric_cage(3)
        a, b = act.maps["s1"], act.maps["s2"]
        c = oracle_compose(b, a)   # s1 and s2 are involutions
        desc = symreps.GroupDescriptor("S3", ("a", "b", "c"),
                                       (("a", "b", "c"), ("c", "b", "a")))
        abc = graphs.GraphAction(act.graph, desc, {"a": a, "b": b, "c": c})
        assert abc.failed_relations() == [("c", "b", "a")]

    def test_points_of_a_product(self):
        for act in random_actions() + perfectness_actions():
            for a, b in itertools.product(act.maps.values(), repeat=2):
                assert (graphs._points(oracle_compose(a, b))
                        == graphs._then(graphs._points(b), graphs._points(a)))

    def test_tree_claims_match_the_subgraph_oracle(self):
        # a forest with ends in V and |V| - 1 edges is a tree on V
        rng = random.Random(97)
        verdicts = set()
        for _ in range(200):
            g = random_multigraph(rng, max_edges=6)
            edges = frozenset(e for e in g.edges if rng.random() < 0.5)
            vertices = {v for e in edges for v in g.ends[e]}
            vertices |= {v for v in g.vertices if rng.random() < 0.2}
            dt = graphs.DoubleTree(g, oracle_identity(g), frozenset(vertices), edges,
                                   frozenset(), frozenset())
            sub = graphs.make_graph(vertices, [(e, *g.ends[e]) for e in edges])
            want = sub.is_connected() and len(edges) == len(vertices) - 1
            got = dt.conclusions()
            assert got["d_is_tree"] == got["mirror_is_tree"] == want
            verdicts.add(want)
        assert verdicts == {True, False}


class TestPairedInvolutions:
    def test_strand_swap_pairs_edges_by_their_ends(self):
        g = graphs.daisy_chain(3)
        names = {e: f"x{m}" for m, e in enumerate(reversed(g.edges))}
        h = graphs.make_graph(g.vertices, [(names[e], *g.ends[e]) for e in g.edges])
        want = actions.strand_swap(g).emap
        assert actions.strand_swap(h).emap == {names[e]: names[f] for e, f in want.items()}
        assert actions.strand_swap(graphs.rose(2)).emap == {"p1": "p2", "p2": "p1"}
        for bad in (graphs.cage(3), graphs.rose(1), graphs.barbell()):
            with pytest.raises(ValueError, match="strand swap"):
                actions.strand_swap(bad)

    def test_parity_involution_on_a_relabelled_cage(self):
        for k in range(1, 9):
            g = graphs.cage(k)
            h = graphs.make_graph(["b", "a"], [(f"e{k - m}", "a", "b")
                                               for m in range(k)])
            xi, yi = actions.parity_involution(g), actions.parity_involution(h)
            assert yi.vmap == {"a": "b", "b": "a"} and all(yi.flips.values())
            moved = {e for e, f in yi.emap.items() if e != f}
            assert moved == (set() if k % 2 else set(h.edges[:2]))
            assert (graphs.flips_all_simple_loops(h, yi)
                    == graphs.flips_all_simple_loops(g, xi) == bool(k % 2))
        with pytest.raises(ValueError):
            actions.parity_involution(graphs.make_graph(["u", "w"], []))


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
        g = graphs.cage(5)
        xi = actions.parity_involution(g)
        assert graphs.flips_all_simple_loops(g, xi)
        # odd rank: composed with an edge swap, loops through the first
        # two edges are exchanged rather than flipped
        g6 = graphs.cage(6)
        xi5 = actions.parity_involution(g6)
        assert oracle_is_identity(oracle_compose(xi5, xi5))
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
            got = actions.parity_involution(graphs.cage(n + 1))
            want = oracle_parity_involution(n)
            assert _parts(got) == _parts(want)


class TestActionSerialisation:
    def test_round_trip(self):
        for act in (actions.cage_full(3), actions.signed_rose(3),
                    actions.cage_central_alternating(5)):
            obj = to_json(act)
            g = graphs.Graph.from_json(obj["graph"])
            back = graphs.action_from_json(g, obj)
            assert back.verify_relations()
            assert back.maps == act.maps
