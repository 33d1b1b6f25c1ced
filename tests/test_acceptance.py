"""Acceptance suite: one test per contract criterion.

Each test prints a single PASS line when its criterion holds; every
comparison is exact (integers and rationals only, no tolerances).
Stated runtime budgets are asserted with wall-clock measurements.
"""

import random
import time
from fractions import Fraction

from conftest import (
    adjacent_factorization,
    admissibility_obstruction,
    class_representative,
    direct_sum,
    exterior_square_rep,
    min_loop_through_edge,
    multiplicity,
    named_character,
    oracle_min_loop,
    partitions,
    schreier_symbols,
    signed_permutation_rep,
    transvection,
    with_transvections,
)
from outfn import actions, cli, cover, graphs, induced, symreps, words
from outfn.linalg import Matrix, schur_square


def announce(k, name, detail=""):
    print(f"ACCEPTANCE {k} ({name}): PASS {detail}")


def test_criterion_1_presentation_suite():
    for n in (3, 4, 5):
        t0 = time.monotonic()
        assert cli.main(["gersten", "--n", str(n)]) == 0
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"rank {n} took {elapsed:.1f}s"
        report = words.verify_gersten(n)
        assert report["ok"]
        assert len(report["families"]) == 9
        if n >= 4:
            assert report["total"] >= 300
    announce(1, "presentation relator suite", "n=3,4,5")


def test_criterion_2_cover_formula_tables():
    t0 = time.monotonic()
    for n in (3, 4, 5):
        out = cover.verify_ia_action_tables(n)
        assert out["ok"], [c for c in out["checks"] if not c["ok"]]
        ident = Matrix.identity(n - 1)
        for i in range(1, n + 1):
            got = cover.minus_eigenspace_matrix(words.inner((i,), n))
            assert got == (ident.scale(-1) if i == n else ident)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    announce(2, "cover representation case tables", "n=3,4,5")


def test_criterion_3_induced_representation(tmp_path, monkeypatch):
    t0 = time.monotonic()
    rep3 = induced.induce(3)
    assert rep3.m == 21
    out3 = rep3.relator_report()
    assert out3["ok"]
    cert3 = induced.check_not_factoring(rep3)
    assert cert3["found"] and cert3["kernel_membership"]

    rep4 = induced.induce(4)
    assert rep4.m == 45
    out4 = rep4.relator_report()
    assert out4["ok"]
    cert4 = induced.check_not_factoring(rep4)
    assert cert4["found"] and cert4["kernel_membership"]

    monkeypatch.chdir(tmp_path)
    assert cli.main(["induce", "--n", "3"]) == 0
    assert cli.main(["induce", "--n", "4"]) == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0, f"took {elapsed:.1f}s"
    announce(3, "induced representation",
             f"m=21,45; certificates: {cert3['generator']}; {cert4['generator']}")


def test_criterion_4_decomposition_laws():
    corpus = []
    for n in (4, 5, 6):
        corpus.append((n, with_transvections(signed_permutation_rep(n), n)))
    plain = with_transvections(signed_permutation_rep(4), 4)
    corpus.append((4, direct_sum(plain, plain)))
    ext = exterior_square_rep(4)
    corpus.append((4, with_transvections(
        ext, 4, build=lambda i, j, nn: schur_square(transvection(i, j, nn), (1, 1)))))
    assert len(corpus) >= 5

    for n, rep in corpus:
        assert not rep.failed_relations(), rep.group.name
        decomp = symreps.simultaneous_eigenspaces(symreps.involution_family(rep, n))
        assert decomp.total_dim() == rep.dim
        assert symreps.divisibility_check(decomp)["ok"]
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    assert not symreps.diamond_violations(rep, decomp, i, j), (n, i, j)

    # the planted counterexample must be caught
    n = 4
    rep = with_transvections(signed_permutation_rep(n), n)
    bad = dict(rep.generators)
    m = [[Fraction(1 if a == b else 0) for b in range(n)] for a in range(n)]
    m[0][2] = Fraction(1)
    bad["rho12"] = Matrix(m)
    badrep = symreps.FiniteRep(
        symreps.GroupDescriptor("planted", tuple(bad), ()), n, bad)
    dec = symreps.simultaneous_eigenspaces(symreps.involution_family(badrep, n))
    assert symreps.diamond_violations(badrep, dec, 1, 2)
    announce(4, "eigenspace decomposition laws",
             f"{len(corpus)} representations, planted case caught")


def test_criterion_5_graph_homology():
    rng = random.Random(314159)
    count = 0
    while count < 200:
        nv = rng.randint(1, 8)
        ne = rng.randint(0, 16)
        verts = [f"v{i}" for i in range(nv)]
        recs = [(f"e{i}", rng.choice(verts), rng.choice(verts))
                for i in range(ne)]
        g = graphs.make_graph(verts, recs)
        expected = len(g.edges) - len(g.vertices) + g.component_count()
        assert graphs.h1_basis(g).cols == expected
        count += 1

    n = 5
    cage_rep = graphs.induced_rep(actions.symmetric_cage(n))
    assert not cage_rep.failed_relations()
    assert multiplicity(cage_rep, "standard", n) == 1
    assert multiplicity(cage_rep, "trivial", n) == 0
    for lam in partitions(n):
        word = adjacent_factorization(class_representative(lam, n))
        assert cage_rep.matrix_of(word).trace() == named_character("standard", n, lam)

    rose_act = actions.alternating_rose(n + 1)
    res = graphs.invariant_orientation(rose_act)
    assert res["orientation"] is not None
    assert res["orbit_count"] == 1 == res["trivial_multiplicity"]
    announce(5, "graph homology",
             "200 random graphs; cage standard module; rose orientation")


def test_criterion_6_admissibility():
    for n in (4, 5, 6):
        conditions = graphs.admissibility_conditions(actions.cage_full(n + 1))
        assert all(holds for _, holds, _ in conditions)

    conditions = graphs.admissibility_conditions(actions.trivial_action(graphs.barbell()))
    assert not all(holds for _, holds, _ in conditions)
    # an action fixing a separating edge: swap the two barbell loops
    bb = graphs.barbell()
    swap = graphs.GraphAut(
        bb, {"u": "w", "w": "u"}, {"lu": "lw", "lw": "lu", "b": "b"}, {"b": True})
    desc = symreps.GroupDescriptor("Z2", ("f",), (("f", "f"),))
    act = graphs.GraphAction(bb, desc, {"f": swap})
    assert not act.failed_relations()
    assert ["b"] in graphs.invariant_forests(act)
    assert not all(holds for _, holds, _ in graphs.admissibility_conditions(act))

    tri = graphs.make_graph(
        ["a", "b", "c"],
        [("e1", "a", "b"), ("e2", "a", "b"), ("e3", "b", "c"), ("e4", "c", "a")])
    witness = admissibility_obstruction(tri)
    m = {e: oracle_min_loop(tri, e) for e in tri.edges}
    assert m == {e: min_loop_through_edge(tri, e) for e in tri.edges}
    brute = []
    for e in tri.edges:
        if m[e] is None:
            continue
        for x in dict.fromkeys(tri.ends[e]):
            others = [f for f in tri.edges if f != e and x in tri.ends[f]]
            if all(m[f] != m[e] for f in others):
                brute.append((e, x))
    assert brute and witness == brute[0]
    announce(6, "admissibility",
             f"cage actions admissible, barbell rejected, witness {witness}")


def test_criterion_7_double_tree():
    for n in (3, 5, 7):
        g = graphs.cage(n)
        xi = actions.vertex_swap(g)
        assert graphs.flips_all_simple_loops(g, xi)
        dt = graphs.double_tree_decomposition(g, xi)
        conclusions = dt.conclusions()
        assert all(conclusions.values()), conclusions
        assert len(dt.f_vertices) == n and not dt.f_edges
        assert len(dt.d_edges) == n
        hub = [v for v in dt.d_vertices if v not in dt.f_vertices]
        assert len(hub) == 1  # a star: one original vertex plus n midpoints
        intersection = dt.d_vertices & dt.d_prime_vertices()
        assert intersection == dt.f_vertices and len(intersection) == n
    announce(7, "double tree", "stars with n midpoint intersection, n=3,5,7")


def test_criterion_8_cross_module_consistency():
    for n in (3, 4, 5, 6):
        g = graphs.cover_of_rose(n)
        assert g.rank() == 2 * n - 1 == len(schreier_symbols(n))
        can = words.inner((n,), n)
        assert cover.cover_matrix(can) == cover.deck_matrix(n)
        assert cover.deck_eigenspace_dims(n) == (n, n - 1)
    announce(8, "cross module consistency", "cover rank, deck matrix, eigenspaces")
