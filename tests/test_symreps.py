"""Eigenspace decompositions, containment and divisibility laws,
symmetric-group characters and multiplicities."""

import math
import random
from fractions import Fraction

import pytest

from conftest import (
    benchmark_inputs,
    class_size,
    determinant_rep,
    direct_sum,
    exterior_square_rep,
    flip_matrix,
    multiplicity,
    named_character,
    partitions,
    signed_permutation_rep,
    symmetric_group_perm_rep,
    to_json,
    transvection,
    with_transvections,
)
from outfn import actions, graphs, symreps
from outfn.linalg import Matrix, schur_square


def oracle_stacked_spaces(mats) -> dict:
    """One kernel of the stacked (n d) x d matrix per subset, all 2^n of
    them: the joint eigenspaces without splitting one involution at a
    time."""
    n, d = len(mats), mats[0].rows
    ident = Matrix.identity(d)
    out = {}
    for mask in range(2 ** n):
        subset = frozenset(j + 1 for j in range(n) if mask >> j & 1)
        blocks = [m - ident.scale(-1 if j in subset else 1)
                  for j, m in enumerate(mats, start=1)]
        stacked = blocks[0]
        for block in blocks[1:]:
            stacked = stacked.vstack(block)
        out[subset] = stacked.kernel_basis()
    return out


def oracle_diamond_holds(rho: Matrix, spaces: dict, i: int, j: int) -> bool:
    """The containment law subset by subset: each image of a basis
    vector of a piece must solve into the span of the allowed pieces."""
    for subset, basis in spaces.items():
        if not basis.cols:
            continue
        allowed = [spaces[subset ^ frozenset(flip)]
                   for flip in ((), (i,), (j,), (i, j))]
        span = Matrix.from_columns(
            [col for b in allowed for col in zip(*b.data)], rows=rho.rows)
        # None as soon as one image column lies outside the span
        if span.solve(rho * basis) is None:
            return False
    return True


def oracle_corpus() -> list:
    """(rank, rep) pairs whose rho matrices satisfy the containment law."""
    corpus = [(n, with_transvections(signed_permutation_rep(n), n)) for n in (2, 3, 4)]
    corpus.append((3, direct_sum(corpus[1][1], corpus[1][1])))
    corpus.append((4, with_transvections(
        exterior_square_rep(4), 4,
        build=lambda i, j, nn: schur_square(transvection(i, j, nn), (1, 1)))))
    return corpus


def oracle_noncommuting(rep, mats, i: int, j: int) -> list:
    """The containment witnesses by plain commutation: the k outside
    {i, j} with e_k r != r e_k, two full products per involution."""
    r = rep.generators[f"rho{i}{j}"]
    return [k for k, e in enumerate(mats, start=1)
            if k not in (i, j) and e * r != r * e]


def conjugated(rep, q: Matrix):
    """rep with every generator g replaced by q^-1 g q."""
    qi = q.inverse()
    gens = {name: qi * m * q for name, m in rep.generators.items()}
    return symreps.FiniteRep(
        symreps.GroupDescriptor("conjugated", tuple(gens), ()), rep.dim, gens)


def fixed_rational_basis(d: int) -> Matrix:
    """A fixed unipotent change of basis, neither monomial nor integral
    (entry 1/(b - a + 1) above the diagonal)."""
    return Matrix([[Fraction(1, b - a + 1) if b >= a else 0 for b in range(d)]
                   for a in range(d)])


def perturbed(rep, rng):
    """A copy of rep with one entry of one rho moved by +-1, kept invertible."""
    while True:
        name = rng.choice(sorted(g for g in rep.generators if g.startswith("rho")))
        data = [list(row) for row in rep.generators[name].data]
        a, b = rng.randrange(rep.dim), rng.randrange(rep.dim)
        data[a][b] += rng.choice((1, -1))
        m = Matrix(data)
        if m.determinant() != 0:
            gens = dict(rep.generators, **{name: m})
            return symreps.FiniteRep(
                symreps.GroupDescriptor("perturbed", tuple(gens), ()), rep.dim, gens)


class TestSimultaneousEigenspaces:
    def test_coordinate_flips(self):
        n = 4
        rep = signed_permutation_rep(n)
        assert not rep.failed_relations()
        dec = symreps.simultaneous_eigenspaces(symreps.involution_family(rep, n))
        assert dec.layer_dims == (0, n, 0, 0, 0)
        assert list(dec.spaces) == [frozenset([i]) for i in range(1, n + 1)]
        for i in range(1, n + 1):
            basis = dec.spaces[frozenset([i])]
            assert basis.shape == (n, 1)
            column = [row[0] for row in basis.data]
            assert column[i - 1] != 0
            assert all(x == 0 for k, x in enumerate(column) if k != i - 1)

    def test_listed_flips_do_not_replace_the_conjugates(self):
        n = 3
        rep = signed_permutation_rep(n)
        gens = dict(rep.generators, e2=Matrix.identity(n), e3=Matrix.identity(n))
        listed = symreps.FiniteRep(rep.group, n, gens)
        assert symreps.involution_family(listed, n) == symreps.involution_family(rep, n)
        s1, s2 = rep.generators["s1"], rep.generators["s2"]
        e2 = s1 * rep.generators["e1"] * s1
        assert symreps.involution_family(rep, n) == [rep.generators["e1"], e2, s2 * e2 * s2]

    def test_all_identity(self):
        dec = symreps.simultaneous_eigenspaces([Matrix.identity(3)] * 2)
        assert list(dec.spaces) == [frozenset()]
        assert dec.spaces[frozenset()].rank() == 3
        assert dec.total_dim() == 3

    def test_matches_stacked_kernel_oracle(self):
        rng = random.Random(5)
        families = [symreps.involution_family(rep, n) for n, rep in oracle_corpus()]
        families.append([Matrix.identity(3)] * 2)
        for _ in range(6):
            # conjugating by a random invertible matrix keeps the family
            # commuting but scrambles the coordinates
            d = 4
            p = Matrix([[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)])
            if p.determinant() != 0:
                q = p.inverse()
                families.append([q * m * p for m in symreps.involution_family(
                    signed_permutation_rep(d), d)])
        for mats in families:
            dec = symreps.simultaneous_eigenspaces(mats)
            oracle = oracle_stacked_spaces(mats)
            nonzero = [s for s, basis in oracle.items() if basis.cols]
            assert list(dec.spaces) == nonzero  # bitmask order, nonzero only
            for subset, basis in dec.spaces.items():
                assert basis.cols == oracle[subset].cols
                assert basis.rank() == basis.cols
                for j, m in enumerate(mats, start=1):
                    assert m * basis == basis.scale(-1 if j in subset else 1)
            # the eigenbasis reading: e_j = P D_j P^-1, D_j the signs of bit j-1
            p = dec.basis
            assert p * dec.basis_inverse == Matrix.identity(p.rows)
            assert dec.labels == tuple(sum(1 << (k - 1) for k in subset)
                                       for subset, basis in dec.spaces.items()
                                       for _ in range(basis.cols))
            for j, m in enumerate(mats, start=1):
                signs = Matrix([[(-1 if dec.labels[a] >> (j - 1) & 1 else 1) if a == b else 0
                                 for b in range(p.cols)] for a in range(p.cols)])
                assert m == p * signs * dec.basis_inverse

    def test_non_involution_rejected(self):
        with pytest.raises(ValueError, match="^input is not an involution$"):
            symreps.simultaneous_eigenspaces([Matrix([[2]])])

    def test_non_commuting_rejected(self):
        a = Matrix([[0, 1], [1, 0]])
        b = Matrix([[1, 0], [0, -1]])
        with pytest.raises(ValueError, match="^involutions do not commute$"):
            symreps.simultaneous_eigenspaces([a, b])

    def test_non_involution_reported_before_non_commuting_pair(self):
        # a and b do not commute, and c (last in the family) is no involution
        a = Matrix([[0, 1], [1, 0]])
        b = Matrix([[1, 0], [0, -1]])
        c = Matrix([[1, 1], [0, 1]])
        with pytest.raises(ValueError, match="^input is not an involution$"):
            symreps.simultaneous_eigenspaces([a, b, c])


class TestDivisibility:
    def test_permutation_rep(self):
        n = 5
        rep = signed_permutation_rep(n)
        dec = symreps.simultaneous_eigenspaces(symreps.involution_family(rep, n))
        out = symreps.divisibility_check(dec)
        assert out["ok"]
        assert dec.layer_dims[1] == n and n % math.comb(n, 1) == 0

    def test_trivial_rep(self):
        n = 4
        gens = {name: Matrix.identity(3)
                for name in symreps.signed_permutation_group(n).generators}
        rep = symreps.FiniteRep(symreps.signed_permutation_group(n), 3, gens)
        dec = symreps.simultaneous_eigenspaces(symreps.involution_family(rep, n))
        assert dec.layer_dims[0] == 3
        assert symreps.divisibility_check(dec)["ok"]

    def test_double_permutation_rep(self):
        n = 4
        rep = signed_permutation_rep(n)
        doubled = direct_sum(rep, rep)
        assert not doubled.failed_relations()
        dec = symreps.simultaneous_eigenspaces(symreps.involution_family(doubled, n))
        assert dec.layer_dims[1] == 2 * n
        assert symreps.divisibility_check(dec)["ok"]


class TestDiamond:
    def test_transvections_pass(self):
        n = 4
        rep = with_transvections(signed_permutation_rep(n), n)
        dec = symreps.simultaneous_eigenspaces(symreps.involution_family(rep, n))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    assert not symreps.diamond_violations(rep, dec, i, j)

    def test_identity_rho_vacuous(self):
        n = 4
        rep = with_transvections(signed_permutation_rep(n), n,
                                 build=lambda i, j, nn: Matrix.identity(nn))
        dec = symreps.simultaneous_eigenspaces(symreps.involution_family(rep, n))
        assert not symreps.diamond_violations(rep, dec, 1, 2)

    def test_planted_counterexample(self):
        # corrupt rho12 so that it moves the flip-3 eigenvector into the
        # flip-1 eigenspace: the symmetric difference {1,3} exceeds {1,2}
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
        assert symreps.diamond_violations(badrep, dec, 1, 2) == [3]

    def test_commutation_matches_subset_oracle(self):
        rng = random.Random(11)
        cases = []
        for n, rep in oracle_corpus():
            cases.append((n, rep))
            cases.extend((n, perturbed(rep, rng)) for _ in range(8))
        verdicts = []
        for n, rep in cases:
            mats = symreps.involution_family(rep, n)
            dec = symreps.simultaneous_eigenspaces(mats)
            oracle = oracle_stacked_spaces(mats)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i != j:
                        holds = oracle_diamond_holds(
                            rep.generators[f"rho{i}{j}"], oracle, i, j)
                        assert (not symreps.diamond_violations(rep, dec, i, j)) == holds, (n, i, j)
                        assert symreps.diamond_violations(rep, dec, i, j) == (
                            oracle_noncommuting(rep, mats, i, j)), (n, i, j)
                        verdicts.append(holds)
        assert True in verdicts and False in verdicts

    def test_witnesses_match_commutation_in_a_rational_basis(self):
        # conjugating the whole rep keeps every commutation, so the
        # witnesses equal the unconjugated rep's, while the eigenbasis
        # now holds fractions
        rng = random.Random(17)
        witnesses, fractional = [], False
        for n, rep in oracle_corpus():
            q = fixed_rational_basis(rep.dim)
            for plain in (rep, perturbed(rep, rng), perturbed(rep, rng)):
                moved = conjugated(plain, q)
                mats = symreps.involution_family(moved, n)
                dec = symreps.simultaneous_eigenspaces(mats)
                fractional = fractional or any(
                    type(x) is Fraction for row in dec.basis.data for x in row)
                plain_mats = symreps.involution_family(plain, n)
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        if i != j:
                            got = symreps.diamond_violations(moved, dec, i, j)
                            assert got == oracle_noncommuting(moved, mats, i, j), (n, i, j)
                            assert got == oracle_noncommuting(plain, plain_mats, i, j)
                            witnesses.append(got)
        assert fractional
        assert [] in witnesses and any(witnesses)

    def test_two_products_per_law(self, monkeypatch):
        n = 4
        rep = with_transvections(signed_permutation_rep(n), n)
        dec = symreps.simultaneous_eigenspaces(symreps.involution_family(rep, n))
        calls = []
        product = Matrix.__mul__
        monkeypatch.setattr(Matrix, "__mul__",
                            lambda a, b: calls.append(1) or product(a, b))
        symreps.diamond_violations(rep, dec, 1, 2)
        assert len(calls) == 2


class TestCharacters:
    def test_standard_at_long_cycle(self):
        assert named_character("standard", 5, (5,)) == -1

    def test_permutation_at_identity(self):
        assert named_character("permutation", 4, (1, 1, 1, 1)) == 4

    def test_signed_standard_at_transposition(self):
        assert named_character("signed_standard", 4, (2, 1, 1)) == -1

    def test_invalid_partition(self):
        with pytest.raises(ValueError):
            named_character("trivial", 4, (3, 2))

    def test_class_sizes_sum_to_group_order(self):
        for n in (3, 4, 5, 6):
            assert sum(class_size(n, lam)
                       for lam in partitions(n)) == math.factorial(n)

    def test_partitions_match_the_filtering_generator(self):
        def oracle(n):
            # every partition of n - first, then those whose parts stay
            # at most first: exponential, but plainly right
            if n == 0:
                yield ()
                return
            for first in range(n, 0, -1):
                for rest in oracle(n - first):
                    if not rest or rest[0] <= first:
                        yield (first,) + rest

        for n in range(15):
            assert list(partitions(n)) == list(oracle(n))
        assert sum(1 for _ in partitions(20)) == 627

    def test_first_orthogonality(self):
        # characters of distinct irreducibles are orthogonal
        for n in (4, 5):
            for a in ("trivial", "determinant", "standard", "signed_standard"):
                for b in ("trivial", "determinant", "standard", "signed_standard"):
                    total = sum(
                        class_size(n, lam)
                        * named_character(a, n, lam)
                        * named_character(b, n, lam)
                        for lam in partitions(n)
                    )
                    assert total == (math.factorial(n) if a == b else 0)


class TestMultiplicity:
    def test_permutation_rep_decomposes(self):
        for n in (4, 5):
            rep = symmetric_group_perm_rep(n)
            assert not rep.failed_relations()
            assert multiplicity(rep, "trivial", n) == 1
            assert multiplicity(rep, "standard", n) == 1
            assert multiplicity(rep, "determinant", n) == 0

    def test_determinant_rep(self):
        n = 4
        rep = determinant_rep(n)
        assert not rep.failed_relations()
        assert multiplicity(rep, "determinant", n) == 1
        for other in ("trivial", "standard", "signed_standard"):
            assert multiplicity(rep, other, n) == 0

    def test_cage_homology_is_standard(self):
        n = 5
        rep = graphs.induced_rep(actions.symmetric_cage(n))
        assert multiplicity(rep, "standard", n) == 1
        assert multiplicity(rep, "trivial", n) == 0

    def test_dimension_budget_with_equality_on_graph_reps(self):
        n = 5
        named_dimension = {"trivial": 1, "determinant": 1, "standard": n - 1,
                           "permutation": n, "signed_standard": n - 1}
        for rep, dim in ((graphs.induced_rep(actions.symmetric_rose(n)), n),
                         (graphs.induced_rep(actions.symmetric_cage(n)), n - 1)):
            used = sum(
                multiplicity(rep, name, n) * named_dimension[name]
                for name in ("trivial", "determinant", "standard", "signed_standard")
            )
            assert used == dim == rep.dim


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
    big = graphs.induced_rep(actions.symmetric_cage(n + 1))
    if big.failed_relations():
        raise AssertionError("cage action fails its defining relations")
    small = symreps.FiniteRep(
        symreps.symmetric_group(n), big.dim,
        {f"s{i}": big.generators[f"s{i}"] for i in range(1, n)},
    )
    if small.failed_relations():
        raise AssertionError("restricted rep fails its defining relations")
    expected = {"standard": 1, "trivial": 1, "determinant": 0, "signed_standard": 0}
    got = {}
    for name in expected:
        if n == 3 and name == "signed_standard":
            continue
        got[name] = multiplicity(small, name, n)
    ok = all(got[k] == v for k, v in expected.items() if k in got)
    return {"n": n, "multiplicities": got, "ok": ok}


class TestBranching:
    def test_branching_rule(self):
        for n in (4, 5):
            out = branching_check(n)
            assert out["ok"]
            assert out["multiplicities"]["standard"] == 1
            assert out["multiplicities"]["trivial"] == 1
            assert out["multiplicities"]["determinant"] == 0

    def test_trivial_restricts_to_trivial(self):
        n = 4
        gens = {f"s{i}": Matrix.identity(1) for i in range(1, n)}
        rep = symreps.FiniteRep(symreps.symmetric_group(n), 1, gens)
        assert multiplicity(rep, "trivial", n) == 1


class TestCrossModuleDecomposition:
    def test_cage_homology_under_coordinate_flips(self):
        # the difference cycles edge_i - edge_last span the cage cycle
        # space; the sign-flip matrices written in that basis decompose
        # with all mass in the singleton layer
        n = 4
        g = graphs.cage(n + 1)
        basis = graphs.h1_basis(g)
        diffs = []
        for i in range(n):
            vec = [Fraction(0)] * (n + 1)
            vec[i] = Fraction(1)
            vec[n] = Fraction(-1)
            diffs.append(vec)
        coords = basis.solve(Matrix.from_columns(diffs))
        assert coords is not None  # every difference is a cycle
        assert coords.rank() == n
        flips = [flip_matrix(i, n) for i in range(1, n + 1)]
        dec = symreps.simultaneous_eigenspaces(flips)
        assert dec.layer_dims == (0, n, 0, 0, 0)


class TestCentralInvolution:
    """``with_central_involution`` reads each generator's order from its
    power relation, and the extension holds in C_o x C_2 with xi = -1."""

    def test_rotation_of_order_three(self):
        c3 = symreps.GroupDescriptor("C3", ("r",), (("r", "r", "r"),))
        desc = symreps.with_central_involution(c3)
        assert desc.relations[-1] == ("xi", "r", "xi", "r", "r")
        rotation = Matrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        minus = Matrix([[-1, 0, 0], [0, -1, 0], [0, 0, -1]])
        rep = symreps.FiniteRep(desc, 3, {"r": rotation, "xi": minus})
        assert rep.failed_relations() == []

    def test_involution_named_like_a_three_cycle(self):
        z2 = symreps.GroupDescriptor("Z2", ("t1",), (("t1", "t1"),))
        desc = symreps.with_central_involution(z2)
        assert desc.relations[-1] == ("xi", "t1", "xi", "t1")
        rep = symreps.FiniteRep(desc, 1, {"t1": Matrix([[-1]]), "xi": Matrix([[-1]])})
        assert rep.failed_relations() == []

    def test_generator_without_a_power_relation(self):
        base = symreps.GroupDescriptor("G", ("a", "b", "c"),
                                       (("a", "b", "a", "b"), ("b", "b"), ()))
        with pytest.raises(ValueError, match="order of a, c$"):
            symreps.with_central_involution(base)

    def test_alternating_extension_unchanged(self):
        a5 = symreps.alternating_group(5)
        desc = symreps.with_central_involution(a5)
        assert (desc.name, desc.generators) == ("A5x2", ("t3", "t4", "t5", "xi"))
        assert desc.relations == a5.relations + (("xi", "xi"),) + tuple(
            ("xi", t, "xi", t, t) for t in ("t3", "t4", "t5"))


class TestRepSerialisation:
    def test_round_trip(self):
        rep = with_transvections(signed_permutation_rep(4), 4)
        back = symreps.FiniteRep.from_json(to_json(rep))
        assert back.dim == rep.dim
        assert back.generators.keys() == rep.generators.keys()
        assert back.generators["rho12"] == transvection(1, 2, 4)
        assert not back.failed_relations()

    @pytest.mark.parametrize("n", [4, 5])
    def test_only_non_involutions_take_a_determinant(self, monkeypatch, n):
        # e1 and s1..s(n-1) have the relations g g and square to the
        # identity; the n (n - 1) transvections rho{i}{j} do not
        obj = benchmark_inputs().signed_exterior_square_rep_file(1, n)
        calls = []
        real = Matrix.determinant
        monkeypatch.setattr(Matrix, "determinant", lambda m: calls.append(m) or real(m))
        rep = symreps.FiniteRep.from_json(obj)
        rhos = [m for name, m in rep.generators.items() if name.startswith("rho")]
        assert len(calls) == len(rhos) == n * (n - 1)
        assert all(c is m for c, m in zip(calls, rhos))
