"""The Schreier rewrite oracle, the double-cover representation, and its
case tables."""

import random

import pytest

from conftest import (
    generator,
    oracle_cover_matrix,
    oracle_kernel_generators,
    oracle_minus_eigenspace_matrix,
    oracle_token_images,
    partial_conjugation,
    reduce_word,
    rewrite_in_kernel,
    schreier_symbols,
    stabilizes_base_functional,
    transvection_commutator,
)
from outfn import cover, graphs, induced, words as W
from outfn.linalg import Matrix


def rand_kernel_word(rng, n, max_len=10):
    """Random even-parity word: append a final letter when the parity is odd."""
    seq = [rng.choice([s * i for i in range(1, n + 1) for s in (1, -1)])
           for _ in range(rng.randint(0, max_len))]
    if sum(1 for x in seq if abs(x) == n) % 2:
        seq.append(n)
    return reduce_word(seq, n)


class TestRewriting:
    def test_plain_generator(self):
        assert rewrite_in_kernel((1,), 3) == ((0, 1),)

    def test_conjugated_generator(self):
        w = reduce_word([3, 1, -3], 3)
        assert rewrite_in_kernel(w, 3) == ((2, 1),)

    def test_unreduced_conjugation(self):
        w = reduce_word([3, 1, 3], 3)
        assert rewrite_in_kernel(w, 3) == ((2, 1), (4, 1))

    def test_odd_parity_rejected(self):
        with pytest.raises(ValueError):
            rewrite_in_kernel((3,), 3)

    def test_round_trips(self):
        rng = random.Random(616)
        for _ in range(120):
            n = rng.choice([2, 3, 4, 5])
            w = rand_kernel_word(rng, n)
            defs = [d for _, d in schreier_symbols(n)]
            letters = []
            for index, e in rewrite_in_kernel(w, n):
                letters += defs[index] if e > 0 else [-x for x in reversed(defs[index])]
            assert reduce_word(letters, n) == w

    def test_symbol_count(self):
        assert len(schreier_symbols(4)) == 7


class TestStabiliser:
    def test_low_transvections_stabilise(self):
        assert stabilizes_base_functional(W.rho(1, 2, 3).forward)

    def test_last_column_transvections_do_not(self):
        assert not stabilizes_base_functional(W.rho(1, 3, 3).forward)

    def test_partial_conjugations_always_stabilise(self):
        for n in (3, 4):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i != j:
                        g = partial_conjugation(i, j, n)
                        assert stabilizes_base_functional(g.forward)

    def test_cover_matrix_requires_membership(self):
        with pytest.raises(ValueError):
            cover.cover_matrix(W.rho(1, 3, 3).forward)

    def test_minus_eigenspace_matrix_requires_membership(self):
        # the last two: odd a_4-parity in the image of a_3, which is read
        # after the image of a_1 and a_2 passed; even a_4-parity in the
        # image of a_4 (a_4 -> a_4^2) after the first three all passed
        images = [a.forward for a in (W.rho(1, 3, 3), generator(3, "sigma", 2, 3),
                                      generator(4, "sigma_star", 4), generator(4, "rho", 3, 4))]
        images.append(((1,), (2,), (3,), (4, 4)))
        for imgs in images:
            with pytest.raises(ValueError, match="does not stabilise"):
                cover.minus_eigenspace_matrix(imgs)
            with pytest.raises(ValueError, match="does not stabilise"):
                cover.cover_matrix(imgs)


class TestCoverMatrix:
    def test_inner_by_low_generator_is_trivial(self):
        n = 4
        for i in range(1, n):
            m = cover.cover_matrix(W.inner((i,), n))
            assert m.is_identity()

    def test_inner_by_last_generator_is_deck(self):
        for n in (3, 4, 5):
            m = cover.cover_matrix(W.inner((n,), n))
            assert m == cover.deck_matrix(n)

    def test_identity(self):
        assert cover.cover_matrix(W.automorphism(3, []).forward).is_identity()

    def _g_pool(self, n, rng):
        pool = [generator(n, "eps", rng.randint(1, n))]
        for _ in range(6):
            i = rng.randint(1, n)
            j = rng.randint(1, n)
            if i == j:
                continue
            pool.append(partial_conjugation(i, j, n))
            if j != n:
                pool.append(W.rho(i, j, n))
                pool.append(generator(n, "lam", i, j))
        return pool

    def test_homomorphism(self):
        rng = random.Random(2024)
        n = 4
        pool = self._g_pool(n, rng)
        for _ in range(25):
            a, b = rng.choice(pool), rng.choice(pool)
            assert cover.cover_matrix((a * b).forward) == \
                cover.cover_matrix(a.forward) * cover.cover_matrix(b.forward)

    def test_deck_commutation(self):
        rng = random.Random(77)
        n = 4
        for a in self._g_pool(n, rng):
            assert cover.commutes_with_deck(a.forward)

    def test_deck_eigenspace_dims(self):
        for n in (3, 4, 5, 6):
            assert cover.deck_eigenspace_dims(n) == (n, n - 1)

    def test_deck_trace(self):
        assert cover.deck_matrix(4).trace() == 1


class TestMinusEigenspace:
    def test_inner_last_is_minus_identity(self):
        n = 4
        m = cover.minus_eigenspace_matrix(W.inner((n,), n))
        assert m == Matrix.identity(n - 1).scale(-1)

    def test_partial_conjugation_into_last(self):
        n = 4
        for i in range(1, n):
            got = cover.minus_eigenspace_matrix(partial_conjugation(i, n, n).forward)
            want = [[1 if r == c else 0 for c in range(n - 1)]
                    for r in range(n - 1)]
            want[i - 1][i - 1] = -1
            assert got == Matrix(want)

    def test_commutator_with_last(self):
        n = 4
        got = cover.minus_eigenspace_matrix(transvection_commutator(1, 2, n, n).forward)
        assert got.data[1][0] == 2     # alpha_1 gains 2 alpha_2
        assert got.data[0][0] == 1
        got = cover.minus_eigenspace_matrix(transvection_commutator(1, n, 3, n).forward)
        assert got.data[2][0] == -2    # alpha_1 loses 2 alpha_3

    def test_low_commutators_act_trivially(self):
        n = 4
        got = cover.minus_eigenspace_matrix(transvection_commutator(1, 2, 3, n).forward)
        assert got.is_identity()


class TestKernelGenerators:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_words_are_the_certified_products(self, n):
        gens = cover.kernel_generators(n)
        want = oracle_kernel_generators(n)
        assert [label for _, label, _, _ in gens] == [label for label, _ in want]
        assert [family for family, *_ in gens] == \
            [label.split(" i=")[0] for label, _ in want]
        for (_, _, word, _), (_, g) in zip(gens, want):
            assert W.relator_automorphism(n, word) == g.forward
            assert W.automorphism(n, word).backward == g.backward


class TestTables:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_all_cases_match(self, n):
        out = cover.verify_ia_action_tables(n)
        assert out["ok"], [c for c in out["checks"] if not c["ok"]]

    def test_checks_are_grouped_by_family(self):
        n = 4
        families = W.family_report((c["family"], c["name"], c["ok"])
                                   for c in cover.verify_ia_action_tables(n)["checks"])
        assert [(f["name"], f["count"]) for f in families] == [
            ("partial conjugation", 12), ("commutator", 24),
            *[(f"conjugation by generator {i}", 1) for i in range(1, n + 1)],
            ("deck eigenspace dimensions", 1),
            ("deck matrix is conjugation by the last generator", 1)]

    def test_a_wrong_case_table_fails_its_check(self, monkeypatch):
        n = 3
        gens = cover.kernel_generators(n)
        family, label, word, table = gens[5]
        monkeypatch.setattr(cover, "kernel_generators", lambda _: [
            *gens[:5], (family, label, word, -table), *gens[6:]])
        out = cover.verify_ia_action_tables(n)
        assert not out["ok"]
        assert [c["name"] for c in out["checks"] if not c["ok"]] == [label]

    def test_deck_commutation_is_checked_for_every_generator(self, monkeypatch):
        n = 3
        monkeypatch.setattr(cover, "commutes_with_deck", lambda a: False)
        out = cover.verify_ia_action_tables(n)
        assert [c["name"] for c in out["checks"] if not c["ok"]] == \
            [label for _, label, _, _ in cover.kernel_generators(n)]

    def test_other_coordinates_always_fixed(self):
        n = 5
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                m = cover.minus_eigenspace_matrix(partial_conjugation(i, j, n).forward)
                for l in range(1, n):
                    if l != i:
                        col = [row[l - 1] for row in m.data]
                        assert col == [1 if r == l - 1 else 0
                                       for r in range(n - 1)]


def coset_elements(n):
    """Every coset element t_target^-1 a t_mask of every stored generator
    of the induced representation, as its forward images."""
    transversal = induced.coset_transversal(n)
    tokens = [("eps", 1, None)] + [(kind, i, j) for i in range(1, n + 1)
                                   for j in range(1, n + 1) if i != j
                                   for kind in ("rho", "lam")]
    for token in tokens:
        a = generator(n, *token)
        for mask, word in transversal.items():
            target = W.automorphism(n, transversal[induced.act_on_mask(a.backward, mask)])
            yield W.compose(target.backward, W.compose(a.forward, W.automorphism(n, word).forward))


def nielsen_tokens(n):
    """Nielsen tokens of all six kinds at rank n."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    tokens = [(kind, i, j) for kind in ("rho", "lam", "sigma") for i, j in pairs]
    tokens += [(kind, i, None) for kind in ("eps", "sigma_star") for i in range(1, n + 1)]
    tokens.append(("delta", None, None))
    return tokens


def stabiliser_tokens(n):
    """Nielsen tokens of all six kinds that fix the base functional."""
    return [t for t in nielsen_tokens(n)
            if stabilizes_base_functional(generator(n, *t).forward)]


class TestTwistedCount:
    """The one-pass twisted count against the restriction extracted from
    the cover matrix through the Schreier rewrite."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_coset_elements_of_the_stored_generators(self, n):
        count = 0
        for h in coset_elements(n):
            assert cover.minus_eigenspace_matrix(h) == oracle_minus_eigenspace_matrix(h)
            count += 1
        assert count == (1 + 2 * n * (n - 1)) * (2 ** n - 1)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_inner_automorphisms(self, n):
        for i in range(1, n + 1):
            a = W.inner((i,), n)
            assert cover.minus_eigenspace_matrix(a) == oracle_minus_eigenspace_matrix(a)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_random_stabiliser_products(self, n):
        rng = random.Random(1300 + n)
        tokens = stabiliser_tokens(n)
        assert {kind for kind, _, _ in tokens} == \
            {"rho", "lam", "sigma", "eps", "sigma_star", "delta"}
        for _ in range(150):
            word = [(rng.choice(tokens), rng.choice((1, -1)))
                    for _ in range(rng.randint(1, 8))]
            a = W.automorphism(n, word).forward
            assert cover.minus_eigenspace_matrix(a) == oracle_minus_eigenspace_matrix(a)


def into_stabiliser(n, word):
    """``word`` followed by transvections that bring the base functional
    back: rho_nj makes the a_n-parity p_n of the image of a_n odd, and
    each rho_kn then makes p_k even (right factors act first)."""
    p = [sum(abs(x) == n for x in img) % 2 for img in oracle_token_images(n, word)]
    if not p[-1]:
        word = word + [(("rho", n, p.index(1) + 1), 1)]
    return word + [(("rho", k, n), 1) for k in range(1, n) if p[k - 1]]


class TestCoverMatrixOracle:
    """The one-pass reading of both cosets against the Schreier rewrite."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_random_words(self, n):
        # random words over all tokens, half of them brought into the
        # stabiliser; the rest mostly leave it
        rng = random.Random(4700 + n)
        tokens = nielsen_tokens(n)
        seen = {True: 0, False: 0}
        for _ in range(300):
            word = [(rng.choice(tokens), rng.choice((1, -1)))
                    for _ in range(rng.randint(0, 8))]
            if rng.random() < 0.5:
                word = into_stabiliser(n, word)
            imgs = tuple(oracle_token_images(n, word))
            try:
                want = oracle_cover_matrix(imgs)
            except ValueError as e:
                assert str(e) == "automorphism does not stabilise the base functional"
                with pytest.raises(ValueError, match=f"^{e}$"):
                    cover.cover_matrix(imgs)
                seen[False] += 1
            else:
                assert cover.cover_matrix(imgs) == want
                seen[True] += 1
        assert min(seen.values()) >= 50, seen


class TestCrossModule:
    def test_cover_graph_rank_matches_symbol_count(self):
        for n in (3, 4, 5, 6):
            g = graphs.cover_of_rose(n)
            assert g.rank() == 2 * n - 1 == len(schreier_symbols(n))
