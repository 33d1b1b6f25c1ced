"""Coset transversal, block induction, relator suite, non-factoring."""

import io
import json
import random
import tracemalloc
from functools import lru_cache
from itertools import permutations

import pytest

from conftest import (
    flip_one_exponent,
    functional_to_mask,
    generator,
    mask_to_functional,
    oracle_act_on_functional,
    oracle_act_on_mask,
    oracle_kernel_generators,
    oracle_minus_eigenspace_matrix,
    partial_conjugation,
    spelt_out,
    transvection_commutator,
)
from outfn import cover, induced, words as W
from outfn.linalg import Matrix, schur_square


class TestTransversal:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_covers_every_functional(self, n):
        tr = induced.coset_transversal(n)
        assert len(tr) == 2 ** n - 1
        base = 1 << (n - 1)
        assert tr[base] == ()
        for mask, word in tr.items():
            assert induced.act_on_mask(W.automorphism(n, word).backward, base) == mask

    def test_single_bit_uses_a_swap(self):
        n = 3
        tr = induced.coset_transversal(n)
        word = tr[functional_to_mask((1, 0, 0))]
        assert word == ((("sigma", 1, 3), 1),)
        assert W.relator_automorphism(n, word) == generator(3, "sigma", 1, 3).forward

    def test_mask_round_trip(self):
        for n in (3, 4):
            for mask in range(1, 2 ** n):
                s = mask_to_functional(mask, n)
                assert functional_to_mask(s) == mask
            # the base mask reads the parity of the last generator
            assert mask_to_functional(1 << (n - 1), n) == (0,) * (n - 1) + (1,)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_the_compose_chain_construction(self, n):
        tr = induced.coset_transversal(n)
        want = oracle_coset_transversal(n)
        assert list(tr) == list(want)
        for mask, word in tr.items():
            t = W.automorphism(n, word)
            assert t.forward == want[mask].forward
            assert t.backward == want[mask].backward

    def test_a_word_off_its_coset_is_refused(self):
        # two masks' words swapped: each carries the base functional onto
        # the other mask, which the representation checks when it is made
        n = 3
        tr = dict(induced.coset_transversal(n))
        tr[0b001], tr[0b010] = tr[0b010], tr[0b001]
        with pytest.raises(AssertionError, match="^transversal element misses its coset$"):
            induced.InducedRep(n, (2,), tr)


class TestMaskAction:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_the_abelianisation_oracle_and_the_left_action_law(self, n):
        rng = random.Random(30 + n)
        for _ in range(12):
            f = random_word(rng, n, rng.randrange(0, 5))
            g = random_word(rng, n, rng.randrange(0, 5))
            fa, ga = W.automorphism(n, f), W.automorphism(n, g)
            moved = W.relator_automorphism(n, W._inv_word(f + g))
            for mask in range(1, 2 ** n):
                fg = induced.act_on_mask((fa * ga).backward, mask)
                assert fg == oracle_act_on_mask(fa * ga, mask)
                assert fg == induced.act_on_mask(moved, mask)
                assert fg == induced.act_on_mask(fa.backward,
                                                 induced.act_on_mask(ga.backward, mask))

    def test_an_automorphism_is_refused(self):
        # its forward images are not the images of the inverse: mod 2,
        # rho12 rho23 has order 4
        a = W.rho(1, 2, 3) * W.rho(2, 3, 3)
        assert any(induced.act_on_mask(a.backward, mask) != induced.act_on_mask(a.forward, mask)
                   for mask in range(1, 8))
        for refused in (a, list(a.backward)):
            with pytest.raises(TypeError, match="images of a\\^-1"):
                induced.act_on_mask(refused, 0b001)


class TestBlocks:
    def test_identity_block(self):
        rep = induced.induce(3)
        assert rep.is_identity(rep.block_of([]))
        assert read(rep, rep.block_of([])) == block_identity(rep)

    def test_block_structure_is_a_permutation(self):
        rep = induced.induce(3)
        for name, (rows, ids) in rep.generators.items():
            assert sorted(rows) == list(range(len(rep.cosets))) and len(ids) == len(rows), name

    def test_block_product_matches_dense_product(self):
        rep = induced.induce(3)
        a = read(rep, rep.generators["rho12"])
        b = read(rep, rep.generators["eps1"])
        dense = to_dense(rep, a) * to_dense(rep, b)
        assert to_dense(rep, block_product(a, b)) == dense
        word = [(("rho", 1, 2), 1), (("eps", 1, None), 1)]
        assert to_dense(rep, read(rep, rep.columns(word))) == dense

    def test_block_of_is_multiplicative(self):
        rep = induced.induce(3)
        rng = random.Random(3)
        pool = [[(("rho", 1, 2), 1)], [(("lam", 2, 3), 1)], [(("eps", 1, None), 1)],
                [(("sigma", 1, 3), 1)]]
        for _ in range(10):
            g, h = rng.choice(pool), rng.choice(pool)
            lhs = read(rep, rep.block_of(g + h))
            rhs = block_product(read(rep, rep.block_of(g)), read(rep, rep.block_of(h)))
            assert to_dense(rep, lhs) == to_dense(rep, rhs)

    @pytest.mark.parametrize("n", [3, 4])
    def test_a_wrong_target_fails_the_stabiliser_check(self, monkeypatch, n):
        # flipping bit 1 of every odd target keeps the block rows a
        # permutation, so only the stabiliser check can catch it
        rep = induced.induce(n)
        real = induced.act_on_mask

        def flipped(inverse, mask):
            target = real(inverse, mask)
            return target ^ (target & 1) << 1
        monkeypatch.setattr(induced, "act_on_mask", flipped)
        for token in stored_tokens(n):
            with pytest.raises(ValueError, match="does not stabilise the base functional"):
                rep.block_of([(token, 1)])


class TestInduce:
    def test_dimension_at_rank_three(self):
        rep = induced.induce(3)
        assert rep.mu == (2,)
        assert rep.m == 21 == 7 * 3

    def test_dimension_at_rank_four(self):
        rep = induced.induce(4)
        assert rep.mu == (1, 1)
        assert rep.m == 45 == 15 * 3

    def test_exterior_square_rejected_at_rank_three(self):
        with pytest.raises(ValueError):
            induced.induce(3, (1, 1))

    def test_unsupported_partition(self):
        with pytest.raises(ValueError):
            induced.induce(4, (3,))

    def test_relator_suite_rank_three(self):
        rep = induced.induce(3)
        out = rep.relator_report()
        assert out["ok"], out

    def test_total_twist_lands_on_identity(self):
        # inner automorphisms must act trivially on the induced side
        n, j = 3, 2
        rep = induced.induce(n)
        word = []
        for i in range(1, n + 1):
            if i != j:
                word += [(("rho", i, j), 1), (("lam", i, j), -1)]
        assert W.is_inner(W.automorphism(n, word).forward) is not None
        assert rep.is_identity(rep.block_of(word))
        assert rep.is_identity(rep.columns(word))

    def test_json_shape(self):
        rep = induced.induce(3)
        obj = json.loads(written(rep))
        assert obj["m"] == 21
        assert len(obj["cosets"]) == 7
        assert "rho12" in obj["generators"]
        m = Matrix.from_json(obj["generators"]["rho12"])
        assert m.shape == (21, 21)
        assert m == to_dense(rep, read(rep, rep.generators["rho12"]))

    @pytest.mark.parametrize("n,mu", [(3, (2,)), (4, (1, 1)), (4, (2,))])
    def test_write_json_is_json_dumps_of_the_dense_matrices(self, n, mu):
        rep = induced.induce(n, mu)
        want = {"n": n, "mu": list(mu), "m": rep.m, "cosets": list(rep.cosets),
                "generators": {name: to_dense(rep, read(rep, columns)).to_json()
                               for name, columns in rep.generators.items()}}
        assert written(rep) == json.dumps(want) + "\n"

    @pytest.mark.parametrize("mu", [(1, 1), (2,)])
    def test_write_json_holds_no_dense_grid(self, mu):
        # the n = 5 file is 7.1 MB (19.7 MB for the symmetric square);
        # a writer that builds the dense entry grid peaks above its size
        class CountingSink:  # keeps no text
            size = 0

            def write(self, text):
                self.size += len(text)

        rep = induced.induce(5, mu)
        sink = CountingSink()
        tracemalloc.start()
        try:
            rep.write_json(sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.size > 7_000_000
        assert peak < sink.size / 4


class TestCertificate:
    def test_rank_three(self):
        rep = induced.induce(3)
        cert = induced.check_not_factoring(rep)
        assert cert["found"]
        assert cert["kernel_membership"]
        assert cert["nilpotency_index"] >= 2

    def test_rank_four(self):
        rep = induced.induce(4)
        cert = induced.check_not_factoring(rep)
        assert cert["found"]
        assert cert["kernel_membership"]

    def test_certificate_matrix_is_unipotent_but_not_identity(self):
        import re

        rep = induced.induce(3)
        cert = induced.check_not_factoring(rep)
        label = cert["generator"]
        nums = [int(v) for v in re.findall(r"=(\d+)", label)]
        g = transvection_commutator(*nums, rep.n) if "commutator" in label \
            else partial_conjugation(*nums, rep.n)
        dense = to_dense(rep, oracle_block_of(rep, g))
        assert not dense.is_identity()
        nil = dense - Matrix.identity(rep.m)
        power = Matrix.identity(rep.m)
        for _ in range(cert["nilpotency_index"]):
            power = power * nil
        assert power.is_zero()

    def test_partial_conjugations_rejected_by_the_scan(self):
        # nontrivial image, but with -1 eigenvalues mixed in: the scan
        # must classify it as not unipotent and move on
        rep = induced.induce(3)
        columns = rep.block_of([(("rho", 1, 2), 1), (("lam", 1, 2), -1)])
        assert not rep.is_identity(columns)
        assert rep.unipotency_index(columns) is None
        base_index = rep.cosets.index(functional_to_mask((0, 0, 1)))
        row, i = columns[0][base_index], columns[1][base_index]
        assert row == base_index and rep.block(i).is_identity()


# ---------------------------------------------------------------------------
# oracles: the certified evaluation that the stored-block path replaced, and
# the stored-block evaluation without interning or memoised products, both
# on block matrices written out as tuples of (block row, Matrix) per
# block-column


def read(rep, columns):
    """Columns ``(rows, ids)`` as dense blocks S(g), read through the
    representation's block table."""
    return tuple((r, rep.block(i)) for r, i in zip(*columns))


def stored_g(rep, columns):
    """Columns ``(rows, ids)`` as the matrices g up to sign that the
    table holds."""
    return tuple((r, Matrix(rep.blocks.rows(i))) for r, i in zip(*columns))


def entries(g):
    """The entries of a ``Matrix`` in row-major order, as the block table
    interns them."""
    return [x for row in g.data for x in row]


def written(rep):
    """The text ``write_json`` writes for the representation."""
    buffer = io.StringIO()
    rep.write_json(buffer)
    return buffer.getvalue()


def to_dense(rep, block):
    m = rep.m
    d = rep.dim_u
    data = [[0] * m for _ in range(m)]
    for c, (r, g) in enumerate(block):
        for i, row in enumerate(g.data):
            data[r * d + i][c * d:(c + 1) * d] = row
    return Matrix(data, cols=m)


def block_identity(rep):
    ident = Matrix.identity(rep.dim_u)
    return tuple((c, ident) for c in range(len(rep.cosets)))


def block_product(a, b):
    """Block-column c of a b: the block of b in column c, sitting in
    block-row mid, multiplied into block-column mid of a."""
    cols = []
    for mid, q in b:
        r, p = a[mid]
        cols.append((r, p * q))
    return tuple(cols)


def block_inverse(a):
    """Transposed block permutation, each block inverted exactly."""
    cols = [None] * len(a)
    for c, (r, g) in enumerate(a):
        cols[r] = (c, g.inverse())
    return tuple(cols)


def copy_rep(rep, replaced=None):
    """A fresh representation with the same generator blocks, each g
    interned in a table of its own; ``replaced`` maps names to
    substitute columns of (block row, g)."""
    out = induced.InducedRep(rep.n, rep.mu, rep.transversal)
    for name, columns in rep.generators.items():
        block = (replaced or {}).get(name) or stored_g(rep, columns)
        out.generators[name] = (tuple(r for r, _ in block),
                                tuple(out.blocks.intern(entries(g)) for _, g in block))
    return out


def stored_letters(rep):
    """Letter blocks read from ``rep.generators``, inverted by
    ``block_inverse`` for exponent -1."""
    cache = {}

    def letter(token, e):
        if (token, e) not in cache:
            block = read(rep, rep.generators[induced.generator_name(token)])
            cache[token, e] = block if e > 0 else block_inverse(block)
        return cache[token, e]
    return letter


def oracle_word_block(rep, word, letter=None):
    """Product of the letter blocks of a token word from the identity."""
    letter = letter or stored_letters(rep)
    acc = block_identity(rep)
    for token, e in word:
        acc = block_product(acc, letter(token, e))
    return acc


@lru_cache(maxsize=None)
def oracle_coset_transversal(n):
    """The transversal as a chain of certified products: sigma_pn (or the
    identity), then rho_kp composed on the left for each other set bit k
    in ascending order, p being n when that bit is set, else the
    smallest set bit."""
    out = {}
    for mask in range(1, 2 ** n):
        bits = [i + 1 for i in range(n) if (mask >> i) & 1]
        p = n if n in bits else bits[0]
        t = generator(n, "sigma", p, n) if p != n else W.automorphism(n, [])
        for k in bits:
            if k != p:
                t = W.rho(k, p, n) * t
        out[mask] = t
    return out


def oracle_block_of(rep, a):
    """Every coset element t_target^-1 a t_mask built as a certified
    ``Automorphism`` from the compose-chain transversal, its block read
    off the minus eigenspace through the Schreier rewrite."""
    transversal = oracle_coset_transversal(rep.n)
    index = {mask: i for i, mask in enumerate(rep.cosets)}
    cols = []
    for mask in rep.cosets:
        target = oracle_act_on_mask(a, mask)
        h = transversal[target].inverse() * (a * transversal[mask])
        cols.append((index[target],
                     schur_square(oracle_minus_eigenspace_matrix(h.forward), rep.mu)))
    return tuple(cols)


def oracle_letters(rep):
    """Letter blocks by ``oracle_block_of`` of the Nielsen generator."""
    cache = {}

    def letter(token, e):
        if (token, e) not in cache:
            g = generator(rep.n, *token)
            cache[token, e] = oracle_block_of(rep, g if e > 0 else g.inverse())
        return cache[token, e]
    return letter


def oracle_relator_report(rep, letter=None):
    """Each relator as the product of its letter blocks from the identity."""
    letter = letter or oracle_letters(rep)
    ident = block_identity(rep)
    rows = [(family, label, oracle_word_block(rep, word, letter) == ident)
            for family, label, word in W.gersten_relators(rep.n)]
    families = W.family_report(rows)
    return {"n": rep.n, "m": rep.m, "families": families,
            "ok": all(not fam["failures"] for fam in families)}


def stored_tokens(n):
    return [("eps", 1, None)] + [(kind, i, j) for i, j in permutations(range(1, n + 1), 2)
                                 for kind in ("rho", "lam")]


def random_word(rng, n, length):
    """A random token word over all six Nielsen kinds, each letter
    inverted with probability one half."""
    kinds = [("rho", True), ("lam", True), ("sigma", True), ("eps", False),
             ("sigma_star", False), ("delta", None)]
    word = []
    for _ in range(length):
        kind, pair = rng.choice(kinds)
        i, j = rng.sample(range(1, n + 1), 2)
        args = (i, j) if pair else (i, None) if pair is False else (None, None)
        word.append(((kind, *args), 1 if rng.random() < 0.5 else -1))
    return word


def elementary(dim, a, b, c=1):
    """I + c e_ab, a unimodular elementary row operation."""
    return Matrix([[int(r == k) + (c if (r, k) == (a, b) else 0)
                    for k in range(dim)] for r in range(dim)])


def random_unimodular(rng, k):
    """A seeded random g in GL_k(Z): a product of elementary and signed
    permutation matrices."""
    g = Matrix.identity(k)
    for _ in range(6):
        if rng.random() < 0.5:
            a, b = rng.sample(range(k), 2)
            step = elementary(k, a, b, rng.choice((-2, -1, 1, 2)))
        else:
            perm = rng.sample(range(k), k)
            step = Matrix([[rng.choice((1, -1)) if perm[r] == c else 0 for c in range(k)]
                           for r in range(k)])
        g = g * step
    return g


def product(blocks, i, j):
    """Id of g_i g_j through the product table of the right factor j."""
    blocks.table(j)
    return blocks.multiply(i, j)


def whole_word_block_of(rep, word):
    """Columns of a token word as (block row, g) with each coset element
    t_target^-1 w t_mask moved as one whole word from the identity
    images, g read off ``cover.minus_eigenspace_matrix``."""
    n, t = rep.n, rep.transversal
    inverse = W.relator_automorphism(n, W._inv_word(word))
    cols = []
    for mask in rep.cosets:
        target = induced.act_on_mask(inverse, mask)
        h = W.relator_automorphism(n, [*W._inv_word(t[target]), *word, *t[mask]])
        cols.append((rep.cosets.index(target), cover.minus_eigenspace_matrix(h)))
    return tuple(cols)


def failing_labels(report):
    return [(fam["name"], label) for fam in report["families"]
            for label in fam["failures"]]


@pytest.fixture(scope="module")
def reps():
    return {3: induced.induce(3), 4: induced.induce(4)}


class TestStoredBlockOracle:
    @pytest.mark.parametrize("n", [3, 4])
    def test_relator_families_match_the_old_evaluation(self, reps, n):
        rep = reps[n]
        new = rep.relator_report()
        assert new == oracle_relator_report(rep)
        assert new == oracle_relator_report(rep, stored_letters(rep))
        assert new["ok"]

    # op is an elementary operation on the (n-1) x (n-1) matrix g of
    # one stored block; the oracle applies S to the perturbed g
    @pytest.mark.parametrize("n,name,column,op", [
        (3, "rho12", 0, (0, 1, 1)),
        (3, "lam23", 4, (1, 0, -1)),
        (3, "eps1", 6, (1, 0, 2)),
        (4, "rho31", 9, (2, 1, 1)),
    ])
    def test_perturbed_block_fails_the_same_relators(self, reps, n, name, column, op):
        rep = reps[n]
        good = read(rep, rep.generators[name])
        row = good[column][0]
        e = elementary(rep.n - 1, *op)
        e_inv = elementary(rep.n - 1, op[0], op[1], -op[2])

        def only_block(mat):
            ident = Matrix.identity(rep.dim_u)
            return tuple((c, mat if c == row else ident) for c in range(len(rep.cosets)))

        bad_g = tuple((r, e * g if c == column else g)
                      for c, (r, g) in enumerate(stored_g(rep, rep.generators[name])))
        bad = tuple((r, schur_square(g, rep.mu)) for r, g in bad_g)
        assert bad == block_product(only_block(schur_square(e, rep.mu)), good)
        assert sum(b != g for b, g in zip(bad, good)) == 1
        token = next(t for t in stored_tokens(n) if induced.generator_name(t) == name)
        bad_inverse = block_product(oracle_block_of(rep, generator(n, *token).inverse()),
                                    only_block(schur_square(e_inv, rep.mu)))
        base = oracle_letters(rep)

        def letter(tok, sign):
            if tok == token:
                return bad if sign > 0 else bad_inverse
            return base(tok, sign)

        perturbed = copy_rep(rep, {name: bad_g})
        new = failing_labels(perturbed.relator_report())
        assert new and new == failing_labels(oracle_relator_report(rep, letter))
        assert new == failing_labels(
            oracle_relator_report(perturbed, stored_letters(perturbed)))

    @pytest.mark.parametrize("n", [3, 4])
    def test_block_of_matches_the_certified_evaluation(self, reps, n):
        rep = reps[n]
        rng = random.Random(n)
        for length in [0, 1, 1, 2, 3, 4, 5, 6]:
            word = random_word(rng, n, length)
            assert read(rep, rep.block_of(word)) == oracle_block_of(rep, W.automorphism(n, word))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_block_of_matches_the_whole_word_evaluation(self, n):
        # the images of t_target^-1 are moved once per coset and shared by
        # every block_of; the old evaluation moved the whole word afresh
        rep = induced.induce(n)
        rng = random.Random(60 + n)
        words = [[(token, 1)] for token in stored_tokens(n)]
        words += [random_word(rng, n, length) for length in range(7) for _ in range(3)]
        for word in words:
            want = whole_word_block_of(rep, word)
            rows, ids = rep.block_of(word)
            assert list(rows) == [r for r, _ in want]
            for i, (_, g) in zip(ids, want):
                assert Matrix(rep.blocks.rows(i)) in (g, -g)
        for token in stored_tokens(n):
            assert rep.generators[induced.generator_name(token)] == rep.block_of([(token, 1)])

    @pytest.mark.parametrize("n", [3, 4])
    def test_generator_inverses(self, reps, n):
        rep = reps[n]
        tokens = stored_tokens(n)
        assert [induced.generator_name(t) for t in tokens] == list(rep.generators)
        ident = block_identity(rep)
        for token in tokens:
            g = read(rep, rep.generators[induced.generator_name(token)])
            inv = block_inverse(g)
            assert block_product(g, inv) == ident == block_product(inv, g)
            assert inv == oracle_block_of(rep, generator(n, *token).inverse())
            assert read(rep, rep.columns([(token, -1)])) == inv
            assert all(type(x) is int for _, b in inv for row in b.data for x in row)

    @pytest.mark.parametrize("n", [3, 4])
    def test_certificate_words_are_the_cover_automorphisms(self, reps, n):
        rep = reps[n]
        got = cover.kernel_generators(n)
        want = oracle_kernel_generators(n)
        assert [label for _, label, _, _ in got] == [label for label, _ in want]
        for (_, _, word, _), (_, g) in zip(got, want):
            assert rep.columns(word) == rep.block_of(word)
            assert read(rep, rep.columns(word)) == oracle_block_of(rep, g) \
                == oracle_word_block(rep, word)

    @pytest.mark.parametrize("n", [3, 4])
    def test_stabilizer_test_matches_the_functional_action(self, reps, n):
        rep = reps[n]
        base = (0,) * (n - 1) + (1,)
        rng = random.Random(10 + n)
        pool = [W.automorphism(n, random_word(rng, n, rng.randrange(0, 5)))
                for _ in range(40)]
        transversal = {mask: W.automorphism(n, word)
                       for mask, word in rep.transversal.items()}
        for mask, t in transversal.items():
            a = pool[mask % len(pool)]
            target = induced.act_on_mask(a.backward, mask)
            pool.append(transversal[target].inverse() * a * t)
        seen = set()
        for a in pool:
            want = oracle_act_on_functional(a, base) == base
            assert induced.act_on_mask(a.backward, 1 << (n - 1)) == \
                functional_to_mask(oracle_act_on_functional(a, base))
            assert cover.stabilizes_base_functional(a.forward) == want
            assert cover.stabilizes_base_functional(a.backward) == want
            seen.add(want)
        assert seen == {True, False}


# the square functors with the dimensions of g they are used at: the
# symmetric square from rank 3, the exterior square from rank 4
SQUARES = [(2, (2,)), (3, (1, 1)), (3, (2,)), (4, (1, 1)), (4, (2,))]


class TestUpToSign:
    """S(gh) = S(g) S(h), and S(g) = S(h) iff g = +-h: the two facts that
    let the block table hold g up to sign."""

    @pytest.mark.parametrize("k,mu", SQUARES)
    def test_square_lemma_on_random_unimodular_matrices(self, k, mu):
        rng = random.Random(40 + 2 * k + len(mu))
        for _ in range(12):
            g, h = random_unimodular(rng, k), random_unimodular(rng, k)
            assert schur_square(g * h, mu) == schur_square(g, mu) * schur_square(h, mu)
            assert schur_square(-g, mu) == schur_square(g, mu)
            a, b = rng.sample(range(k), 2)
            perturbed = elementary(k, a, b, rng.choice((-1, 1))) * g
            assert perturbed != g and perturbed != -g
            assert schur_square(perturbed, mu) != schur_square(g, mu)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_table_interns_up_to_sign(self, k):
        rng = random.Random(70 + k)
        blocks = induced._Blocks(k)
        for _ in range(12):
            g, h = random_unimodular(rng, k), random_unimodular(rng, k)
            i, j = blocks.intern(entries(g)), blocks.intern(entries(h))
            assert blocks.intern(entries(-g)) == i
            first = next(x for row in blocks.rows(i) for x in row if x)
            assert first > 0 and Matrix(blocks.rows(i)) in (g, -g)
            assert Matrix(blocks.rows(product(blocks, i, j))) in (g * h, -(g * h))
            assert Matrix(blocks.rows(blocks.inverse(i))) in (g.inverse(), -g.inverse())

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_integer_inverse_matches_matrix_inverse(self, k):
        # Euclid on each column, then a +-1 pivot: the same inverse as
        # the Fraction Gauss-Jordan of ``Matrix.inverse``, up to sign
        rng = random.Random(110 + k)
        blocks = induced._Blocks(k)
        for _ in range(12):
            g = random_unimodular(rng, k)
            inverse = blocks.flat[blocks.inverse(blocks.intern(entries(g)))]
            assert all(type(x) is int for x in inverse)
            assert inverse in (tuple(entries(g.inverse())), tuple(entries(-g.inverse())))

    def test_integer_inverse_runs_euclid_and_refuses_non_unimodular_blocks(self):
        # no +-1 entry in the first column of [[2, 3], [3, 5]]: the pivot
        # comes out of Euclid on 2 and 3
        blocks = induced._Blocks(2)
        g = Matrix([[2, 3], [3, 5]])
        assert blocks.flat[blocks.inverse(blocks.intern(entries(g)))] == (5, -3, -3, 2)
        assert Matrix(blocks.rows(blocks.inverse(blocks.intern(entries(g))))) == g.inverse()
        for bad in ([[1, 2], [2, 4]], [[2, 0], [0, 1]], [[0, 0], [0, 0]]):
            with pytest.raises(ValueError):
                blocks.inverse(blocks.intern(entries(Matrix(bad))))
        blocks = induced._Blocks(3)
        for bad in ([[1, 2, 3], [4, 5, 6], [7, 8, 9]], [[1, 1, 0], [1, -1, 0], [0, 0, 1]]):
            assert Matrix(bad).determinant() in (0, -2)
            with pytest.raises(ValueError):
                blocks.inverse(blocks.intern(entries(Matrix(bad))))

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_kernel_products_match_matrix_mul(self, k):
        # the straight-line kernel against ``Matrix.__mul__`` (``_product_rows``),
        # on every pair of unimodular, dense, signed permutation and +-I
        # factors, each product and its negative both landing on the id of
        # the exact product with its first nonzero entry positive
        rng = random.Random(90 + k)
        ident = Matrix.identity(k)
        factors = [ident, -ident]
        for _ in range(4):
            perm = rng.sample(range(k), k)
            factors.append(Matrix([[rng.choice((1, -1)) if perm[r] == c else 0
                                    for c in range(k)] for r in range(k)]))
            factors.append(random_unimodular(rng, k))
            factors.append(Matrix([[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]))
        blocks = induced._Blocks(k)
        ids = [blocks.intern(entries(g)) for g in factors]
        for g, i in zip(factors, ids):
            for h, j in zip(factors, ids):
                gh = g * h
                table = blocks.table(j)
                k_id = blocks.multiply(i, j)
                assert table[i] == k_id and blocks.table(j) is table
                assert blocks.intern(entries(gh)) == blocks.intern(entries(-gh)) == k_id
                assert Matrix(blocks.rows(k_id)) in (gh, -gh)
                assert next((x for x in blocks.flat[k_id] if x), 1) > 0

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_kernel_products_are_exact_on_big_integers(self, k):
        # entries near +-2^70, with zero rows, far past any float or
        # machine word: every product is the exact ``Matrix.__mul__`` one
        rng = random.Random(130 + k)
        big = 2 ** 70

        def factor():
            rows = [[rng.choice((1, -1)) * (big + rng.randint(-5, 5)) for _ in range(k)]
                    for _ in range(k)]
            for r in rng.sample(range(k), rng.randint(0, k - 1)):
                rows[r] = [0] * k
            return Matrix(rows)
        factors = [factor() for _ in range(6)]
        blocks = induced._Blocks(k)
        ids = [blocks.intern(entries(g)) for g in factors]
        for g, i in zip(factors, ids):
            for h, j in zip(factors, ids):
                blocks.table(j)
                product = blocks.flat[blocks.multiply(i, j)]
                assert all(type(x) is int for x in product)
                assert product in (tuple(entries(g * h)), tuple(entries(-(g * h))))

    @pytest.mark.parametrize("n,mu", [(3, (2,)), (4, (1, 1)), (4, (2,))])
    def test_ids_match_the_distinct_dense_blocks(self, n, mu):
        rep = induced.induce(n, mu)
        rng = random.Random(80 + n + len(mu))
        words = [[(token, 1)] for token in stored_tokens(n)]
        words += [random_word(rng, n, length) for length in (2, 3, 4, 5)]
        pairs = set()
        for word in words:
            dense = oracle_block_of(rep, W.automorphism(n, word))
            rows, ids = rep.block_of(word)
            assert list(rows) == [r for r, _ in dense]
            pairs |= {(i, tuple(map(tuple, b.data))) for i, (_, b) in zip(ids, dense)}
        ids = {i for i, _ in pairs}
        assert ids == set(range(len(rep.blocks.flat)))
        assert len(ids) == len(pairs) == len({b for _, b in pairs})


class TestWordBlocks:
    def test_empty_word_is_the_identity(self, reps):
        rep = reps[3]
        assert rep.is_identity(rep.columns([]))
        assert read(rep, rep.columns([])) == block_identity(rep)

    @pytest.mark.parametrize("n", [3, 4])
    def test_word_blocks_match_the_stored_block_oracle(self, reps, n):
        rep = reps[n]
        rng = random.Random(20 + n)
        tokens = stored_tokens(n)
        for length in range(9):
            word = [(rng.choice(tokens), rng.choice((1, -1))) for _ in range(length)]
            assert read(rep, rep.columns(word)) == oracle_word_block(rep, word)

    def test_block_products_are_memoised_per_representation(self, monkeypatch):
        rep = induced.induce(3)
        assert rep.relator_report()["ok"]
        fresh = copy_rep(rep)
        products = []
        for blocks in (rep.blocks, fresh.blocks):
            real = blocks._product
            monkeypatch.setattr(blocks, "_product",
                                lambda g, h, real=real: products.append((g, h)) or real(g, h))
        assert rep.relator_report()["ok"]
        assert products == []
        assert fresh.relator_report()["ok"]
        assert products and len(set(products)) == len(products)
        # each letter looks its products up in the table of its own id,
        # one table per right factor, which the misses filled
        blocks = fresh.blocks
        for _, ids, _, tables in fresh._letters.values():
            assert all(t is blocks.table(j) for t, j in zip(tables, ids))
        assert sum(map(len, (blocks.table(j) for j in blocks._right))) == len(products)

    def test_letter_without_a_stored_block_raises(self, reps):
        with pytest.raises(KeyError, match="sigma12"):
            reps[3].columns([(("rho", 1, 2), 1), (("sigma", 1, 2), 1)])

    def test_no_certified_automorphism_on_the_block_path(self, monkeypatch):
        for name in ("compose", "automorphism", "Automorphism", "BlockMatrix"):
            assert not hasattr(induced, name)

        def forbidden(*args, **kwargs):
            raise AssertionError("called on the block path")
        monkeypatch.setattr(W.Automorphism, "__post_init__", forbidden)
        apply = W.apply
        for mod in (W, cover, induced):
            if vars(mod).get("apply") is apply:
                monkeypatch.setattr(mod, "apply", forbidden)
        assert cover.apply is forbidden
        for name in ("automorphism", "compose", "rho"):
            monkeypatch.setattr(W, name, forbidden)
        for n in (3, 4):
            rep = induced.induce(n)
            rep.block_of([(("rho", 1, 2), 1), (("eps", 1, None), 1),
                          (("sigma_star", 2, None), 1)])
            with monkeypatch.context() as inner:
                inner.setattr(induced.InducedRep, "block_of", forbidden)
                assert rep.relator_report()["ok"]
                assert induced.check_not_factoring(rep)["found"]
                assert json.loads(written(rep))["m"] == rep.m

    def test_no_schreier_rewrite_on_the_induce_path(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("Schreier rewrite called on the induce path")
        for name in ("cover_matrix", "rewrite_in_kernel", "schreier_symbols"):
            monkeypatch.setattr(cover, name, forbidden)
        rep = induced.induce(4)
        assert rep.relator_report()["ok"]
        assert induced.check_not_factoring(rep)["found"]


# ---------------------------------------------------------------------------
# the relators checked up to the quarter turns against the whole suite


def whole_word_report(rep):
    """The relator report of every suite relator, each evaluated as one
    whole word from the identity."""
    families = W.family_report((family, label, rep.is_identity(rep.columns(word)))
                               for family, label, word in W.gersten_relators(rep.n))
    return {"n": rep.n, "m": rep.m, "families": families,
            "ok": all(not fam["failures"] for fam in families)}


def reduced_verdict(rep):
    """Whether every relator of ``words.reduced_suite`` holds, each
    evaluated as one whole word from the identity, tau spelt out."""
    return all(rep.is_identity(rep.columns(spelt_out(word)))
               for _, _, word in W.reduced_suite(rep.n))


def unimodular_entry_change(g):
    """g with one entry changed by +-1, the first such change (row-major)
    that keeps g unimodular and differs from +-g."""
    for r in range(g.rows):
        for c in range(g.cols):
            for delta in (1, -1):
                data = [list(row) for row in g.data]
                data[r][c] += delta
                h = Matrix(data)
                if abs(h.determinant()) == 1 and h not in (g, -g):
                    return h
    raise AssertionError("no unimodular change of one entry")


def wrong_entry(rep, name):
    columns = list(stored_g(rep, rep.generators[name]))
    row, g = columns[0]
    columns[0] = (row, unimodular_entry_change(g))
    return copy_rep(rep, {name: tuple(columns)})


def swapped_block_rows(rep, name):
    columns = list(stored_g(rep, rep.generators[name]))
    (r0, g0), (r1, g1) = columns[0], columns[1]
    columns[0], columns[1] = (r1, g0), (r0, g1)
    return copy_rep(rep, {name: tuple(columns)})


class TestQuarterTurnLetter:
    """The letter ``("tau", k, None)`` against the word ``quarter_turn(k)``
    in the induced evaluator."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_letter_is_the_product_of_the_quarter_turn_word(self, n):
        rep = induced.induce(n)
        for k in range(2, n):
            turn = W.quarter_turn(k)
            for e, word in ((1, turn), (-1, W._inv_word(turn))):
                letter = [(("tau", k, None), e)]
                assert rep.columns(letter) == rep.columns(word)
                assert read(rep, rep.columns(letter)) == oracle_word_block(rep, word)
                assert rep.columns(letter + word[:1]) == rep.columns(word + word[:1])

    @pytest.mark.parametrize("n", [3, 4])
    def test_a_bad_index_has_no_letter(self, n):
        # as in the move engine, k = 1, n or 1.0 names no quarter turn
        rep = induced.induce(n)
        for k in (1, n, 1.0):
            for e in (1, -1):
                with pytest.raises(KeyError, match="tau"):
                    rep.columns([(("rho", 1, 2), 1), (("tau", k, None), e)])

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_random_words_with_quarter_turns(self, n):
        rep = induced.induce(n)
        rng = random.Random(300 + n)
        letters = [(t, e) for t in stored_tokens(n) for e in (1, -1)]
        letters += [(("tau", k, None), e) for k in range(2, n) for e in (1, -1)]
        for length in range(1, 7):
            word = [rng.choice(letters) for _ in range(length)]
            assert rep.columns(word) == rep.columns(spelt_out(word))


class TestReducedRelatorCheck:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_reduced_verdict_and_report_equal_the_whole_suite(self, n):
        rep = induced.induce(n)
        report = rep.relator_report()
        assert report["ok"] and reduced_verdict(rep)
        assert report == whole_word_report(induced.induce(n))
        assert all(rep._holds(word) for _, _, word in W.reduced_suite(n))

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("perturb", [lambda rep: wrong_entry(rep, "rho23"),
                                         lambda rep: swapped_block_rows(rep, "lam12")],
                             ids=["wrong entry in rho23", "swapped block row in lam12"])
    def test_a_perturbed_block_fails_both_checks_alike(self, n, perturb):
        rep = perturb(induced.induce(n))
        report = rep.relator_report()
        assert not report["ok"] and not reduced_verdict(rep)
        assert report == whole_word_report(rep)
        # each reduced relator's own check agrees with its whole word, tau
        # spelt out, and the conjugation relators, tau one letter, take both
        # verdicts, as a whole word too
        verdicts = set()
        for family, _, word in W.reduced_suite(n):
            whole = rep.is_identity(rep.columns(spelt_out(word)))
            assert rep._holds(word) == whole
            if family == W.QUARTER_TURN_FAMILY:
                assert rep.is_identity(rep.columns(word)) == whole
                verdicts.add(whole)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_a_flipped_representative_fails_both_checks_alike(self, monkeypatch, n):
        target = ("rho commutator identities", "inv-inv i=1,j=2,k=3")
        flip_one_exponent(monkeypatch, target)
        rep = induced.induce(n)
        report = rep.relator_report()
        assert not reduced_verdict(rep)
        assert report == whole_word_report(rep)
        assert failing_labels(report) == [target]

    def test_a_passing_check_evaluates_the_reduced_suite_alone(self, monkeypatch):
        # 35 representatives and 50 conjugation relators, one predicate
        n = 4
        calls = {}
        real = induced.InducedRep._holds
        monkeypatch.setattr(induced.InducedRep, "_holds", lambda self, word:
                            calls.update({"_holds": calls.get("_holds", 0) + 1}) or real(self, word))
        assert induced.induce(n).relator_report()["ok"]
        assert calls == {"_holds": 35 + 50}
        # at a rank outside the proven ones the whole suite runs
        calls.clear()
        monkeypatch.setattr(W, "REDUCED_SUITE_RANKS", range(0))
        report = induced.induce(n).relator_report()
        assert calls == {"_holds": 415} and sum(fam["count"] for fam in report["families"]) == 415
        assert report == whole_word_report(induced.induce(n))

    def test_a_suite_without_the_representatives_is_checked_whole(self, monkeypatch):
        # a stand-in suite holds none of the representatives, so the
        # conjugation relators passing settle nothing
        def bare_rho12(n):
            yield "bare", "rho12", [(("rho", 1, 2), 1)]
        monkeypatch.setattr(W, "gersten_relators", bare_rho12)
        report = induced.induce(3).relator_report()
        assert report["families"] == [{"name": "bare", "count": 1, "failures": ["rho12"]}]
        assert not report["ok"]
