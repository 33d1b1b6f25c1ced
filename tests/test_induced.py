"""Coset transversal, block induction, relator suite, non-factoring."""

import random

import pytest

from outfn import cover, induced, words as W
from outfn.linalg import Matrix


class TestTransversal:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_covers_every_functional(self, n):
        tr = induced.coset_transversal(n)
        assert len(tr) == 2 ** n - 1
        base = induced.functional_to_mask(cover.base_functional(n))
        assert tr[base].is_identity()
        for mask, t in tr.items():
            assert induced.act_on_mask(t, base) == mask

    def test_single_bit_uses_a_swap(self):
        n = 3
        tr = induced.coset_transversal(n)
        t = tr[induced.functional_to_mask((1, 0, 0))]
        assert t.forward == W.sigma(1, 3, 3).forward

    def test_mask_round_trip(self):
        for n in (3, 4):
            for mask in range(1, 2 ** n):
                s = induced.mask_to_functional(mask, n)
                assert induced.functional_to_mask(s) == mask


class TestBlocks:
    def test_identity_block(self):
        rep = induced.induce(3)
        assert rep.block_of(W.identity_automorphism(3)).is_identity()

    def test_block_structure_is_a_permutation(self):
        rep = induced.induce(3)
        for name, bm in rep.generators.items():
            rows = sorted(r for r, _ in bm.columns)
            assert rows == list(range(len(rep.cosets))), name

    def test_block_product_matches_dense_product(self):
        rep = induced.induce(3)
        a = rep.generators["rho12"]
        b = rep.generators["eps1"]
        assert (a * b).to_matrix() == a.to_matrix() * b.to_matrix()

    def test_block_of_is_multiplicative(self):
        rep = induced.induce(3)
        rng = random.Random(3)
        pool = [W.rho(1, 2, 3), W.lam(2, 3, 3), W.eps(1, 3), W.sigma(1, 3, 3)]
        for _ in range(10):
            g, h = rng.choice(pool), rng.choice(pool)
            lhs = rep.block_of(g * h)
            rhs = rep.block_of(g) * rep.block_of(h)
            assert lhs.to_matrix() == rhs.to_matrix()


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
        prod = W.identity_automorphism(n)
        for i in range(1, n + 1):
            if i != j:
                prod = prod * (W.rho(i, j, n) * W.lam(i, j, n).inverse())
        assert W.is_inner(prod) is not None
        assert rep.block_of(prod).is_identity()

    def test_json_shape(self):
        rep = induced.induce(3)
        obj = rep.to_json()
        assert obj["m"] == 21
        assert len(obj["cosets"]) == 7
        assert "rho12" in obj["generators"]
        m = Matrix.from_json(obj["generators"]["rho12"])
        assert m.shape == (21, 21)


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
        g = cover.transvection_commutator(*nums, rep.n) if "commutator" in label \
            else cover.partial_conjugation(*nums, rep.n)
        dense = rep.block_of(g).to_matrix()
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
        g = cover.partial_conjugation(1, 2, 3)
        bm = rep.block_of(g)
        assert not bm.is_identity()
        assert bm.unipotency_index() is None
        base_index = rep.cosets.index(
            induced.functional_to_mask(cover.base_functional(3)))
        row, grid = bm.columns[base_index]
        assert row == base_index and grid.is_identity()
