"""The plain value classes: start-up imports, field-wise equality and
hashing, and the checks their constructors run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import generator, oracle_identity
from outfn import graphs, induced, symreps, words as W

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_skips_dataclasses_and_inspect():
    """``import outfn.cli`` in a fresh interpreter pulls in neither
    ``dataclasses`` nor ``inspect`` (and their ``ast``/``dis``/``tokenize``),
    nor ``argparse`` with the ``gettext`` and ``locale`` it loads."""
    code = ("import sys; before = set(sys.modules); import outfn.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert "outfn.cli" in out
    assert "dataclasses" not in out
    assert "inspect" not in out
    assert not {"argparse", "gettext", "locale"} & set(out)


# Each entry builds one object from fresh field values, so two calls
# give equal but distinct objects; ``other`` differs in one field.
HASHED = {
    "Automorphism": (lambda: W.rho(1, 2, 3), [lambda: generator(3, "lam", 1, 2),
                                             lambda: W.rho(1, 2, 4),
                                             lambda: W.rho(1, 2, 3).inverse()]),
}


def graph(tau="w"):
    return graphs.make_graph(["u", "w"], [("a", "u", "w"), ("b", "u", tau)])


def swap(g, flips=None):
    return graphs.GraphAut(g, {"u": "u", "w": "w"}, {"a": "b", "b": "a"},
                           {} if flips is None else flips)


COMPARED = {
    "Graph": (graph, [lambda: graph("u"),
                      lambda: graphs.make_graph(["u", "w", "x"],
                                                [("a", "u", "w"), ("b", "u", "w")])]),
    "GraphAut": (lambda: swap(graph()),
                 [lambda: oracle_identity(graph()),
                  lambda: swap(graph(), {"a": False})]),
    "GroupDescriptor": (lambda: symreps.symmetric_group(3),
                        [lambda: symreps.symmetric_group(4),
                         lambda: symreps.GroupDescriptor("S3", ("s1", "s2"), ())]),
}


class TestEquality:
    @pytest.mark.parametrize("name", sorted(HASHED))
    def test_hashed_classes(self, name):
        make, others = HASHED[name]
        a, b = make(), make()
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        for other in others:
            assert a != other()

    @pytest.mark.parametrize("name", sorted(COMPARED))
    def test_compared_classes(self, name):
        make, others = COMPARED[name]
        a, b = make(), make()
        assert a is not b and a == b and not a != b
        for other in others:
            assert a != other()

    @pytest.mark.parametrize("make", [make for make, _ in {**HASHED, **COMPARED}.values()])
    def test_other_types_are_unequal(self, make):
        a = make()
        assert a != object() and a != None  # noqa: E711


# The two functions that take a letter tuple from a caller, and check it.
WORD_TAKERS = (lambda w: W.inner(w, 3), lambda w: W.apply(((1,), (2,), (3,)), w))


class TestConstructorChecks:
    def test_letter_out_of_range(self):
        for take in WORD_TAKERS:
            with pytest.raises(ValueError, match=r"^letter 4 out of range for rank 3$"):
                take((1, 4))
            with pytest.raises(ValueError, match=r"^letter 0 out of range for rank 3$"):
                take((0,))
            with pytest.raises(ValueError, match=r"^letter 1\.0 out of range for rank 3$"):
                take((1.0,))

    def test_rank(self):
        for n in (0, -1):
            with pytest.raises(ValueError, match=r"^rank must be at least 1$"):
                W.inner((), n)

    @pytest.mark.parametrize("build", [
        lambda: W.relator_automorphism(0, []),
        lambda: W.relator_automorphism(-1, []),
    ], ids=["relator_automorphism(0)", "relator_automorphism(-1)"])
    def test_endomorphism_rank(self, build):
        with pytest.raises(ValueError, match=r"^rank must be at least 1$"):
            build()

    def test_unreduced_word(self):
        for take in WORD_TAKERS:
            with pytest.raises(ValueError, match=r"^word is not freely reduced$"):
                take((2, 1, -1))

    def test_backward_table_not_an_inverse(self):
        a = W.rho(1, 2, 3)
        with pytest.raises(ValueError, match=r"^backward table is not a right inverse$"):
            W.Automorphism(a.forward, a.forward)
        with pytest.raises(ValueError, match=r"^rank mismatch$"):
            W.Automorphism(a.forward, W.rho(1, 2, 4).backward)

    def test_automorphism_certifies_through_its_hook(self, monkeypatch):
        seen = []
        real = W.Automorphism.__post_init__
        monkeypatch.setattr(W.Automorphism, "__post_init__",
                            lambda self: seen.append(self) or real(self))
        a = W.rho(1, 2, 3)
        assert seen[-1] is a

    def test_block_rows_form_a_permutation(self, monkeypatch):
        # flipping bit 0 of the base coset's target repeats a block row
        rep = induced.induce(3)
        base, real = 1 << 2, induced.act_on_mask
        monkeypatch.setattr(induced, "act_on_mask",
                            lambda inverse, mask: real(inverse, mask) ^ (mask == base))
        with pytest.raises(ValueError, match=r"^block rows do not form a permutation$"):
            rep.block_of([(("rho", 1, 2), 1)])

    def test_finite_rep_generators_default_to_empty(self):
        rep = symreps.FiniteRep(symreps.trivial_group(), 2)
        assert rep.generators == {}
        assert symreps.FiniteRep(symreps.trivial_group(), 2).generators is not rep.generators
        with pytest.raises(ValueError, match=r"^no matrix supplied for generator 's1'$"):
            symreps.FiniteRep(symreps.symmetric_group(2), 1)

    def test_induced_rep_starts_with_empty_caches(self):
        rep = induced.induce(3)
        assert rep.relator_report()["ok"]
        fresh = induced.InducedRep(rep.n, rep.mu, rep.transversal)
        assert fresh.cosets == rep.cosets
        assert fresh.generators == {} and fresh.generators is not rep.generators
        assert fresh._letters == {} and fresh.blocks.keys == []
        assert rep._letters and rep.blocks.keys
