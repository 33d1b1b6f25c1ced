"""Induction from the functional stabiliser to the whole outer group.

The nonzero mod-2 functionals on the rank-n free group form a single
orbit of size 2^n - 1.  Each is a bitmask (bit k reads the parity of
a_{k+1}), and an automorphism a acts on them through the images of
a^-1.  A deterministic transversal assigns to each mask one token word
carrying the base functional onto it.  Given a degree-2 square functor
applied to the (n-1)-dimensional eigenspace representation of the
stabiliser, induction produces block matrices of size (2^n - 1) * dim U:
one nonzero block per row and column, indexed by the coset the group
element carries each functional to.

Every group element is a token word, evaluated by the move engine
``words.relator_automorphism``.  A word w carries the coset of a mask to
a target read off the images of w^-1, and its block there is that of
t_target^-1 w t_mask, evaluated as the one word T[target]^-1 w T[mask].
No inverse table is certified on the way: were a target wrong, that
coset element would not stabilise the base functional, and
``cover.minus_eigenspace_matrix`` raises ``ValueError`` on exactly that.

Because the square functors kill minus identity and conjugation by any
word acts as a sign on the eigenspace, the induced matrices are
constant on outer classes; the full relator suite is run to certify
that.  A non-factoring certificate is a generator of the kernel of
abelianisation whose induced matrix is unipotent and different from the
identity: such a matrix has infinite order, while any representation
factoring through the integral linear quotient would send the whole
kernel to finite order elements jointly with its finite image there
being trivial.

Every matrix is held in one form: each representation's block table
stores every distinct block once under an integer id, and an induced
matrix is its columns, one ``(block row, block id)`` per block-column.
``generators`` (what ``write_json`` writes out), the relators and the
certificate candidates (``cover.kernel_generators``) all take that
form.  A word's columns are the product of its letters'; each product
and inverse of ids is computed once.  A relator u v passes when the
columns of u and v^-1 are equal.

A block is S(g), with S the square functor of ``mu`` and g the
(n-1) x (n-1) integer matrix ``cover.minus_eigenspace_matrix`` returns,
and the table holds g up to sign: its rows with the first nonzero entry
made positive.  That is exact by two facts (Fulton-Harris,
*Representation Theory*, 6.1): S(g) S(h) = S(gh), and S(g) = S(h) if
and only if g = +-h, for the symmetric square in every dimension and for
the exterior square in dimension at least 3 (the one case refused, the
exterior square at rank 3, is the dimension-2 exception).  So equal ids
are equal blocks and distinct ids distinct ones, products and inverses
of ids act on the small matrices g, and S is applied only where a
block's entries are read: by ``unipotency_index`` and ``write_json``,
once per id.  Products of ids go through ``linalg._product_rows``, the one
matrix product kernel of the package, and divide nowhere; the inverses
do, but g is unimodular, so every entry still comes out as a Python
``int``.
"""

from __future__ import annotations

import json
from itertools import permutations
from math import comb

from .linalg import Matrix, _product_rows, schur_square
from .words import (
    Endomorphism,
    _inv_word,
    abelianize,
    family_report,
    gersten_relators,
    relator_automorphism,
    rho,  # noqa: F401  unused; perfbench/test_smoke.py traces it through this module
)
from .cover import kernel_generators, minus_eigenspace_matrix


# ---------------------------------------------------------------------------
# functionals as bitmasks, and the coset transversal


def act_on_mask(inverse: Endomorphism, mask: int) -> int:
    """Left action s -> s o ab2(a^-1) on mod-2 functionals, each a
    bitmask whose bit k reads the parity of a_{k+1}.

    ``inverse`` holds the images of a^-1: the move engine's images of
    the inverse word, or ``a.backward``.  Bit k of the image is the
    parity of the letters of a^-1(a_{k+1}) that the mask selects.  An
    ``Automorphism`` is refused, so that its forward images are never
    read in place of the inverse's.
    """
    if not isinstance(inverse, Endomorphism):
        raise TypeError("act_on_mask takes the images of a^-1, such as a.backward")
    out = 0
    for k, img in enumerate(inverse.images):
        out |= (sum(mask >> (abs(x) - 1) & 1 for x in img.letters) & 1) << k
    return out


def coset_transversal(n: int) -> dict:
    """mask -> token word carrying the base functional to the mask.

    The base functional reads the parity of a_n, so its mask is
    ``1 << (n - 1)``.  Any target is reached by first swapping the last
    index onto a pivot p (n itself when that bit is set, else the
    smallest set bit), then adding p into each other set bit k: as one
    token word, rho_kp for k from the highest down, then sigma_pn when
    p != n.  The base coset gets the empty word.  Every word is
    verified against the action, on the move engine's images of its
    inverse word, before being returned.
    """
    if n < 2:
        raise ValueError("needs rank at least 2")
    base_mask = 1 << (n - 1)
    out = {}
    for mask in range(1, 2 ** n):
        bits = [k for k in range(1, n + 1) if mask >> (k - 1) & 1]
        p = n if n in bits else bits[0]
        word = [(("rho", k, p), 1) for k in reversed(bits) if k != p]
        if p != n:
            word.append((("sigma", p, n), 1))
        if act_on_mask(relator_automorphism(n, _inv_word(word)), base_mask) != mask:
            raise AssertionError("transversal element misses its coset")
        out[mask] = tuple(word)
    return out


# ---------------------------------------------------------------------------
# the block table


def _up_to_sign(rows) -> tuple:
    """The rows of g or of -g as a tuple of tuples, whichever has its
    first nonzero entry positive."""
    key = tuple(map(tuple, rows))
    for row in key:
        for x in row:
            if x:
                return key if x > 0 else tuple([tuple([-x for x in row]) for row in key])
    return key


class _Blocks:
    """Interned blocks of one representation, with memoised products
    and inverses.

    A block S(g) is held as g up to sign: the rows of g normalised by
    ``_up_to_sign``, which are both its key and its value.  By the +-g
    lemma equal ids are equal blocks and distinct ids distinct ones.
    Products and inverses act on g, and S is applied only where a
    block's entries are read (``InducedRep.block``).
    """

    def __init__(self):
        self.keys = []         # id -> rows of g up to sign
        self._ids = {}         # rows -> id
        self._products = {}    # (id, id) -> id
        self._inverses = {}    # id -> id

    def intern(self, g) -> int:
        key = _up_to_sign(g)
        i = self._ids.get(key)
        if i is None:
            i = self._ids[key] = len(self.keys)
            self.keys.append(key)
        return i

    def product(self, i: int, j: int) -> int:
        k = self._products.get((i, j))
        if k is None:
            g, h = self.keys[i], self.keys[j]
            k = self._products[i, j] = self.intern(_product_rows(g, h, len(h[0])))
        return k

    def inverse(self, i: int) -> int:
        k = self._inverses.get(i)
        if k is None:
            k = self._inverses[i] = self.intern(Matrix(self.keys[i]).inverse().data)
        return k


# ---------------------------------------------------------------------------
# the induced representation


def dim_u(n: int, mu) -> int:
    mu = tuple(mu)
    if mu == (1, 1):
        return comb(n - 1, 2)
    if mu == (2,):
        return comb(n, 2)
    raise ValueError(f"unsupported partition {mu!r}")


def generator_name(token) -> str:
    """Name of the stored block of a relator token ``(kind, i, j)``:
    ``eps1``, ``rho{i}{j}`` and ``lam{i}{j}`` are the keys of
    ``InducedRep.generators``."""
    kind, i, j = token
    return kind + "".join(str(x) for x in (i, j) if x is not None)


class InducedRep:
    """Induced matrices as columns: ``(block row, block id)`` per
    block-column, the ids naming blocks of ``blocks``."""

    __slots__ = ("n", "mu", "cosets", "transversal", "generators",
                 "blocks", "_letters")

    def __init__(self, n: int, mu: tuple, transversal: dict):
        self.n = n
        self.mu = mu
        self.transversal = transversal            # mask -> token word
        self.cosets = tuple(sorted(transversal))  # masks; index = block position
        self.generators = {}                      # name -> columns
        self.blocks = _Blocks()
        self._letters = {}                        # (token, e) -> columns

    @property
    def dim_u(self) -> int:
        return dim_u(self.n, self.mu)

    @property
    def m(self) -> int:
        return len(self.cosets) * self.dim_u

    def block_of(self, word) -> tuple:
        """Columns of the induced matrix of a token word w, its blocks
        interned in the table.  The images of w^-1 give each mask's target
        (rows that do not form a permutation raise ``ValueError``), and
        the block is that of t_target^-1 w t_mask, evaluated as one word.
        """
        n, t = self.n, self.transversal
        inverse = relator_automorphism(n, _inv_word(word))
        targets = [act_on_mask(inverse, mask) for mask in self.cosets]
        if sorted(targets) != list(self.cosets):
            raise ValueError("block rows do not form a permutation")
        columns = []
        for mask, target in zip(self.cosets, targets):
            h = relator_automorphism(n, [*_inv_word(t[target]), *word, *t[mask]])
            g = minus_eigenspace_matrix(h).data
            columns.append((self.cosets.index(target), self.blocks.intern(g)))
        return tuple(columns)

    def block(self, i: int) -> Matrix:
        """The block S(g) of id i, as a dense ``Matrix``."""
        return schur_square(Matrix(self.blocks.keys[i]), self.mu)

    def _letter(self, token, e: int) -> tuple:
        """Columns of a token's stored generator (KeyError when there is
        none), inverted for exponent -1: the transposed permutation of
        the inverted ids."""
        columns = self._letters.get((token, e))
        if columns is None:
            if e == 1:
                columns = self.generators[generator_name(token)]
            else:
                inverse = [None] * len(self.cosets)
                for c, (r, i) in enumerate(self._letter(token, 1)):
                    inverse[r] = (c, self.blocks.inverse(i))
                columns = tuple(inverse)
            self._letters[token, e] = columns
        return columns

    def word_block(self, word) -> tuple:
        """Columns of the product of the stored blocks of a token word's
        letters; the identity for the empty word."""
        if not word:
            ident = self.blocks.intern(Matrix.identity(self.n - 1).data)
            return tuple((c, ident) for c in range(len(self.cosets)))
        product = self.blocks.product
        acc = self._letter(*word[0])
        for token, e in word[1:]:
            acc = tuple([(acc[mid][0], product(acc[mid][1], q))
                         for mid, q in self._letter(token, e)])
        return acc

    def is_identity(self, columns) -> bool:
        return columns == self.word_block(())

    def unipotency_index(self, columns):
        """Smallest k with (M - 1)^k = 0 for the matrix M of the
        columns, or None when M is not unipotent.

        A nontrivial block permutation forces trace < dimension, which
        already rules unipotency out; otherwise each distinct diagonal
        block is tested once for nilpotency of (block - 1).
        """
        if any(r != c for c, (r, _) in enumerate(columns)):
            return None
        ident = Matrix.identity(self.dim_u)
        worst = 0
        for i in {i for _, i in columns}:
            nil, power, k = self.block(i) - ident, ident, 0
            while not power.is_zero():
                if k == self.dim_u:
                    return None
                power, k = power * nil, k + 1
            worst = max(worst, k)
        return worst

    def relator_report(self) -> dict:
        """Evaluate the full relator suite through the induced matrices.

        Every relator must land on the exact identity; the suite
        includes the relator that is merely inner, so passing it
        certifies the representation is constant on outer classes.  A
        relator u v is checked as equal columns of u and v^-1, which
        takes two block products fewer than the whole word.
        """
        rows = []
        for family, label, word in gersten_relators(self.n):
            half = len(word) // 2
            v_inverse = [(token, -e) for token, e in reversed(word[half:])]
            rows.append((family, label,
                         self.word_block(word[:half]) == self.word_block(v_inverse)))
        families = family_report(rows)
        return {
            "n": self.n,
            "m": self.m,
            "families": families,
            "ok": all(not fam["failures"] for fam in families),
        }

    def write_json(self, fh) -> None:
        """Write the generators as ``Matrix.to_json`` objects, in the
        layout ``json.dumps`` gives the whole file, straight from the block
        table: each id's row strings are built once, and a dense row holds
        one block, so it is a run of ``"0"`` entries, a row of that block,
        then another run.  Entries are integer strings, needing no escapes.
        """
        d, cosets = self.dim_u, len(self.cosets)
        before = ['["' + '0", "' * (c * d) for c in range(cosets)]
        after = ['", "0' * ((cosets - 1 - c) * d) + '"]' for c in range(cosets)]
        strings = {}  # id -> entry strings of its block, one per row
        header = {"n": self.n, "mu": list(self.mu), "m": self.m, "cosets": list(self.cosets)}
        fh.write(json.dumps(header)[:-1] + ', "generators": {')
        for k, (name, columns) in enumerate(self.generators.items()):
            column_of = [None] * cosets  # block row -> (block column, id)
            for c, (r, i) in enumerate(columns):
                column_of[r] = (c, i)
                if i not in strings:
                    strings[i] = ['", "'.join(map(str, row)) for row in self.block(i).data]
            rows = ", ".join([before[c] + row + after[c]
                              for c, i in column_of for row in strings[i]])
            fh.write('%s%s: {"rows": %d, "cols": %d, "entries": [%s]}' % (
                ", " if k else "", json.dumps(name), self.m, self.m, rows))
        fh.write("}}\n")


def default_partition(n: int) -> tuple:
    return (2,) if n == 3 else (1, 1)


def induce(n: int, mu=None) -> InducedRep:
    """Build the induced representation on the standard generators.

    mu defaults to the symmetric square at n = 3 (where the exterior
    square of a 2-dimensional space is a line and the construction
    degenerates) and to the exterior square for n >= 4.
    """
    if n < 3:
        raise ValueError("needs rank at least 3")
    mu = default_partition(n) if mu is None else tuple(mu)
    dim_u(n, mu)  # refuses any partition but (1, 1) and (2,)
    if n == 3 and mu == (1, 1):
        raise ValueError("the exterior square degenerates to a line at rank 3")
    rep = InducedRep(n, mu, coset_transversal(n))
    stored = [("eps", 1, None)]
    for i, j in permutations(range(1, n + 1), 2):
        stored += [("rho", i, j), ("lam", i, j)]
    for token in stored:
        rep.generators[generator_name(token)] = rep.block_of([(token, 1)])
    return rep


def check_not_factoring(rep: InducedRep) -> dict:
    """Certificate that the representation sees the kernel of
    abelianisation with infinite order.

    Scans the generators of that kernel (``cover.kernel_generators``:
    partial conjugations, then transvection commutators) for one whose
    induced matrix is unipotent and not the identity; such a matrix generates an infinite cyclic
    group, so the representation cannot factor through the integral
    linear quotient.  Each candidate's columns are the product of stored
    blocks along its token word; membership in the kernel is certified
    for the one found by the abelianisation of the word's forward
    images being the identity matrix; a failure returns ``scanned``.
    """
    scanned = []
    for _, label, word, _ in kernel_generators(rep.n):
        columns = rep.word_block(word)
        if rep.is_identity(columns):
            scanned.append({"generator": label, "result": "identity"})
            continue
        index = rep.unipotency_index(columns)
        if index is None:
            scanned.append({"generator": label, "result": "not unipotent"})
            continue
        return {
            "found": True,
            "generator": label,
            "nilpotency_index": index,
            "kernel_membership":
                abelianize(relator_automorphism(rep.n, word)).is_identity(),
        }
    return {"found": False, "scanned": scanned}
