"""Induction from the functional stabiliser to the whole outer group.

The nonzero mod-2 functionals on the rank-n free group form a single
orbit of size 2^n - 1.  Each is a bitmask (bit k reads the parity of
a_{k+1}), and the action on them is read off an automorphism's
backward table.  A deterministic transversal assigns to each mask one
token word, evaluated once by ``words.automorphism``, carrying the base
functional onto it.  Given a degree-2 square functor applied to the
(n-1)-dimensional eigenspace representation of the stabiliser,
induction produces block matrices of size (2^n - 1) * dim U: one
nonzero block per row and column, indexed by the coset the group
element carries each functional to.

Because the square functors kill minus identity and conjugation by any
word acts as a sign on the eigenspace, the induced matrices are
constant on outer classes; the full relator suite is run to certify
that.  A non-factoring certificate is a generator of the kernel of
abelianisation whose induced matrix is unipotent and different from the
identity: such a matrix has infinite order, while any representation
factoring through the integral linear quotient would send the whole
kernel to finite order elements jointly with its finite image there
being trivial.

The relators and the certificate candidates (the token words of
``cover.kernel_generators``) are evaluated on the stored generator
blocks, the matrices that ``to_json`` writes out: a token word's block
is the product of its letters' blocks, and a relator u v passes when
the blocks of u and v^-1 agree.

Few distinct blocks occur, and the relator suite multiplies the same
pairs over and over, so each representation interns its blocks: every
distinct block is stored once under an integer id, keyed by its exact
entries.  A word is then a tuple of ``(block row, block id)`` per
block-column; the product of two blocks is computed by
``Matrix.__mul__`` once per pair of ids and remembered, and so is the
inverse of each block by ``Matrix.inverse``.  An inverse letter is the
transposed block permutation of the inverted ids.  A relator u v passes
when the id tuples of u and v^-1 are equal.  That comparison is exact:
two blocks get the same id only when all their entries are equal, so
equal id tuples are equal block matrices and unequal ones differ.

Blocks are integer ``Matrix`` values.  The construction and the
products divide nowhere; the inverses do, but the blocks are
unimodular, so every entry still comes out as a Python ``int``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from math import comb

from .linalg import Matrix, schur_square
from .words import (
    Automorphism,
    abelianize,
    automorphism,
    compose,
    family_report,
    gersten_relators,
    relator_automorphism,
    rho,  # noqa: F401  unused; perfbench/test_smoke.py traces it through this module
)
from .cover import kernel_generators, minus_eigenspace_matrix


# ---------------------------------------------------------------------------
# functionals as bitmasks, and the coset transversal


def act_on_mask(a: Automorphism, mask: int) -> int:
    """Left action s -> s o ab2(a^-1) on mod-2 functionals, each a
    bitmask whose bit k reads the parity of a_{k+1}.

    Bit k of the image is the parity of the letters of a^-1(a_{k+1})
    that the mask selects, read off the backward table.
    """
    out = 0
    for k, img in enumerate(a.backward.images):
        out |= (sum(mask >> (abs(x) - 1) & 1 for x in img.letters) & 1) << k
    return out


def coset_transversal(n: int) -> dict:
    """mask -> automorphism carrying the base functional to the mask.

    The base functional reads the parity of a_n, so its mask is
    ``1 << (n - 1)``.  Any target is reached by first swapping the last
    index onto a pivot p (n itself when that bit is set, else the
    smallest set bit), then adding p into each other set bit k: as one
    token word, rho_kp for k from the highest down, then sigma_pn when
    p != n.  The base coset gets the empty word.  Every entry is
    verified against the action before being returned.
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
        t = automorphism(n, word)
        if act_on_mask(t, base_mask) != mask:
            raise AssertionError("transversal element misses its coset")
        out[mask] = t
    return out


# ---------------------------------------------------------------------------
# block matrices


@dataclass(frozen=True)
class BlockMatrix:
    """Square matrix with one nonzero block per row and column.

    ``columns[c] = (r, block)``: the only nonzero block in block-column c
    sits in block-row r and equals the ``Matrix`` block.
    """

    size: int
    dim: int
    columns: tuple

    def __post_init__(self):
        rows = [r for r, _ in self.columns]
        if sorted(rows) != list(range(self.size)):
            raise ValueError("block rows do not form a permutation")

    def is_identity(self) -> bool:
        return all(r == c and g.is_identity()
                   for c, (r, g) in enumerate(self.columns))

    def block_permutation_is_trivial(self) -> bool:
        return all(r == c for c, (r, _) in enumerate(self.columns))

    def unipotency_index(self):
        """Smallest k with (M - 1)^k = 0, or None when M is not unipotent.

        A nontrivial block permutation forces trace < dimension, which
        already rules unipotency out; otherwise each diagonal block is
        tested for nilpotency of (block - 1).
        """
        if not self.block_permutation_is_trivial():
            return None
        worst = 0
        for _, g in self.columns:
            power = ident = Matrix.identity(self.dim)
            nil = g - ident
            index = None
            for k in range(0, self.dim + 1):
                if power.is_zero():
                    index = k
                    break
                power = power * nil
            if index is None:
                return None
            worst = max(worst, index)
        return worst

    def to_matrix(self) -> Matrix:
        m = self.size * self.dim
        data = [[0] * m for _ in range(m)]
        for c, (r, g) in enumerate(self.columns):
            for i, row in enumerate(g.data):
                data[r * self.dim + i][c * self.dim:(c + 1) * self.dim] = row
        return Matrix(data, cols=m)


class _Blocks:
    """Interned blocks of one representation, with memoised products
    and inverses.

    Each distinct block is stored once, keyed by its exact entries, and
    named by its position in ``matrices``; equal ids are equal blocks.
    """

    def __init__(self):
        self.matrices = []     # id -> Matrix
        self._ids = {}         # entries -> id
        self._products = {}    # (id, id) -> id
        self._inverses = {}    # id -> id

    def intern(self, g: Matrix) -> int:
        key = tuple(map(tuple, g.data))
        i = self._ids.get(key)
        if i is None:
            i = self._ids[key] = len(self.matrices)
            self.matrices.append(g)
        return i

    def product(self, i: int, j: int) -> int:
        k = self._products.get((i, j))
        if k is None:
            k = self._products[i, j] = self.intern(self.matrices[i] * self.matrices[j])
        return k

    def inverse(self, i: int) -> int:
        k = self._inverses.get(i)
        if k is None:
            k = self._inverses[i] = self.intern(self.matrices[i].inverse())
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


@dataclass
class InducedRep:
    n: int
    mu: tuple
    cosets: tuple          # masks, ascending; index = block position
    transversal: dict      # mask -> Automorphism
    generators: dict       # name -> BlockMatrix
    _blocks: _Blocks = field(default_factory=_Blocks, init=False, repr=False,
                             compare=False)
    _letters: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)   # (token, e) -> ((row, id), ...)

    @property
    def dim_u(self) -> int:
        return dim_u(self.n, self.mu)

    @property
    def m(self) -> int:
        return len(self.cosets) * self.dim_u

    def block_of(self, a: Automorphism) -> BlockMatrix:
        """Induced block matrix of an arbitrary automorphism.

        The coset element t_target^-1 a t_mask is composed from forward
        tables only: a and the transversal are certified already.
        """
        index = {mask: i for i, mask in enumerate(self.cosets)}
        cols = []
        for mask in self.cosets:
            target = act_on_mask(a, mask)
            h = compose(self.transversal[target].backward,
                        compose(a.forward, self.transversal[mask].forward))
            block = schur_square(minus_eigenspace_matrix(h), self.mu)
            cols.append((index[target], block))
        return BlockMatrix(len(self.cosets), self.dim_u, tuple(cols))

    def _letter(self, token, e: int) -> tuple:
        """``(row, block id)`` per block-column of a token's stored block
        (KeyError when there is none), inverted for exponent -1: the
        transposed permutation of the inverted ids."""
        ids = self._letters.get((token, e))
        if ids is None:
            if e == 1:
                ids = tuple((r, self._blocks.intern(g)) for r, g in
                            self.generators[generator_name(token)].columns)
            else:
                inverse = [None] * len(self.cosets)
                for c, (r, i) in enumerate(self._letter(token, 1)):
                    inverse[r] = (c, self._blocks.inverse(i))
                ids = tuple(inverse)
            self._letters[token, e] = ids
        return ids

    def _word_ids(self, word) -> tuple:
        """The ``(row, block id)`` columns of the product of a token
        word's letter blocks; the identity for the empty word."""
        if not word:
            ident = self._blocks.intern(Matrix.identity(self.dim_u))
            return tuple((c, ident) for c in range(len(self.cosets)))
        product = self._blocks.product
        acc = self._letter(*word[0])
        for token, e in word[1:]:
            acc = tuple((acc[mid][0], product(acc[mid][1], q))
                        for mid, q in self._letter(token, e))
        return acc

    def word_block(self, word) -> BlockMatrix:
        """Product of the letter blocks of a token word; the identity
        for the empty word."""
        blocks = self._blocks.matrices
        return BlockMatrix(len(self.cosets), self.dim_u, tuple(
            (r, blocks[i]) for r, i in self._word_ids(word)))

    def relator_report(self) -> dict:
        """Evaluate the full relator suite through the induced matrices.

        Every relator must land on the exact identity; the suite
        includes the relator that is merely inner, so passing it
        certifies the representation is constant on outer classes.  A
        relator u v is checked as equal block ids of u and v^-1, which
        takes two block products fewer than the whole word.
        """
        rows = []
        for family, label, word in gersten_relators(self.n):
            half = len(word) // 2
            v_inverse = [(token, -e) for token, e in reversed(word[half:])]
            rows.append((family, label,
                         self._word_ids(word[:half]) == self._word_ids(v_inverse)))
        families = family_report(rows)
        return {
            "n": self.n,
            "m": self.m,
            "families": families,
            "ok": all(not fam["failures"] for fam in families),
        }

    def to_json(self) -> dict:
        """The generators as ``Matrix.to_json`` objects, written
        straight from the integer blocks."""
        d, m = self.dim_u, self.m
        generators = {}
        for name, bm in self.generators.items():
            entries = [["0"] * m for _ in range(m)]
            for c, (r, g) in enumerate(bm.columns):
                for i, row in enumerate(g.data):
                    entries[r * d + i][c * d:(c + 1) * d] = map(str, row)
            generators[name] = {"rows": m, "cols": m, "entries": entries}
        return {
            "n": self.n,
            "mu": list(self.mu),
            "m": self.m,
            "cosets": list(self.cosets),
            "generators": generators,
        }


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
    if mu not in ((1, 1), (2,)):
        raise ValueError(f"unsupported partition {mu!r}")
    if n == 3 and mu == (1, 1):
        raise ValueError("the exterior square degenerates to a line at rank 3")
    transversal = coset_transversal(n)
    cosets = tuple(sorted(transversal))
    rep = InducedRep(n, mu, cosets, transversal, {})
    stored = [("eps", 1, None)]
    for i, j in permutations(range(1, n + 1), 2):
        stored += [("rho", i, j), ("lam", i, j)]
    for token in stored:
        rep.generators[generator_name(token)] = rep.block_of(automorphism(n, [(token, 1)]))
    return rep


def check_not_factoring(rep: InducedRep) -> dict:
    """Certificate that the representation sees the kernel of
    abelianisation with infinite order.

    Scans the generators of that kernel (``cover.kernel_generators``:
    partial conjugations, then transvection commutators) for one whose
    induced matrix is unipotent and not the identity; such a matrix generates an infinite cyclic
    group, so the representation cannot factor through the integral
    linear quotient.  Each candidate's block is the product of stored
    blocks along its token word; membership in the kernel is certified
    for the one found by the abelianisation of the word's forward
    images being the identity matrix; a failure returns ``scanned``.
    """
    scanned = []
    for _, label, word, _ in kernel_generators(rep.n):
        block = rep.word_block(word)
        if block.is_identity():
            scanned.append({"generator": label, "result": "identity"})
            continue
        index = block.unipotency_index()
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
