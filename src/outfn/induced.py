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

Every group element is a token word, evaluated by the move engine of
``words``.  A word w carries the coset of a mask to a target read off
the images of w^-1, and its block there is that of t_target^-1 w t_mask:
the images of each T[mask]^-1 are moved once per representation, and a
block runs only the moves of w and T[mask] on those of T[target]^-1.
No inverse table is certified on the way: were a target wrong, that
coset element would not stabilise the base functional, and
``cover.twisted_counts`` raises ``ValueError`` on exactly that.

Because the square functors kill minus identity and conjugation by any
word acts as a sign on the eigenspace, the induced matrices are
constant on outer classes; the relator suite certifies that, checked
by ``words.check_suite``.  A non-factoring certificate is a generator
of the kernel of abelianisation whose induced matrix is unipotent and
different from the identity: such a matrix has infinite order, while
any representation factoring through the integral linear quotient
would send the whole kernel to finite order elements jointly with its
finite image there being trivial.

Every matrix is held in one form, its columns ``(rows, ids)``: the
block row and the id of each block-column, each distinct block stored
once under an integer id in the representation's table.  So are
``generators`` (what ``write_json`` writes out), the relators and the
certificate candidates (``cover.kernel_generators``).  A word's columns
are the product of its letters', one letter at a time over all
block-columns: a letter (a generator, or the quarter turn tau_k, the
product of ``words.quarter_turn(k)``) holds its block rows, its ids and,
per id, the product table of that right factor (left id -> product id),
so a step is two gathers and one ``dict.get`` per block-column.  Every
relator u v passes when the columns of u and v^-1 are equal.

A block is S(g), with S the square functor of ``mu`` and g the
(n-1) x (n-1) integer matrix of ``cover.twisted_counts``, and the table
holds g up to sign, its first nonzero entry made positive.  That is
exact by two facts (Fulton-Harris, *Representation Theory*, 6.1):
S(g) S(h) = S(gh), and S(g) = S(h) if and only if g = +-h, for the
symmetric square in every dimension and for the exterior square in
dimension at least 3 (the one case refused, the exterior square at rank
3, is the dimension-2 exception).  So ids multiply and invert on the
small matrices g, each product and inverse once, and S is applied only
where a block's entries are read (``unipotency_index``, ``write_json``),
once per id.  A product of ids g h runs one straight-line function per
block dimension d (``_kernel``, generated from d alone when the table
is made): it unpacks the flat entries of g and h and returns the d * d
sums of products, with no loop and no call per entry.  An inverse runs
integer row operations, Euclid down to a +-1 pivot in each column, as
g is unimodular.  No step divides, so every entry is a Python ``int``.
"""

from __future__ import annotations

import json
from itertools import chain
from math import comb
from operator import itemgetter, neg

from .linalg import Matrix, _identity_rows, schur_square
from .words import (
    _inv_word,
    abelianize,
    check_suite,
    generator_name,
    gersten_generators,
    quarter_turn,
    relator_automorphism,
    rho,  # noqa: F401  unused; perfbench/test_smoke.py traces it through this module
)
from .cover import kernel_generators, twisted_counts


# ---------------------------------------------------------------------------
# functionals as bitmasks, and the coset transversal


def act_on_mask(inverse: tuple, mask: int) -> int:
    """Left action s -> s o ab2(a^-1) on mod-2 functionals, each a
    bitmask whose bit k reads the parity of a_{k+1}.

    ``inverse`` holds the images of a^-1: the move engine's images of
    the inverse word, or ``a.backward``.  Bit k of the image is the
    parity of the letters of a^-1(a_{k+1}) that the mask selects: the
    bit count of the mask and the image's parity bitmask, whose bit l
    reads the parity of its a_{l+1}^{+-1} letters.
    Anything but a tuple is refused, an ``Automorphism`` among them, so
    that its forward images are never read in place of the inverse's.
    """
    if not isinstance(inverse, tuple):
        raise TypeError("act_on_mask takes the images of a^-1, such as a.backward")
    out = 0
    for k, img in enumerate(inverse):
        parity = 0
        for x in img:
            parity ^= 1 << (abs(x) - 1)
        out |= ((parity & mask).bit_count() & 1) << k
    return out


def coset_transversal(n: int) -> dict:
    """mask -> token word carrying the base functional to the mask.

    The base functional reads the parity of a_n, so its mask is
    ``1 << (n - 1)``.  Any target is reached by first swapping the last
    index onto a pivot p (n itself when that bit is set, else the
    smallest set bit), then adding p into each other set bit k: as one
    token word, rho_kp for k from the highest down, then sigma_pn when
    p != n.  The base coset gets the empty word.  ``InducedRep``
    verifies every word against the action, on the move engine's images
    of its inverse word, which it keeps.
    """
    if n < 2:
        raise ValueError("needs rank at least 2")
    out = {}
    for mask in range(1, 2 ** n):
        bits = [k for k in range(1, n + 1) if mask >> (k - 1) & 1]
        p = n if n in bits else bits[0]
        word = [(("rho", k, p), 1) for k in reversed(bits) if k != p]
        if p != n:
            word.append((("sigma", p, n), 1))
        out[mask] = tuple(word)
    return out


# ---------------------------------------------------------------------------
# the block table


def _kernel(d: int):
    """The product of two d x d matrices given by their row-major
    entries, as one straight-line function: it unpacks both tuples and
    returns the d * d sums of products, entry (r, c) being the sum of
    g[r][k] h[k][c] over k.  The source is generated from d alone."""
    g = [f"g{k}" for k in range(d * d)]
    h = [f"h{k}" for k in range(d * d)]
    sums = [" + ".join(f"g{r + k}*h{k * d + c}" for k in range(d))
            for r in range(0, d * d, d) for c in range(d)]
    namespace = {}
    exec(f"def product(g, h):\n    {', '.join(g)}, = g\n    {', '.join(h)}, = h\n"
         f"    return ({', '.join(sums)},)\n", namespace)
    return namespace["product"]


class _Blocks:
    """Interned d x d blocks of one representation, with memoised
    products and inverses.

    A block S(g) is held as g up to sign: its entries in row-major
    order, negated when the first nonzero one is negative, a flat tuple
    that is both its key and its value.  Each right factor id has its
    product table, left id -> product id, filled by ``multiply``, which
    computes a missing product with ``_kernel(d)``, built once per table.
    """

    def __init__(self, d: int):
        self.d = d
        self.flat = []         # id -> entries of g up to sign
        self._ids = {}         # entries -> id
        self._right = {}       # right factor id -> product table
        self._product = _kernel(d)
        self._inverses = {}    # id -> id

    def intern(self, entries) -> int:
        """Id of the block whose g has these row-major entries."""
        key = tuple(entries)
        if next(filter(None, key), 0) < 0:
            key = tuple(map(neg, key))
        i = self._ids.get(key)
        if i is None:
            i = self._ids[key] = len(self.flat)
            self.flat.append(key)
        return i

    def rows(self, i: int) -> tuple:
        """g of id i as a tuple of rows."""
        g, d = self.flat[i], self.d
        return tuple(g[r:r + d] for r in range(0, d * d, d))

    def table(self, j: int) -> dict:
        """The products by id j on the right so far, left id -> id."""
        return self._right.setdefault(j, {})

    def multiply(self, i: int, j: int) -> int:
        """Id of g_i g_j, looked up in or added to the table of j."""
        table = self._right[j]
        if i not in table:
            table[i] = self.intern(self._product(self.flat[i], self.flat[j]))
        return table[i]

    def inverse(self, i: int) -> int:
        """Id of g^-1, by integer row operations on (g | 1): Euclid on
        each column leaves the gcd of its entries at and below the
        diagonal there, which must be +-1 (``ValueError`` otherwise, as
        for a singular g), and the column is then cleared around it."""
        k = self._inverses.get(i)
        if k is None:
            d = self.d
            a = [[*row, *(int(r == c) for c in range(d))] for r, row in enumerate(self.rows(i))]
            for c in range(d):
                for r in range(c + 1, d):
                    while a[r][c]:
                        q = a[c][c] // a[r][c]
                        a[c], a[r] = a[r], [x - q * y for x, y in zip(a[c], a[r])]
                if a[c][c] not in (1, -1):
                    raise ValueError("block is not invertible over the integers")
                a[c] = [a[c][c] * x for x in a[c]]
                for r in range(d):
                    if r != c and (q := a[r][c]):
                        a[r] = [x - q * y for x, y in zip(a[r], a[c])]
            k = self._inverses[i] = self.intern(chain.from_iterable(row[d:] for row in a))
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


class InducedRep:
    """Induced matrices as columns ``(block rows, block ids)``, the ids
    naming blocks of ``blocks``.  Each transversal word must reach its coset."""

    __slots__ = ("n", "mu", "cosets", "transversal", "generators",
                 "blocks", "_starts", "_letters")

    def __init__(self, n: int, mu: tuple, transversal: dict):
        self.n = n
        self.mu = mu
        self.transversal = transversal            # mask -> token word
        self.cosets = tuple(sorted(transversal))  # masks; index = block position
        self.generators = {}                      # name -> columns
        self.blocks = _Blocks(n - 1)
        self._starts = {mask: (r, relator_automorphism(n, _inv_word(transversal[mask])))
                        for r, mask in enumerate(self.cosets)}  # mask -> (position, T^-1)
        if any(act_on_mask(start, 1 << (n - 1)) != mask
               for mask, (_, start) in self._starts.items()):
            raise AssertionError("transversal element misses its coset")
        self._letters = {}                        # (token, e) -> (rows, ids, gather, tables)

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
        the block is that of t_target^-1 w t_mask: the moves of w and
        t_mask run on the images of t_target^-1, moved once per coset.
        """
        n, t, starts, intern = self.n, self.transversal, self._starts, self.blocks.intern
        inverse = relator_automorphism(n, _inv_word(word))
        targets = [act_on_mask(inverse, mask) for mask in self.cosets]
        if sorted(targets) != list(self.cosets):
            raise ValueError("block rows do not form a permutation")
        ids = []
        for mask, target in zip(self.cosets, targets):
            h = twisted_counts(relator_automorphism(n, chain(word, t[mask]), starts[target][1]))
            ids.append(intern(chain.from_iterable(h)))
        return tuple(starts[target][0] for target in targets), tuple(ids)

    def block(self, i: int) -> Matrix:
        """The block S(g) of id i, as a dense ``Matrix``."""
        return schur_square(Matrix(self.blocks.rows(i)), self.mu)

    def _letter(self, token, e: int) -> tuple:
        """Store a letter in ``_letters``: its block rows, its ids, a
        gather of its rows and the product table of each id.  A quarter
        turn ``("tau", k, None)``, 1 < k < n, is the product of the stored
        blocks of ``quarter_turn(k)``, any other token its generator
        (KeyError when there is none); exponent -1 inverts that, as the
        transposed permutation of the inverted ids, and any exponent other
        than 1 and -1 is a ``ValueError``, as in the move engine."""
        if e != 1 and e != -1:
            raise ValueError(f"exponent {e!r} is neither 1 nor -1")
        kind, k, _ = token
        rows, ids = (self.columns(quarter_turn(k)) if kind == "tau" and 1 < k < self.n
                     else self.generators[generator_name(token)])
        if e != 1:
            order = sorted(range(len(rows)), key=rows.__getitem__)
            rows, ids = tuple(order), tuple(self.blocks.inverse(ids[c]) for c in order)
        letter = (rows, ids, itemgetter(*rows), tuple(map(self.blocks.table, ids)))
        self._letters[token, e] = letter
        return letter

    def columns(self, word) -> tuple:
        """Columns of the product of the stored blocks of a token word's
        letters, the identity for the empty word, one letter over all
        block-columns at once: block-column c of acc * L is block-column
        mid of acc times the block of L at (mid, c), looked up in the
        product table of L's id there.  Products missing from the tables
        are computed in a second pass."""
        if not word:
            ident = self.blocks.intern(chain.from_iterable(_identity_rows(self.n - 1)))
            return tuple(range(len(self.cosets))), (ident,) * len(self.cosets)
        letters, get, multiply = self._letters, dict.get, self.blocks.multiply
        rows, ids = (letters.get(word[0]) or self._letter(*word[0]))[:2]
        for letter in word[1:]:
            _, right, gather, tables = letters.get(letter) or self._letter(*letter)
            rows, left = gather(rows), gather(ids)
            ids = tuple(map(get, tables, left))
            if None in ids:
                ids = tuple([multiply(i, j) if k is None else k
                             for k, i, j in zip(ids, left, right)])
        return rows, ids

    def is_identity(self, columns) -> bool:
        return columns == self.columns(())

    def unipotency_index(self, columns):
        """Smallest k with (M - 1)^k = 0 for the matrix M of the
        columns, or None when M is not unipotent.

        A nontrivial block permutation forces trace < dimension, which
        already rules unipotency out; otherwise each distinct diagonal
        block is tested once for nilpotency of (block - 1).
        """
        if columns[0] != tuple(range(len(self.cosets))):
            return None
        ident = Matrix.identity(self.dim_u)
        worst = 0
        for i in set(columns[1]):
            nil, power, k = self.block(i) - ident, ident, 0
            while not power.is_zero():
                if k == self.dim_u:
                    return None
                power, k = power * nil, k + 1
            worst = max(worst, k)
        return worst

    def _holds(self, word) -> bool:
        """Whether a relator u v lands on the exact identity, checked as
        equal columns of u and v^-1, two block products fewer than the
        whole word."""
        half = len(word) // 2
        return self.columns(word[:half]) == self.columns(_inv_word(word[half:]))

    def relator_report(self) -> dict:
        """Check the relator suite through the induced matrices.

        Every relator must land on the exact identity; the suite
        includes the relator that is merely inner, so passing it
        certifies the representation is constant on outer classes.
        ``words.check_suite`` decides, each by ``_holds``, the reduced
        suite alone when it settles the whole (reading each family's
        count off its table) and every suite relator otherwise.
        """
        families, _ = check_suite(self.n, self._holds)
        return {"n": self.n, "m": self.m, "families": families,
                "ok": all(not fam["failures"] for fam in families)}

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
        for k, (name, (block_rows, ids)) in enumerate(self.generators.items()):
            column_of = [None] * cosets  # block row -> (block column, id)
            for c, (r, i) in enumerate(zip(block_rows, ids)):
                column_of[r] = (c, i)
                if i not in strings:
                    strings[i] = ['", "'.join(map(str, row)) for row in self.block(i).data]
            rows = ", ".join([before[c] + row + after[c]
                              for c, i in column_of for row in strings[i]])
            fh.write('%s%s: {"rows": %d, "cols": %d, "entries": [%s]}' % (
                ", " if k else "", json.dumps(name), self.m, self.m, rows))
        fh.write("}}\n")


def induce(n: int, mu=None) -> InducedRep:
    """Build the induced representation on the standard generators.

    mu defaults to the symmetric square at n = 3 (where the exterior
    square of a 2-dimensional space is a line and the construction
    degenerates) and to the exterior square for n >= 4.
    """
    if n < 3:
        raise ValueError("needs rank at least 3")
    mu = ((2,) if n == 3 else (1, 1)) if mu is None else tuple(mu)
    dim_u(n, mu)  # refuses any partition but (1, 1) and (2,)
    if n == 3 and mu == (1, 1):
        raise ValueError("the exterior square degenerates to a line at rank 3")
    rep = InducedRep(n, mu, coset_transversal(n))
    for token in gersten_generators(n):
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
        columns = rep.columns(word)
        if rep.is_identity(columns):
            scanned.append({"generator": label, "result": "identity"})
            continue
        index = rep.unipotency_index(columns)
        if index is None:
            scanned.append({"generator": label, "result": "not unipotent"})
            continue
        member = abelianize(relator_automorphism(rep.n, word)).is_identity()
        return {"found": True, "generator": label, "nilpotency_index": index,
                "kernel_membership": member}
    return {"found": False, "scanned": scanned}
