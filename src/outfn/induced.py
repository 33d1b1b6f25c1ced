"""Induction from the functional stabiliser to the whole outer group.

The nonzero mod-2 functionals on the rank-n free group form a single
orbit of size 2^n - 1; a deterministic transversal assigns to each
functional an automorphism carrying the base functional onto it.  Given
a degree-2 square functor applied to the (n-1)-dimensional eigenspace
representation of the stabiliser, induction produces block matrices of
size (2^n - 1) * dim U: one nonzero block per row and column, indexed
by the coset the group element carries each functional to.

Because the square functors kill minus identity and conjugation by any
word acts as a sign on the eigenspace, the induced matrices are
constant on outer classes; the full relator suite is run to certify
that.  A non-factoring certificate is a generator of the kernel of
abelianisation whose induced matrix is unipotent and different from the
identity: such a matrix has infinite order, while any representation
factoring through the integral linear quotient would send the whole
kernel to finite order elements jointly with its finite image there
being trivial.

Blocks are integer ``Matrix`` values; no division occurs anywhere in
the construction, so every entry stays a Python ``int``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .linalg import Matrix, schur_square
from .words import (
    Automorphism,
    abelianize,
    act_on_functional,
    compose_automorphisms,
    eps,
    family_report,
    gersten_relators,
    identity_automorphism,
    lam,
    nielsen,
    rho,
    sigma,
)
from .cover import base_functional, minus_eigenspace_matrix, \
    partial_conjugation, transvection_commutator


# ---------------------------------------------------------------------------
# functionals as bitmasks, and the coset transversal


def functional_to_mask(s) -> int:
    return sum(1 << i for i, bit in enumerate(s) if bit % 2)


def mask_to_functional(mask: int, n: int) -> tuple:
    return tuple((mask >> i) & 1 for i in range(n))


def act_on_mask(a: Automorphism, mask: int) -> int:
    return functional_to_mask(act_on_functional(a, mask_to_functional(mask, a.rank)))


def coset_transversal(n: int) -> dict:
    """mask -> automorphism carrying the base functional to the mask.

    The base coset gets the identity; any other target is reached by
    first swapping the last index onto the smallest set bit, then
    adding that bit into the remaining ones.  Every entry is verified
    against the action before being returned.
    """
    if n < 2:
        raise ValueError("needs rank at least 2")
    base_mask = functional_to_mask(base_functional(n))
    out = {}
    for mask in range(1, 2 ** n):
        bits = [i + 1 for i in range(n) if (mask >> i) & 1]
        if mask == base_mask:
            out[mask] = identity_automorphism(n)
            continue
        p = n if n in bits else bits[0]
        t = sigma(p, n, n) if p != n else identity_automorphism(n)
        for k in bits:
            if k != p:
                t = compose_automorphisms(rho(k, p, n), t)
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

    @classmethod
    def identity(cls, size: int, dim: int) -> "BlockMatrix":
        ident = Matrix.identity(dim)
        return cls(size, dim, tuple((c, ident) for c in range(size)))

    def __mul__(self, other: "BlockMatrix") -> "BlockMatrix":
        if (self.size, self.dim) != (other.size, other.dim):
            raise ValueError("block shape mismatch")
        cols = []
        for c in range(self.size):
            mid, q = other.columns[c]
            r, p = self.columns[mid]
            cols.append((r, p * q))
        return BlockMatrix(self.size, self.dim, tuple(cols))

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


# ---------------------------------------------------------------------------
# the induced representation


def dim_u(n: int, mu) -> int:
    mu = tuple(mu)
    if mu == (1, 1):
        return comb(n - 1, 2)
    if mu == (2,):
        return comb(n, 2)
    raise ValueError(f"unsupported partition {mu!r}")


@dataclass
class InducedRep:
    n: int
    mu: tuple
    cosets: tuple          # masks, ascending; index = block position
    transversal: dict      # mask -> Automorphism
    generators: dict       # name -> BlockMatrix

    @property
    def dim_u(self) -> int:
        return dim_u(self.n, self.mu)

    @property
    def m(self) -> int:
        return len(self.cosets) * self.dim_u

    def block_of(self, a: Automorphism) -> BlockMatrix:
        """Induced block matrix of an arbitrary automorphism."""
        index = {mask: i for i, mask in enumerate(self.cosets)}
        cols = []
        for mask in self.cosets:
            target = act_on_mask(a, mask)
            h = compose_automorphisms(
                self.transversal[target].inverse(),
                compose_automorphisms(a, self.transversal[mask]),
            )
            block = schur_square(minus_eigenspace_matrix(h), self.mu)
            cols.append((index[target], block))
        return BlockMatrix(len(self.cosets), self.dim_u, tuple(cols))

    def matrix(self, name: str) -> Matrix:
        return self.generators[name].to_matrix()

    def _letter_block(self, cache: dict, token, e: int) -> BlockMatrix:
        key = (token, e)
        if key not in cache:
            g = nielsen(*token, self.n)
            if e < 0:
                g = g.inverse()
            cache[key] = self.block_of(g)
        return cache[key]

    def relator_report(self) -> dict:
        """Evaluate the full relator suite through the induced matrices.

        Every relator must land on the exact identity; the suite
        includes the relator that is merely inner, so passing it
        certifies the representation is constant on outer classes.
        """
        cache: dict = {}
        rows = []
        for family, label, word in gersten_relators(self.n):
            acc = BlockMatrix.identity(len(self.cosets), self.dim_u)
            for token, e in word:
                acc = acc * self._letter_block(cache, token, e)
            rows.append((family, label, acc.is_identity()))
        families = family_report(rows)
        return {
            "n": self.n,
            "m": self.m,
            "families": families,
            "ok": all(not fam["failures"] for fam in families),
        }

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "mu": list(self.mu),
            "m": self.m,
            "cosets": list(self.cosets),
            "generators": {name: bm.to_matrix().to_json()
                           for name, bm in self.generators.items()},
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
    rep.generators["eps1"] = rep.block_of(eps(1, n))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                rep.generators[f"rho{i}{j}"] = rep.block_of(rho(i, j, n))
                rep.generators[f"lam{i}{j}"] = rep.block_of(lam(i, j, n))
    return rep


def check_not_factoring(rep: InducedRep) -> dict:
    """Certificate that the representation sees the kernel of
    abelianisation with infinite order.

    Scans the generators of that kernel (partial conjugations, then
    transvection commutators) for one whose induced matrix is unipotent
    and not the identity; such a matrix generates an infinite cyclic
    group, so the representation cannot factor through the integral
    linear quotient.  Membership in the kernel is certified by the
    abelianisation being the identity matrix.
    """
    n = rep.n
    candidates = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                candidates.append(
                    (f"partial conjugation i={i},j={j}", partial_conjugation(i, j, n))
                )
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                if len({i, j, k}) == 3:
                    candidates.append(
                        (f"commutator i={i},j={j},k={k}",
                         transvection_commutator(i, j, k, n))
                    )
    scanned = []
    for label, g in candidates:
        block = rep.block_of(g)
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
            "kernel_membership": abelianize(g).is_identity(),
            "scanned": scanned,
        }
    return {"found": False, "scanned": scanned}
