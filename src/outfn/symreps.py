"""Finite-group representation checks over the rationals.

Covers the pieces of representation theory the rest of the package
leans on: simultaneous eigenspace decompositions for families of
commuting involutions, the divisibility and containment laws those
decompositions satisfy, and character multiplicities for the named
symmetric-group modules (trivial, determinant, standard, permutation,
signed standard).

The joint eigenspaces are found by splitting the space under one
involution at a time, and the containment law is decided by
commutation with the involutions, so neither enumerates the 2^n
subsets.

Group presentations are carried explicitly so that every matrix
representation can be relation-checked before any law is asserted
about it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .linalg import Matrix


# ---------------------------------------------------------------------------
# group descriptors (generators plus defining relations as positive words)


class GroupDescriptor:
    __slots__ = ("name", "generators", "relations")

    def __init__(self, name: str, generators: tuple, relations: tuple):
        self.name = name
        self.generators = generators
        self.relations = relations  # tuples of generator names; each must equal 1
        known = set(generators)
        for rel in relations:
            for letter in rel:
                if letter not in known:
                    raise ValueError(f"relation {list(rel)} names {letter!r}, "
                                     f"which is not a generator")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.name, self.generators, self.relations)
                == (other.name, other.generators, other.relations))

    def to_json(self):
        return {
            "name": self.name,
            "generators": list(self.generators),
            "relations": [list(r) for r in self.relations],
        }

    @classmethod
    def from_json(cls, obj) -> "GroupDescriptor":
        return cls(
            name=obj["name"],
            generators=tuple(obj["generators"]),
            relations=tuple(tuple(r) for r in obj.get("relations", [])),
        )


def trivial_group() -> GroupDescriptor:
    return GroupDescriptor("1", (), ())


def symmetric_group(k: int) -> GroupDescriptor:
    """S_k with adjacent transpositions s1..s(k-1) and Coxeter relations."""
    if k < 1:
        raise ValueError("degree must be positive")
    gens = tuple(f"s{i}" for i in range(1, k))
    rels = []
    for i in range(1, k):
        rels.append((f"s{i}", f"s{i}"))
    for i in range(1, k - 1):
        rels.append((f"s{i}", f"s{i+1}") * 3)
    for i in range(1, k):
        for j in range(i + 2, k):
            rels.append((f"s{i}", f"s{j}") * 2)
    return GroupDescriptor(f"S{k}", gens, tuple(rels))


def alternating_group(k: int) -> GroupDescriptor:
    """A_k generated by the 3-cycles (1 2 i), i = 3..k.

    Relations: each generator has order 3 and every product of two
    distinct generators has order 2; this presents A_k.
    """
    if k < 3:
        raise ValueError("degree must be at least 3")
    gens = tuple(f"t{i}" for i in range(3, k + 1))
    rels = []
    for g in gens:
        rels.append((g, g, g))
    for a, b in itertools.combinations(gens, 2):
        rels.append((a, b) * 2)
    return GroupDescriptor(f"A{k}", gens, tuple(rels))


def three_cycle(i: int, k: int) -> tuple:
    """The permutation (1 2 i) of degree k in one-line form."""
    img = list(range(1, k + 1))
    img[0], img[1], img[i - 1] = 2, i, 1
    return tuple(img)


def signed_permutation_group(n: int) -> GroupDescriptor:
    """The full signed permutation group on n letters.

    Generators: e1 (flip the first letter) and the adjacent
    transpositions; this is the type-B Coxeter presentation.
    """
    if n < 2:
        raise ValueError("need at least two letters")
    base = symmetric_group(n)
    gens = ("e1",) + base.generators
    rels = [("e1", "e1"), ("e1", "s1") * 4]
    for i in range(2, n):
        rels.append(("e1", f"s{i}") * 2)
    rels.extend(base.relations)
    return GroupDescriptor(f"W{n}", gens, tuple(rels))


def cage_group(k: int) -> GroupDescriptor:
    """Direct product of an order-2 centre with S_k.

    This is the full symmetry group of the graph with two vertices and
    k parallel edges: the centre swaps the vertices reversing every
    edge, S_k permutes the edges.
    """
    base = symmetric_group(k)
    gens = ("delta",) + base.generators
    rels = [("delta", "delta")]
    for s in base.generators:
        rels.append(("delta", s) * 2)
    rels.extend(base.relations)
    return GroupDescriptor(f"G{k-1}", gens, tuple(rels))


def with_central_involution(base: GroupDescriptor) -> GroupDescriptor:
    """Extend a descriptor by a central involution ``xi``.

    Commutation relations are spelled as positive words, which needs
    the order of each base generator: 3 for t-generators, 2 otherwise,
    matching the presets above.
    """
    gens = base.generators + ("xi",)
    rels = list(base.relations) + [("xi", "xi")]
    for g in base.generators:
        o = 3 if g.startswith("t") else 2
        # xi g xi g^(o-1) = [xi, g] rewritten without inverses
        rels.append(("xi", g, "xi") + (g,) * (o - 1))
    return GroupDescriptor(base.name + "x2", gens, tuple(rels))


# ---------------------------------------------------------------------------
# matrix representations


class FiniteRep:
    """A matrix representation given on named generators."""

    __slots__ = ("group", "dim", "generators")

    def __init__(self, group: GroupDescriptor, dim: int, generators: dict | None = None):
        self.group = group
        self.dim = dim
        self.generators = {} if generators is None else generators
        for name in group.generators:
            if name not in self.generators:
                raise ValueError(f"no matrix supplied for generator {name!r}")
        for name, m in self.generators.items():
            if not isinstance(m, Matrix) or m.shape != (dim, dim):
                raise ValueError(f"generator {name!r} has the wrong shape")
            if m.determinant() == 0:
                raise ValueError(f"generator {name!r} is singular")

    def matrix_of(self, word) -> Matrix:
        acc = Matrix.identity(self.dim)
        for name in word:
            acc = acc * self.generators[name]
        return acc

    def failed_relations(self) -> list:
        out = []
        for rel in self.group.relations:
            if not self.matrix_of(rel).is_identity():
                out.append(rel)
        return out

    def verify_relations(self) -> bool:
        return not self.failed_relations()

    def direct_sum(self, other: "FiniteRep") -> "FiniteRep":
        if self.group != other.group:
            raise ValueError("descriptors differ")
        gens = {}
        for name in self.generators:
            a, b = self.generators[name], other.generators[name]
            top = a.hstack(Matrix.zeros(a.rows, b.cols))
            bot = Matrix.zeros(b.rows, a.cols).hstack(b)
            gens[name] = top.vstack(bot)
        return FiniteRep(self.group, self.dim + other.dim, gens)

    def to_json(self):
        return {
            "group": self.group.to_json(),
            "dim": self.dim,
            "generators": {k: v.to_json() for k, v in self.generators.items()},
        }

    @classmethod
    def from_json(cls, obj) -> "FiniteRep":
        return cls(
            group=GroupDescriptor.from_json(obj["group"]),
            dim=int(obj["dim"]),
            generators={k: Matrix.from_json(v) for k, v in obj["generators"].items()},
        )


def involution_family(rep: FiniteRep, n: int) -> list:
    """The n commuting sign-flip involutions of a signed-permutation rep.

    The first one must be supplied as generator ``e1``; the others are
    produced by conjugating along the adjacent transpositions, or read
    off directly when the rep lists ``e2``..``en`` itself.
    """
    if all(f"e{i}" in rep.generators for i in range(1, n + 1)):
        return [rep.generators[f"e{i}"] for i in range(1, n + 1)]
    for name in ["e1"] + [f"s{i}" for i in range(1, n)]:
        if name not in rep.generators:
            raise ValueError(f"rep has no generator {name!r}")
    mats = [rep.generators["e1"]]
    for i in range(1, n):
        s = rep.generators[f"s{i}"]
        mats.append(s * mats[-1] * s)
    return mats


# ---------------------------------------------------------------------------
# eigenspace decompositions


class EpsDecomposition:
    """Joint eigenspaces of n commuting involutions.

    ``spaces`` maps each subset of {1..n} (as a frozenset) whose joint
    eigenspace is nonzero to a basis of that eigenspace, given as the
    columns of a matrix; the j-th involution acts by -1 there exactly
    for j in the subset.  Subsets come in bitmask order (involution j is
    bit j-1).  ``layer_dims[i]`` adds up the dimensions over subsets of
    size i.
    """

    __slots__ = ("n", "ambient", "involutions", "spaces")

    def __init__(self, n: int, ambient: int, involutions: list, spaces: dict):
        self.n = n
        self.ambient = ambient
        self.involutions = involutions
        self.spaces = spaces

    @property
    def layer_dims(self) -> tuple:
        dims = [0] * (self.n + 1)
        for subset, basis in self.spaces.items():
            dims[len(subset)] += basis.cols
        return tuple(dims)

    def total_dim(self) -> int:
        return sum(basis.cols for basis in self.spaces.values())


def simultaneous_eigenspaces(involutions) -> EpsDecomposition:
    """Split the ambient space under commuting involutions, one at a time.

    Raises if any input fails to square to the identity or if any pair
    fails to commute.  Each involution commutes with the earlier ones,
    so it maps every piece split off so far into itself and splits it
    into its +1 and -1 eigenspaces (commuting involutions over Q are
    simultaneously diagonalisable; Hoffman-Kunze, *Linear Algebra*
    §6.5).  At most d pieces are nonzero, so this takes O(n d) kernels of
    small matrices, and the pieces always fill the whole space.
    """
    mats = list(involutions)
    if not mats:
        raise ValueError("need at least one involution")
    d = mats[0].rows
    for m in mats:
        if m.shape != (d, d):
            raise ValueError("dimension mismatch")
        if not (m * m).is_identity():
            raise ValueError("input is not an involution")
    for a, b in itertools.combinations(mats, 2):
        if a * b != b * a:
            raise ValueError("involutions do not commute")
    ident = Matrix.identity(d)
    pieces = {frozenset(): ident}
    for j, m in enumerate(mats, start=1):
        fixed, flipped = m - ident, m + ident
        split = {}
        for subset, basis in pieces.items():
            for key, shift in ((subset, fixed), (subset | {j}, flipped)):
                part = basis * (shift * basis).kernel_basis()
                if part.cols:
                    split[key] = part
        pieces = split
    bitmask_order = sorted(pieces, key=lambda s: sum(1 << k for k in s))
    spaces = {s: pieces[s] for s in bitmask_order}
    decomp = EpsDecomposition(len(mats), d, mats, spaces)
    if decomp.total_dim() != d:
        raise AssertionError("eigenspaces do not fill the space")
    return decomp


def check_diamond(rep: FiniteRep, decomp: EpsDecomposition, i: int, j: int) -> bool:
    """Containment law for a single transvection-type generator.

    The matrix named ``rho{i}{j}`` may move the joint eigenspace of a
    subset I only into pieces indexed by subsets differing from I
    inside {i, j}.
    """
    return not diamond_violations(rep, decomp, i, j)


def diamond_violations(rep: FiniteRep, decomp: EpsDecomposition, i: int, j: int) -> list:
    """The k outside {i, j} whose involution e_k does not commute with rho{i}{j}.

    The pieces allowed for a subset I add up to exactly the vectors on
    which every e_k with k outside {i, j} acts by the sign of I.  The
    pieces fill the space, so ``rho{i}{j}`` maps every piece into its
    allowed sum if and only if it commutes with each such e_k.
    """
    name = f"rho{i}{j}"
    if name not in rep.generators:
        raise ValueError(f"rep has no generator {name!r}")
    r = rep.generators[name]
    if r.rows != decomp.ambient:
        raise ValueError("dimension mismatch")
    return [k for k, e in enumerate(decomp.involutions, start=1)
            if k not in (i, j) and e * r != r * e]


def divisibility_check(decomp: EpsDecomposition) -> dict:
    """The size-i layer must have dimension divisible by C(n, i)."""
    layers = []
    ok = True
    for i, dim in enumerate(decomp.layer_dims):
        b = math.comb(decomp.n, i)
        good = dim % b == 0
        ok = ok and good
        layers.append({"i": i, "dim": dim, "binom": b, "divisible": good})
    return {"ok": ok, "layers": layers}


# ---------------------------------------------------------------------------
# symmetric-group characters and multiplicities


def partitions(n: int):
    """All partitions of n as weakly decreasing tuples."""
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in partitions(n - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def class_size(n: int, cycle_type) -> int:
    if sum(cycle_type) != n:
        raise ValueError("not a partition of n")
    counts: dict = {}
    for part in cycle_type:
        counts[part] = counts.get(part, 0) + 1
    denom = 1
    for part, mult in counts.items():
        denom *= (part ** mult) * math.factorial(mult)
    return math.factorial(n) // denom


NAMED = ("trivial", "determinant", "standard", "permutation", "signed_standard")


def named_character(name: str, n: int, cycle_type) -> int:
    """Character value of a named module at a cycle type."""
    if sum(cycle_type) != n or any(p < 1 for p in cycle_type):
        raise ValueError("not a partition of n")
    fixed = sum(1 for p in cycle_type if p == 1)
    sign = 1
    for p in cycle_type:
        if (p - 1) % 2 == 1:
            sign = -sign
    if name == "trivial":
        return 1
    if name == "determinant":
        return sign
    if name == "permutation":
        return fixed
    if name == "standard":
        return fixed - 1
    if name == "signed_standard":
        return sign * (fixed - 1)
    raise ValueError(f"unknown module name {name!r}")


def named_dimension(name: str, n: int) -> int:
    return {"trivial": 1, "determinant": 1, "standard": n - 1,
            "permutation": n, "signed_standard": n - 1}[name]


def class_representative(cycle_type, n: int) -> tuple:
    """One-line permutation whose cycles fill 1..n in order."""
    img = list(range(1, n + 1))
    start = 0
    for part in cycle_type:
        block = list(range(start + 1, start + part + 1))
        for a, b in zip(block, block[1:] + block[:1]):
            img[a - 1] = b
        start += part
    return tuple(img)


def adjacent_factorization(perm) -> list:
    """Write a permutation as s_{i1} * ... * s_{ik}, rightmost first.

    Returned as the list of generator names whose matrix product (in
    the given order) represents the permutation; the factorization is
    re-composed and compared against the input before returning.
    """
    n = len(perm)
    p = list(perm)
    swaps = []
    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            if p[i] > p[i + 1]:
                p[i], p[i + 1] = p[i + 1], p[i]
                swaps.append(i + 1)
                changed = True
    names = [f"s{i}" for i in reversed(swaps)]
    check = list(range(1, n + 1))
    for i in swaps:  # rightmost factor applied first
        image = [0] * n
        for x in range(1, n + 1):
            y = check[x - 1]
            if y == i:
                y = i + 1
            elif y == i + 1:
                y = i
            image[x - 1] = y
        check = image
    if tuple(check) != tuple(perm):
        raise AssertionError("factorization failed to recompose")
    return names


def multiplicity(rep: FiniteRep, name: str, n: int) -> int:
    """Multiplicity of a named module in a relation-checked rep of S_n.

    Computed as the character inner product over cycle types; a
    non-integral or negative answer means the supplied matrices do not
    actually represent the symmetric group.
    """
    total = Fraction(0)
    for lam in partitions(n):
        perm = class_representative(lam, n)
        word = adjacent_factorization(perm)
        tr = rep.matrix_of(word).trace()
        total += Fraction(class_size(n, lam)) * tr * named_character(name, n, lam)
    value = total / math.factorial(n)
    if value.denominator != 1 or value < 0:
        raise ValueError(f"inconsistent rep: multiplicity of {name} is {value}")
    return int(value)
